"""Weight distributions of a hybrid code and the identities linking them.

Four distributions are computed over the basis errors of each weight d:

  A_d    averages |Tr(P_a E)|^2 and carries normalization 1/(K^2 M),
  B_d    averages the two-sided compressions, normalization 1/(K M),
  A'_d   the block-diagonal part of B ("A perp"),
  C_d    the cross-block part, so B = A' + C termwise.

compute_distributions runs three independent computations.  A comes
from the traces Tr(P_a E) of every basis error, one shift at a time: a
DFT over the clock exponents of the frames' shifted diagonal
(_trace_sums).  A', C and B come from partial traces over the subsets
of the digits, followed by binomial inversion (_partial_trace_sums); C
is summed over the cross-block pairs directly rather than taken as
B - A'.  The per-weight "every error detectable" column, which the
identity check compares with A_d = B_d, comes from the element kernel
through detection.detectable_column, which stops each weight at the
first chunk holding a failure.  projector_distributions, the
definitional form, sums all four over the basis errors of each weight
from the element kernel's block tensors F_b^dagger E F_a
(_element_sums); it shares nothing with the partial traces or the DFT,
so comparing the two modes compares independent computations.  No path
here forms a q^n x q^n matrix.  The distributions satisfy a
substitution transform carried out in exact rational arithmetic, and
A_d = B_d at weight d exactly when every weight-d error is detectable;
the smallest weight d >= 1 where they part is the detection distance
(detection_distance).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import detection, error_basis, linalg
from .code_model import HybridCode
from .linalg import GuardExceededError, poly_substitute_macwilliams

SNAP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class WeightDistribution:
    """One distribution, indexed by weight.

    values[d] is the coefficient at weight d.  A full computation has
    n + 1 values; a capped one (max_weight) stops early.  exact_values
    is present when every coefficient snapped to a rational with the
    distribution's natural denominator, or when the values came out of
    the exact transform.
    """

    kind: str
    n: int
    values: tuple[float, ...]
    exact_values: tuple[Fraction, ...] | None = None

    @property
    def complete(self) -> bool:
        return len(self.values) == self.n + 1

    def total(self) -> float:
        return float(sum(self.values))


def snap_to_rationals(values, denominator: int, threshold: float = SNAP_THRESHOLD):
    """Nearest rationals with the given denominator, or None if any value
    is farther than threshold from its candidate."""
    out = []
    for v in values:
        fr = Fraction(round(v * denominator), denominator)
        if abs(v - float(fr)) > threshold:
            return None
        out.append(fr)
    return tuple(out)


def _check_scan_size(q: int, n: int, max_d: int):
    total = sum(len(error_basis.enumerate_weight(q, n, d)) for d in range(max_d + 1))
    if total > detection.SCAN_GUARD:
        raise GuardExceededError(
            f"scan would enumerate {total} elements, guard is {detection.SCAN_GUARD}; "
            f"restrict max_weight"
        )


def _subset_pairs(frames: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """Tr(Tr_S P_a Tr_S P_b) over block pairs (a, b), as an (M, M) array.

    frames is the (M, K, q, ..., q) frame array and S the given digits.
    With X_a block a's frames reshaped to (K q^|S|, q^(n-|S|)), S's
    digits leading, Tr_S P_a = X_a^T conj(X_a), and the pair term is the
    squared Frobenius norm of the cross Gram conj(X_a) X_b^T.  The
    product is taken on whichever side is smaller.
    """
    m, k = frames.shape[:2]
    n = frames.ndim - 2
    rest = [i for i in range(n) if i not in subset]
    order = [0, 1] + [2 + i for i in subset] + [2 + i for i in rest]
    x = frames.transpose(order).reshape(m, k * frames.shape[2] ** len(subset), -1)
    rows, cols = x.shape[1:]
    if m * rows <= cols:
        flat = x.reshape(m * rows, cols)
        gram = flat.conj() @ flat.T
        return (gram.real**2 + gram.imag**2).reshape(m, rows, m, rows).sum(axis=(1, 3))
    traced = (x.transpose(0, 2, 1) @ x.conj()).reshape(m, cols * cols)
    return (traced.conj() @ traced.T).real


def _partial_trace_sums(code: HybridCode, max_d: int) -> np.ndarray:
    """Per-weight (a_perp, c, b) sums from partial traces over digit subsets.

    Over the basis errors E supported inside a subset S,
    sum_E Tr(P_a E P_b E^dagger) = q^|S| Tr(Tr_S P_a Tr_S P_b)
    (Rains; Shor-Laflamme).  The block-diagonal pairs give a_perp, the
    cross pairs c, and all pairs b, the whole projector's term.  Adding
    the subsets of each size j <= max_d counts every error of weight
    w <= j C(n - w, j - w) times, which the alternating binomial sum
    inverts.  Returns a (3, max_d + 1) array.
    """
    q, n, m = code.q, code.n, code.m
    frames = code.frame_stack.reshape((m, code.k) + (q,) * n)
    by_size = np.zeros((max_d + 1, m, m))
    for j in range(max_d + 1):
        for subset in itertools.combinations(range(n), j):
            by_size[j] += q**j * _subset_pairs(frames, subset)
    inverse = np.array([[(-1) ** (d - j) * comb(n - j, d - j) if j <= d else 0
                         for j in range(max_d + 1)] for d in range(max_d + 1)], dtype=float)
    per_weight = np.tensordot(inverse, by_size, axes=1)
    cross = ~np.eye(m, dtype=bool)
    return np.array([per_weight.trace(axis1=1, axis2=2),
                     per_weight[:, cross].sum(axis=1),
                     per_weight.sum(axis=(1, 2))])


def _trace_sums(code: HybridCode, max_d: int) -> np.ndarray:
    """Per-weight sums of sum_a |Tr(P_a E)|^2 over the basis errors E.

    For a shift x, Tr(P_a X^x Z^z) = sum_j w^(z.j) u[j], where u is the
    shifted diagonal u[j] = sum_i conj(f_i[j + x]) f_i[j] of block a's
    frames; a q x q DFT on each digit gives it for every clock exponent
    z at once.  Only shifts of weight <= max_d can reach those weights.
    Shifts are taken in fixed-size chunks, as in detection.block_tensors,
    so no q^n x q^n array is formed.  Returns max_d + 1 sums.
    """
    q, n, m, k, dim = code.q, code.n, code.m, code.k, code.dimension
    v = code.frame_stack
    vc = v.conj()
    # Byte digit tables keep this n x q^n bookkeeping small next to the frames.
    digits = np.indices((q,) * n, dtype=np.uint8).reshape(n, dim)
    nonzero = (digits != 0).astype(np.uint8)
    shifts = digits.T[np.count_nonzero(digits, axis=0) <= max_d]
    # dft[z, j] = w^(z j): the phases of the one-digit clock operators Z^z.
    dft = error_basis.permutation_actions(
        q, 1, np.zeros((q, 1), dtype=np.int64), np.arange(q)[:, None])[1]
    step = max(1, detection.CHUNK_ENTRIES // (m * k * dim))
    acc = np.zeros(n + 1)
    for start in range(0, len(shifts), step):
        xs = shifts[start:start + step]
        nb = len(xs)
        perm, _ = error_basis.permutation_actions(q, n, xs, np.zeros_like(xs))
        u = (np.take(vc, perm, axis=1) * v[:, None, :]).reshape(m, k, nb, dim).sum(axis=1)
        t = u.reshape((m * nb,) + (q,) * n)
        for _ in range(n):
            # Contract the leading digit and append its clock exponent.
            t = np.tensordot(t, dft, axes=([1], [1]))
        power = (t.real**2 + t.imag**2).reshape(m, nb, dim).sum(axis=0)
        weights = (np.count_nonzero(xs, axis=1)[:, None]
                   + (xs == 0).astype(np.uint8) @ nonzero)
        acc += np.bincount(weights.ravel(), power.ravel(), minlength=n + 1)
    return acc[:max_d + 1]


def _element_sums(code: HybridCode, max_d: int) -> np.ndarray:
    """Per-weight (a, a_perp, c, b) sums over the block tensors of the basis errors.

    T_ba = F_b^dagger E F_a holds the matrix elements of P_b E P_a
    between frame vectors, so |Tr(P_a E)|^2 = K^2 |lambda_a|^2 and
    Tr(P_b E P_a E^dagger) is the squared Frobenius norm of T_ba.  The
    diagonal blocks give a_perp, the cross blocks c, the whole tensor b.
    Weight classes are read in enumeration order, one
    detection.block_tensors chunk at a time.  Returns a (4, max_d + 1)
    array.
    """
    k, m = code.k, code.m
    cross = ~np.eye(m, dtype=bool)
    sums = np.zeros((4, max_d + 1))
    for d in range(max_d + 1):
        xs, zs = error_basis.enumerate_weight(code.q, code.n, d).arrays()
        for t in detection.block_tensors(code, xs, zs):
            lambdas, _ = detection.block_violations(t)
            absq = np.abs(t) ** 2
            per_block = absq.sum(axis=(2, 4))
            sums[:, d] += (k * k * np.sum(np.abs(lambdas) ** 2),
                           per_block.trace(axis1=1, axis2=2).sum(),
                           per_block[:, cross].sum(),
                           absq.sum())
    return sums


def _resolve_max_weight(code: HybridCode, max_weight: int | None) -> int:
    max_d = code.n if max_weight is None else max_weight
    if not 0 <= max_d <= code.n:
        raise ValueError(f"max_weight must lie in [0, {code.n}]")
    _check_scan_size(code.q, code.n, max_d)
    return max_d


def _weight_distributions(code: HybridCode, sums: np.ndarray) -> dict[str, WeightDistribution]:
    """The distributions from (4, max_d + 1) per-weight sums, rows A, A', C, B.

    A carries the normalization 1/(K^2 M), the others 1/(K M).
    """
    k, m = code.k, code.m
    dists = {}
    for key, row, denominator in zip(("A", "A_perp", "C", "B"), sums,
                                     (k * k * m, k * m, k * m, k * m)):
        vals = tuple(float(s / denominator) for s in row)
        dists[key] = WeightDistribution(key, code.n, vals, snap_to_rationals(vals, denominator))
    return dists


def compute_distributions(
    code: HybridCode, *, max_weight: int | None = None
) -> dict[str, WeightDistribution]:
    """All four distributions, under "A", "A_perp", "C" and "B".

    A comes from the clock-exponent DFT (_trace_sums), A', C and B from
    partial traces (_partial_trace_sums), so the transform compares
    independent computations.
    """
    max_d = _resolve_max_weight(code, max_weight)
    return _weight_distributions(
        code, np.vstack([_trace_sums(code, max_d), _partial_trace_sums(code, max_d)]))


def projector_distributions(
    code: HybridCode, *, max_weight: int | None = None
) -> dict[str, WeightDistribution]:
    """All four distributions from the definitional sums over the basis errors.

    The element kernel's block tensors give every term (_element_sums);
    nothing is shared with compute_distributions' partial traces or DFT.
    """
    max_d = _resolve_max_weight(code, max_weight)
    return _weight_distributions(code, _element_sums(code, max_d))


def _distributions(code: HybridCode, mode: str, max_weight: int | None) -> dict:
    if mode == "simplified":
        return compute_distributions(code, max_weight=max_weight)
    if mode == "definitional":
        return projector_distributions(code, max_weight=max_weight)
    raise ValueError(f"unknown mode {mode!r}")


def weights_a(
    code: HybridCode,
    mode: str = "simplified",
    *,
    max_weight: int | None = None,
) -> WeightDistribution:
    """Distribution A.  Modes: "simplified" (compute_distributions) or
    "definitional" (projector_distributions)."""
    return _distributions(code, mode, max_weight)["A"]


def weights_b(
    code: HybridCode,
    mode: str = "simplified",
    *,
    max_weight: int | None = None,
) -> WeightDistribution:
    """Distribution B, with the same mode choice as weights_a."""
    return _distributions(code, mode, max_weight)["B"]


def macwilliams_of_a(
    source,
    *,
    k: int | None = None,
    n: int | None = None,
    q: int | None = None,
) -> WeightDistribution:
    """Transform distribution A into A' by the exact substitution.

    source may be a HybridCode (A is computed first) or an A
    distribution, in which case k, n, q must be supplied (or are taken
    from a WeightDistribution plus k, q).  Coefficients that did not
    snap to rationals are converted exactly from their binary values, so
    the substitution itself never rounds.
    """
    if isinstance(source, HybridCode):
        dist = weights_a(source)
        k, n, q = source.k, source.n, source.q
    elif isinstance(source, WeightDistribution):
        dist = source
        n = dist.n if n is None else n
        if k is None or q is None:
            raise ValueError("k and q are required alongside a distribution")
    else:
        values = tuple(float(v) for v in source)
        if k is None or n is None or q is None:
            raise ValueError("k, n, q are required alongside raw values")
        dist = WeightDistribution("A", n, values)
    if not dist.complete:
        raise ValueError("transform needs the full distribution; drop max_weight")
    if abs(dist.values[0] - 1.0) > 1e-6:
        raise ValueError(f"A must start at 1, got {dist.values[0]!r}")
    if dist.exact_values is not None:
        coeffs = dist.exact_values
    else:
        coeffs = tuple(Fraction(v) for v in dist.values)
    exact = poly_substitute_macwilliams(coeffs, n, q, Fraction(k, q**n))
    return WeightDistribution(
        "A_perp", n, tuple(float(c) for c in exact), exact
    )


def detection_distance(a: WeightDistribution, b: WeightDistribution, tol: float) -> int:
    """First weight d >= 1 with |A_d - B_d| > tol; n + 1 when there is none.

    A weight d with A_d = B_d means every weight-d error is detectable,
    so this is the code's detection distance.  Weight 0 holds only the
    identity, which every code detects, so it is never the answer.
    """
    if not (a.complete and b.complete):
        raise ValueError("the detection distance needs the full distributions")
    for d in range(1, a.n + 1):
        if abs(a.values[d] - b.values[d]) > tol:
            return d
    return a.n + 1


def min_detection_weight(code: HybridCode, tol: float | None = None) -> int:
    """The code's detection distance (detection_distance) at tol."""
    tol = linalg.ENTRY_TOL if tol is None else tol
    dists = compute_distributions(code)
    return detection_distance(dists["A"], dists["B"], tol)


@dataclass(frozen=True)
class WeightRow:
    """One line of the identity report's per-weight table."""

    d: int
    a: float
    b: float
    a_perp: float
    a_perp_transform: float
    c: float
    equal: bool
    all_detectable: bool


@dataclass(frozen=True)
class IdentityReport:
    """Joint check of the structural identities on one code.

    macwilliams_residual compares the transformed A against the directly
    computed A'; additivity_residual checks B = A' + C termwise;
    equivalence_ok records that A_d = B_d exactly matches the per-element
    detectability column (all_detectable) at every weight.
    """

    a: WeightDistribution
    b: WeightDistribution
    a_perp: WeightDistribution
    a_perp_transform: WeightDistribution
    c: WeightDistribution
    macwilliams_residual: float
    additivity_residual: float
    c_nonneg_ok: bool
    equivalence_ok: bool
    detection_distance: int
    rows: tuple[WeightRow, ...]


def verify_identities(code: HybridCode, tol: float | None = None) -> IdentityReport:
    """Compute all distributions and check the identities tying them together."""
    tol = linalg.ENTRY_TOL if tol is None else tol
    dists = compute_distributions(code)
    column = detection.detectable_column(code, code.n, tol)
    a, b = dists["A"], dists["B"]
    aperp, c = dists["A_perp"], dists["C"]
    transform = macwilliams_of_a(a, k=code.k, n=code.n, q=code.q)
    mac_res = max(
        abs(x - y) for x, y in zip(aperp.values, transform.values)
    )
    add_res = max(
        abs(bv - (av + cv))
        for bv, av, cv in zip(b.values, aperp.values, c.values)
    )
    c_ok = all(v >= -tol for v in c.values)
    rows = []
    for d in range(code.n + 1):
        rows.append(
            WeightRow(
                d,
                a.values[d],
                b.values[d],
                aperp.values[d],
                transform.values[d],
                c.values[d],
                abs(a.values[d] - b.values[d]) <= tol,
                column[d],
            )
        )
    return IdentityReport(
        a=a,
        b=b,
        a_perp=aperp,
        a_perp_transform=transform,
        c=c,
        macwilliams_residual=mac_res,
        additivity_residual=add_res,
        c_nonneg_ok=c_ok,
        equivalence_ok=all(r.equal == r.all_detectable for r in rows),
        detection_distance=detection_distance(a, b, tol),
        rows=tuple(rows),
    )


def sum_rule_targets(code: HybridCode) -> tuple[float, float]:
    """Expected totals: sum A_d = q^n / K and sum B_d = q^n K M."""
    return (code.dimension / code.k, float(code.dimension * code.k * code.m))
