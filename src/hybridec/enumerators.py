"""Weight distributions of a hybrid code and the identities linking them.

Four distributions are computed over the basis errors of each weight d:

  A_d    averages |Tr(P_a E)|^2 and carries normalization 1/(K^2 M),
  B_d    averages the two-sided compressions, normalization 1/(K M),
  A'_d   the block-diagonal part of B ("A perp"),
  C_d    the cross-block part, so B = A' + C termwise.

For explicit frames compute_distributions runs two independent
computations.  A comes from the traces Tr(P_a E) of every basis error,
one shift at a time: a DFT over the clock exponents of the frames'
shifted diagonal (_trace_sums).  A', C and B come from partial traces
over the subsets of the digits, followed by binomial inversion
(_partial_trace_sums); C is summed over the cross-block pairs directly
rather than taken as B - A'.  For a stabilizer document it builds no
frames: A counts the span of the check rows, and B and A' are the
exact transforms of the group counts (_group_counts).  The per-weight
"every error detectable" column, which the identity check compares
with A_d = B_d, comes from detection.detectable_column, which stops
each weight at the first chunk holding a failure: through the element
kernel for explicit frames, and for a stabilizer document through the
symplectic rule on its check rows.  projector_distributions, the
definitional form, sums all four over the basis errors of each weight:
from the element kernel's block tensors F_b^dagger E F_a for explicit
frames (_element_sums), and exactly, with no frames built, from the
classes of detection.stabilizer_screen for a stabilizer document
(_stabilizer_sums), one detection.scan_supports slice at a time.  It
shares nothing with the partial traces, the DFT or the group counts,
so comparing the two modes compares independent computations, and the
identity check of a stabilizer document reads its A' and C.  No path
here forms a q^n x q^n matrix.  The distributions satisfy a
substitution transform carried out in exact rational arithmetic, and
A_d = B_d at weight d exactly when every weight-d error is detectable.
Every verdict on the distributions is decided here: equal_weights
compares A_d with B_d at tol, and the detection distance
(detection_distance), the identity check (verify_identities) and the
command line read it; sum_rules checks the totals of A and B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import detection, error_basis, linalg
from .code_model import HybridCode, StabilizerSpec
from .linalg import GuardExceededError, poly_substitute_macwilliams

SNAP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class WeightDistribution:
    """One distribution, indexed by weight.

    values[d] is the coefficient at weight d.  A full computation has
    n + 1 values; a capped one (max_weight) stops early.  exact_values
    is present when every coefficient snapped to a rational with the
    distribution's natural denominator, or when the values came out of
    the exact transform or a stabilizer code's group counts, where
    values[d] is float(exact_values[d]).
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
    between frame vectors, so Tr(P_a E) = Tr T_aa and
    Tr(P_b E P_a E^dagger) is the squared Frobenius norm of T_ba.  The
    diagonal blocks give a_perp, the cross blocks c, the whole tensor b.
    Weight classes are read in enumeration order, one
    detection.block_tensors chunk of a detection.scan_slices slice at a
    time.  Returns a (4, max_d + 1) array.
    """
    cross = ~np.eye(code.m, dtype=bool)
    sums = np.zeros((4, max_d + 1))
    for d in range(max_d + 1):
        for xs, zs in detection.scan_slices(error_basis.enumerate_weight(code.q, code.n, d)):
            for t in detection.block_tensors(code, xs, zs):
                traces = np.einsum("naiai->na", t)
                absq = np.abs(t) ** 2
                per_block = absq.sum(axis=(2, 4))
                sums[:, d] += (np.sum(np.abs(traces) ** 2),
                               per_block.trace(axis1=1, axis2=2).sum(),
                               per_block[:, cross].sum(),
                               absq.sum())
    return sums


def _stabilizer_sums(spec: StabilizerSpec, max_d: int) -> np.ndarray:
    """Per-weight (a, a_perp, c, b) of a stabilizer code, as a (4, max_d + 1) count array.

    Each basis error's term in _element_sums is fixed by its class in
    detection.stabilizer_screen: an element of <S, h> adds K^2 M to a and
    K M to a_perp; any other element commuting with S adds K M to a_perp
    if it commutes with every h, else to c; b = a_perp + c.  Divided by
    the normalizations, each term counts 1, screened a scan_supports slice at a time."""
    counts = np.zeros((4, max_d + 1), dtype=np.int64)
    for d in range(max_d + 1):
        letters = error_basis.pair_letters(2, d)
        for supports in detection.scan_supports(error_basis.enumerate_weight(2, spec.n, d)):
            rows, flips, member, _ = detection.stabilizer_screen(spec, supports, letters)
            flipping = np.count_nonzero(flips.any(axis=1))
            counts[:, d] += (np.count_nonzero(member), len(rows) - flipping, flipping, len(rows))
    return counts


def _resolve_max_weight(code: HybridCode | StabilizerSpec, max_weight: int | None) -> int:
    max_d = code.n if max_weight is None else max_weight
    if not 0 <= max_d <= code.n:
        raise ValueError(f"max_weight must lie in [0, {code.n}]")
    guard, total = detection.SCAN_GUARD, 0
    for d in range(max_d + 1):
        total += error_basis.enumerate_weight(code.q, code.n, d).count_up_to(guard)
        if total > guard:
            raise GuardExceededError(f"scan would enumerate more than {guard} elements, "
                                     f"guard is {guard}; restrict max_weight")
    return max_d


def _weight_distributions(code: HybridCode | StabilizerSpec,
                          sums: np.ndarray) -> dict[str, WeightDistribution]:
    """The distributions from (4, max_d + 1) per-weight sums, rows A, A', C, B.

    A HybridCode's A carries the normalization 1/(K^2 M), the others
    1/(K M); a StabilizerSpec's sums are _stabilizer_sums' counts.
    """
    k, m = code.k, code.m
    denominators = (1,) * 4 if isinstance(code, StabilizerSpec) else (k * k * m,) + (k * m,) * 3
    dists = {}
    for key, row, denominator in zip(("A", "A_perp", "C", "B"), sums, denominators):
        vals = tuple(float(s / denominator) for s in row)
        dists[key] = WeightDistribution(key, code.n, vals, snap_to_rationals(vals, denominator))
    return dists


def _group_counts(spec: StabilizerSpec, max_d: int) -> dict[str, WeightDistribution]:
    """The four distributions of a stabilizer code, exactly, from the span of its check rows.

    A_d counts the weight-d elements of <S, h>, and B_d and A'_d those of
    the normalizers N(S) and N(<S, h>), which the quaternary transform
    gives from the group counts (Shor-Laflamme; Grassl-Lu-Zeng):
    B = T(A_S) / 2^r, A_S counting <S>, and A' = T(A) / 2^(r + c); then
    C = B - A'.  Span element i is the XOR of the rows that i's bits
    select, the generators at the low bits, so the first 2^r elements
    are <S>.  Each row's x and z halves are packed into uint64 words, an
    element's weight is the popcount of x | z, and the span is walked in
    chunks of at most CHUNK_ENTRIES words where one element fits: the
    span of the first rows, XORed with one combination of the others.
    """
    rows = spec.check_rows
    n, r, t = spec.n, spec.num_generators, len(rows)
    guard = detection.SCAN_GUARD
    if t >= guard.bit_length():
        raise GuardExceededError(f"span of {t} check rows has 2^{t} elements, "
                                 f"more than {guard}; guard is {guard}")
    words = rows.shape[-1]
    low = min(t, max(0, (detection.CHUNK_ENTRIES // (2 * words)).bit_length() - 1))
    table = np.zeros((1, 2, words), dtype=np.uint64)
    for row in rows[:low]:
        table = np.concatenate([table, table ^ row])
    counts, subgroup = np.zeros((2, n + 1), dtype=np.int64)
    for high in range(1 << (t - low)):
        chosen = rows[low:][high >> np.arange(t - low) & 1 == 1]
        span = table ^ np.bitwise_xor.reduce(chosen, axis=0)
        weights = np.bitwise_count(span[:, 0] | span[:, 1]).sum(axis=1, dtype=np.int64)
        counts += np.bincount(weights, minlength=n + 1)
        subgroup += np.bincount(weights[:max(0, (1 << r) - (high << low))], minlength=n + 1)
    a = counts.tolist()
    b = poly_substitute_macwilliams(subgroup.tolist(), n, 2, Fraction(1, 2**r), max_d)
    a_perp = poly_substitute_macwilliams(a, n, 2, Fraction(1, 2**t), max_d)
    c = tuple(x - y for x, y in zip(b, a_perp))
    return {key: WeightDistribution(key, n, tuple(float(v) for v in exact), tuple(exact))
            for key, exact in (("A", a[:max_d + 1]), ("A_perp", a_perp), ("C", c), ("B", b))}


def compute_distributions(
    code: HybridCode | StabilizerSpec, *, max_weight: int | None = None
) -> dict[str, WeightDistribution]:
    """All four distributions, under "A", "A_perp", "C" and "B".

    For a HybridCode, A comes from the clock-exponent DFT (_trace_sums),
    A', C and B from partial traces (_partial_trace_sums), so the
    transform compares independent computations.  A StabilizerSpec's
    come exactly from the span of its check rows (_group_counts), with
    no frames built.  The scan guard on the weights asked for is checked
    first either way.
    """
    max_d = _resolve_max_weight(code, max_weight)
    if isinstance(code, StabilizerSpec):
        return _group_counts(code, max_d)
    return _weight_distributions(
        code, np.vstack([_trace_sums(code, max_d), _partial_trace_sums(code, max_d)]))


def projector_distributions(
    code: HybridCode | StabilizerSpec, *, max_weight: int | None = None
) -> dict[str, WeightDistribution]:
    """All four distributions from the definitional sums over the basis errors.

    The element kernel's block tensors give every term of a HybridCode
    (_element_sums); a StabilizerSpec's terms are counted exactly from
    its check rows (_stabilizer_sums).  Nothing is shared with
    compute_distributions' partial traces or DFT.
    """
    max_d = _resolve_max_weight(code, max_weight)
    sums = (_stabilizer_sums if isinstance(code, StabilizerSpec) else _element_sums)(code, max_d)
    return _weight_distributions(code, sums)


def _distributions(code: HybridCode | StabilizerSpec, mode: str, max_weight: int | None) -> dict:
    if mode == "simplified":
        return compute_distributions(code, max_weight=max_weight)
    if mode == "definitional":
        return projector_distributions(code, max_weight=max_weight)
    raise ValueError(f"unknown mode {mode!r}")


def weights_a(
    code: HybridCode | StabilizerSpec,
    mode: str = "simplified",
    *,
    max_weight: int | None = None,
) -> WeightDistribution:
    """Distribution A.  Modes: "simplified" (compute_distributions) or
    "definitional" (projector_distributions)."""
    return _distributions(code, mode, max_weight)["A"]


def weights_b(
    code: HybridCode | StabilizerSpec,
    mode: str = "simplified",
    *,
    max_weight: int | None = None,
) -> WeightDistribution:
    """Distribution B, with the same mode choice as weights_a."""
    return _distributions(code, mode, max_weight)["B"]


def macwilliams_of_a(dist: WeightDistribution, *, k: int, q: int) -> WeightDistribution:
    """Transform a complete distribution A of a code with parameters k, q into A'.

    The substitution is exact.  It reads dist.exact_values when A
    snapped to rationals, and otherwise converts the binary values
    exactly, so the substitution itself never rounds.
    """
    if not dist.complete:
        raise ValueError("transform needs the full distribution; drop max_weight")
    if abs(dist.values[0] - 1.0) > 1e-6:
        raise ValueError(f"A must start at 1, got {dist.values[0]!r}")
    coeffs = dist.exact_values or tuple(Fraction(v) for v in dist.values)
    exact = poly_substitute_macwilliams(coeffs, dist.n, q, Fraction(k, q**dist.n))
    return WeightDistribution("A_perp", dist.n, tuple(float(c) for c in exact), exact)


def equal_weights(a: WeightDistribution, b: WeightDistribution, tol: float) -> tuple[bool, ...]:
    """Entry d says whether |A_d - B_d| <= tol, over the weights both hold.

    This is the one comparison of A with B: the detection distance, the
    distance table and the identity check all read it.  tol must be a
    finite number >= 0.
    """
    linalg.check_tol(tol)
    return tuple(abs(x - y) <= tol for x, y in zip(a.values, b.values))


def detection_distance(a: WeightDistribution, b: WeightDistribution, tol: float) -> int:
    """First weight d >= 1 where equal_weights fails; n + 1 when there is none.

    A weight d with A_d = B_d means every weight-d error is detectable,
    so this is the code's detection distance.  Weight 0 holds only the
    identity, which every code detects, so it is never the answer.
    """
    if not (a.complete and b.complete):
        raise ValueError("the detection distance needs the full distributions")
    equal = equal_weights(a, b, tol)
    return next((d for d in range(1, a.n + 1) if not equal[d]), a.n + 1)


@dataclass(frozen=True)
class SumRules:
    """The totals of A and B against q^n / K and q^n K M, and the verdict."""

    a_total: float
    a_expected: float
    b_total: float
    b_expected: float
    ok: bool


def sum_rules(code: HybridCode | StabilizerSpec, a: WeightDistribution, b: WeightDistribution,
              tol: float = linalg.ENTRY_TOL) -> SumRules:
    """Check sum A_d = q^n / K and sum B_d = q^n K M on complete distributions.

    Each total may miss its target by max(tol, 1e-9) (1 + target); tol
    must be a finite number >= 0.
    """
    linalg.check_tol(tol)
    if not (a.complete and b.complete):
        raise ValueError("the sum rules need the full distributions")
    a_expected = code.q**code.n / code.k
    b_expected = float(code.q**code.n * code.k * code.m)
    a_total, b_total = a.total(), b.total()
    rule_tol = max(tol, 1e-9)
    ok = (abs(a_total - a_expected) <= rule_tol * (1 + a_expected)
          and abs(b_total - b_expected) <= rule_tol * (1 + b_expected))
    return SumRules(a_total, a_expected, b_total, b_expected, ok)


@dataclass(frozen=True)
class IdentityReport:
    """Joint check of the structural identities on one code.

    macwilliams_residual compares the transformed A against the directly
    computed A'; additivity_residual checks B = A' + C termwise.  equal
    is equal_weights(a, b, tol) and all_detectable the per-element
    detectability column; equivalence_ok records that they match at
    every weight.  ok holds when the transform residual is at most 1e-6,
    the additivity residual at most tol, no C_d falls below -tol, and
    equivalence_ok holds.
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
    equal: tuple[bool, ...]
    all_detectable: tuple[bool, ...]
    ok: bool


def verify_identities(
    code: HybridCode | StabilizerSpec, tol: float = linalg.ENTRY_TOL
) -> IdentityReport:
    """Compute all distributions and check the identities tying them together.

    The distributions come from compute_distributions, and the
    detectability column from code itself: for a StabilizerSpec, from
    the commutation screen on its check rows.  A StabilizerSpec's A and
    B are its group counts, and its A' and C the per-element counts of
    projector_distributions, so the transform, additivity and A_d = B_d
    checks each still compare two methods.
    """
    dists = compute_distributions(code)
    if isinstance(code, StabilizerSpec):
        screened = projector_distributions(code)
        dists.update(A_perp=screened["A_perp"], C=screened["C"])
    a, b = dists["A"], dists["B"]
    aperp, c = dists["A_perp"], dists["C"]
    transform = macwilliams_of_a(a, k=code.k, q=code.q)
    mac_res = max(abs(x - y) for x, y in zip(aperp.values, transform.values))
    add_res = max(abs(bv - (av + cv)) for bv, av, cv in zip(b.values, aperp.values, c.values))
    c_ok = all(v >= -tol for v in c.values)
    equal = equal_weights(a, b, tol)
    column = detection.detectable_column(code, code.n, tol)
    equivalence_ok = equal == column
    return IdentityReport(a, b, aperp, transform, c, mac_res, add_res, c_ok, equivalence_ok,
                          detection_distance(a, b, tol), equal, column,
                          mac_res <= 1e-6 and add_res <= tol and c_ok and equivalence_ok)
