"""Weight distributions of a hybrid code and the identities linking them.

Four distributions are computed over the basis errors of each weight d:

  A_d    averages |Tr(P_a E)|^2 and carries normalization 1/(K^2 M),
  B_d    averages the two-sided compressions, normalization 1/(K M),
  A'_d   the block-diagonal part of B ("A perp"),
  C_d    the cross-block part, so B = A' + C termwise.

compute_distributions makes one pass over the basis elements, feeding
each weight class as exponent arrays to the batched kernel
detection.block_tensors and consuming its fixed-size chunks of
(M, K, M, K) block tensors.  Each chunk yields its share of all four
sums, with C summed over the cross blocks directly rather than taken as
B - A', and its largest block violation (detection.block_violations),
from which the per-weight "every error detectable" column is read.  The
definitional form materializes the projectors and evaluates the traces
as written; it is the one independent oracle, kept for cross-checks at
small sizes.  The distributions satisfy a substitution transform carried
out in exact rational arithmetic, and A_d = B_d at weight d exactly when
every weight-d error is detectable; the smallest weight d >= 1 where
they part is the detection distance (detection_distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import detection, error_basis, linalg
from .code_model import HybridCode, projector
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


def _frame_terms(code: HybridCode, d: int) -> tuple[np.ndarray, float]:
    """Accumulated (a, a_perp, c, b) sums over weight d and its largest block violation.

    Everything comes from the (M, K, M, K) block tensors of the weight-d
    elements: the squared block traces |K lambda_a|^2 for a, the squared
    moduli of the diagonal blocks for a_perp, of the cross blocks for c
    and of the whole tensor for b, and the largest entry of
    block_violations.  The tensors arrive from detection.block_tensors in
    fixed-size chunks in enumeration order, and each chunk adds its four
    sums to the running totals; that order is part of the determinism
    contract.
    """
    k = code.k
    cross = ~np.eye(code.m, dtype=bool)
    acc = np.zeros(4)
    worst = 0.0
    xs, zs = error_basis.enumerate_weight(code.q, code.n, d).arrays()
    for t in detection.block_tensors(code, xs, zs):
        lambdas, v = detection.block_violations(t)
        absq = t.real**2 + t.imag**2
        per_block = absq.sum(axis=(2, 4))
        acc += (
            k * k * np.vdot(lambdas, lambdas).real,
            per_block.trace(axis1=1, axis2=2).sum(),
            per_block[:, cross].sum(),
            absq.sum(),
        )
        worst = max(worst, float(v.max()))
    return acc, worst


def _projector_scan(code: HybridCode, max_d: int) -> list[np.ndarray]:
    """Per-weight (a, b) sums evaluated through materialized projectors.

    a accumulates |Tr(P_b E P_a)|^2 over ordered block pairs; b
    accumulates the squared Frobenius norm of P_b E P_a times the trace
    of P_a.  Quadratic memory in q^n, so only used for cross-checks.
    """
    ps = [projector(blk) for blk in code.blocks]
    traces = [float(np.real(np.trace(p))) for p in ps]
    per_weight = []
    for d in range(max_d + 1):
        acc = np.zeros(2)
        for e in error_basis.enumerate_weight(code.q, code.n, d):
            em = error_basis.realize(e)
            for b, pb in enumerate(ps):
                left = pb @ em
                for a, pa in enumerate(ps):
                    tr = linalg.trace_product(left, pa)
                    x = left @ pa
                    acc += (
                        abs(tr) ** 2,
                        float(np.sum(np.abs(x) ** 2)) * traces[a],
                    )
        per_weight.append(acc)
    return per_weight


def _resolve_max_weight(code: HybridCode, max_weight: int | None) -> int:
    max_d = code.n if max_weight is None else max_weight
    if not 0 <= max_d <= code.n:
        raise ValueError(f"max_weight must lie in [0, {code.n}]")
    _check_scan_size(code.q, code.n, max_d)
    return max_d


def compute_distributions(code: HybridCode, *, max_weight: int | None = None) -> dict:
    """All four distributions from one pass over the basis elements.

    Returns WeightDistributions under "A", "A_perp", "C" and "B", plus
    "max_violation": a tuple whose entry d is the largest block violation
    (detection.block_violations) over the weight-d elements, so every
    weight-d error is detectable at tol exactly when max_violation[d] <= tol.
    """
    max_d = _resolve_max_weight(code, max_weight)
    scan = [_frame_terms(code, d) for d in range(max_d + 1)]
    k, m = code.k, code.m
    a_vals = tuple(float(s[0] / (k * k * m)) for s, _ in scan)
    aperp_vals = tuple(float(s[1] / (k * m)) for s, _ in scan)
    c_vals = tuple(float(s[2] / (k * m)) for s, _ in scan)
    b_vals = tuple(float(s[3] / (k * m)) for s, _ in scan)
    return {
        "A": WeightDistribution("A", code.n, a_vals, snap_to_rationals(a_vals, k * k * m)),
        "A_perp": WeightDistribution("A_perp", code.n, aperp_vals,
                                     snap_to_rationals(aperp_vals, k * m)),
        "C": WeightDistribution("C", code.n, c_vals, snap_to_rationals(c_vals, k * m)),
        "B": WeightDistribution("B", code.n, b_vals, snap_to_rationals(b_vals, k * m)),
        "max_violation": tuple(worst for _, worst in scan),
    }


def projector_distributions(
    code: HybridCode, *, max_weight: int | None = None
) -> dict[str, WeightDistribution]:
    """A and B through materialized projectors: the independent oracle."""
    max_d = _resolve_max_weight(code, max_weight)
    sums = _projector_scan(code, max_d)
    k, m = code.k, code.m
    a_vals = tuple(float(s[0] / (k * k * m)) for s in sums)
    # Definitional normalization 1/(K^2 M); each b term carries a factor
    # Tr(P_a) which collapses it to the simplified 1/(K M) form.
    b_vals = tuple(float(s[1] / (k * k * m)) for s in sums)
    return {
        "A": WeightDistribution("A", code.n, a_vals, snap_to_rationals(a_vals, k * k * m)),
        "B": WeightDistribution("B", code.n, b_vals, snap_to_rationals(b_vals, k * m)),
    }


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
    detectability column (max_violation <= tol) at every weight.
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
                dists["max_violation"][d] <= tol,
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
