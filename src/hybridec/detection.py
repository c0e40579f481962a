"""Detectability and correctability of errors, measurement, and the
dimension of the detectable operator space.

An operator E is detectable when every cross-block compression vanishes
and every within-block compression is a scalar: P_b E P_a equals
lambda_a [a = b] P_a.  All checks work on the K x K blocks of matrix
elements between frame vectors, so the q^n x q^n products are never
materialized.  Basis errors reach those blocks through one batched
kernel, block_tensors, which takes the errors as exponent arrays and
computes a fixed-size chunk of tensors with a single matrix product; the
weight scan (and with it the per-weight detectability column)
and the correctability test read it, and block_violations turns its
output into the detectability verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import error_basis, linalg
from .code_model import HybridCode, encode
from .error_basis import PauliElement
from .linalg import GuardExceededError

EPSILON_LABEL = "epsilon"

# Largest q^n for which the numeric dimension check will assemble its
# linear system, which has q^(2n) columns.
NUMERIC_DIMENSION_GUARD = 16

# Largest number of basis elements one scan may enumerate: a weight class
# here, all weights up to max_weight in enumerators.compute_distributions.
SCAN_GUARD = 4**8

# Complex entries of the gathered frames per block_tensors chunk: a chunk
# holds max(1, CHUNK_ENTRIES // (M K q^n)) elements, and the trace DFT
# of enumerators takes as many shifts per chunk.  compute_distributions
# on the Steane hybrid code peaks at 0.9 MB of traced allocations with
# 2^13 entries and at 33 MB with 2^20.
CHUNK_ENTRIES = 2**13

# OpenBLAS runs complex products of 2^16 or more multiply-adds on several
# threads; at chunk sizes that took 3.6x as long (72 us at (128, 64) x (64, 8))
# and varied with the load on a second core.  A chunk's product stays below
# it whenever one element's product does.
THREADED_PRODUCT = 2**16


class NotDetectableError(ValueError):
    """Raised when an operation requires a detectable operator."""


def block_tensors(code: HybridCode, xs, zs) -> Iterator[np.ndarray]:
    """Block tensors of basis errors, one chunk of consecutive rows at a time.

    xs and zs are (N, n) arrays of shift and clock exponents.  Each yielded
    array has shape (nb, M, K, M, K) and holds, in row order, the tensors
    error_block_tensor gives for the next nb elements; nb is fixed by
    CHUNK_ENTRIES, THREADED_PRODUCT and the code's size, so the chunks of
    a given input are always the same.  A chunk is one product of the
    gathered, phased conjugate frames (nb M K, q^n) with the frame stack.
    """
    q, n = code.q, code.n
    xs = np.asarray(xs, dtype=np.int64)
    zs = np.asarray(zs, dtype=np.int64)
    if xs.ndim != 2 or xs.shape != zs.shape or xs.shape[1] != n:
        raise ValueError(f"exponent arrays must both have shape (N, {n})")
    if xs.size and (min(xs.min(), zs.min()) < 0 or max(xs.max(), zs.max()) >= q):
        raise ValueError(f"exponents must lie in [0, {q})")
    v = code.frame_stack
    vc = v.conj()
    m, k, dim = code.m, code.k, code.dimension
    step = max(1, CHUNK_ENTRIES // (m * k * dim))
    if m * k * m * k * dim < THREADED_PRODUCT:
        step = min(step, (THREADED_PRODUCT - 1) // (m * k * m * k * dim))
    for start in range(0, len(xs), step):
        perm, phase = error_basis.permutation_actions(
            q, n, xs[start:start + step], zs[start:start + step])
        nb = len(perm)
        # gathered[r, b, j] = conj(v[r, perm[b, j]]) phase[b, j], so row
        # (r, b) of the product is <f_r| E_b |f_s> over s.
        gathered = np.take(vc, perm, axis=1)
        gathered *= phase
        t = gathered.reshape(m * k * nb, dim) @ v.T
        yield t.reshape(m * k, nb, m * k).transpose(1, 0, 2).reshape(nb, m, k, m, k)


def error_block_tensor(code: HybridCode, err) -> np.ndarray:
    """Matrix elements <f_j^(b)| E |f_i^(a)> as an (M, K, M, K) array.

    Index order is [b, j, a, i]: bra block and row first.  err may be a
    PauliElement (a batch of one for block_tensors) or a dense matrix.
    """
    if isinstance(err, PauliElement):
        if (err.q, err.n) != (code.q, code.n):
            raise ValueError("element parameters do not match the code")
        return next(block_tensors(code, [err.xvec], [err.zvec]))[0]
    em = linalg.as_matrix(err)
    dim = code.dimension
    if em.shape != (dim, dim):
        raise linalg.DimensionMismatchError(
            f"operator must be {dim} x {dim}, got {em.shape}"
        )
    v = code.frame_stack
    ev = v @ em.T
    t = v.conj() @ ev.T
    return t.reshape(code.m, code.k, code.m, code.k)


@dataclass(frozen=True, eq=False)
class DetectabilityReport:
    """Outcome of the detectability test for one operator.

    lambdas holds the per-block scalars and is present only when the
    operator is detectable.  witness names the first offending (b, a)
    block pair, 1-based, when it is not.
    """

    error: object
    detectable: bool
    lambdas: tuple[complex, ...] | None
    max_diag_violation: float
    max_offdiag_violation: float
    witness: tuple[int, int] | None


def block_violations(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block scalars and per-block violations of (..., M, K, M, K) block tensors.

    lambdas[..., a] = Tr(T_aa) / K.  v[..., b, a] is the largest entry of
    |T_ba - [a = b] lambdas[a] 1|, so an operator is detectable at tol
    exactly when every entry of its v is at most tol.  Leading axes are
    a batch.  This is the one definition of detectability; detectability,
    the weight scan and the correctability test all read it.
    """
    batch = t.shape[:-4]
    m, k = t.shape[-4:-2]
    flat = t.reshape(-1, m * k, m * k)
    diag = flat.diagonal(axis1=1, axis2=2)
    lambdas = diag.reshape(-1, m, k).sum(axis=2) / k
    dev = np.abs(flat)
    on_diag = np.arange(m * k)
    dev[:, on_diag, on_diag] = np.abs(diag - lambdas.repeat(k, axis=1))
    v = dev.reshape(-1, m, k, m, k).max(axis=(2, 4))
    return lambdas.reshape(batch + (m,)), v.reshape(batch + (m, m))


def _report(err, lambdas: np.ndarray, v: np.ndarray, tol: float) -> DetectabilityReport:
    """The detectability verdict on one operator from its block_violations output."""
    m = len(lambdas)
    max_diag = float(v.diagonal().max())
    max_off = 0.0
    witness = None
    if m == 1:
        # One block has no cross-block compressions; skipping the general
        # bookkeeping keeps the common single-block test cheap.
        if max_diag > tol:
            witness = (1, 1)
    else:
        failing = v.T > tol
        first = int(failing.argmax())
        if failing.flat[first]:
            witness = (first % m + 1, first // m + 1)
        max_off = float(np.where(np.eye(m, dtype=bool), 0.0, v).max())
    detectable = witness is None
    return DetectabilityReport(
        error=err,
        detectable=detectable,
        lambdas=tuple(lambdas.tolist()) if detectable else None,
        max_diag_violation=max_diag,
        max_offdiag_violation=max_off,
        witness=witness,
    )


def detectability(code: HybridCode, err, tol: float | None = None) -> DetectabilityReport:
    """Decide whether the code detects err.

    The witness is the first failing block pair when source blocks a are
    scanned in order and, within each, bra blocks b.
    """
    tol = linalg.ENTRY_TOL if tol is None else tol
    lambdas, v = block_violations(error_block_tensor(code, err))
    return _report(err, lambdas, v, tol)


def _failures(
    code: HybridCode, xs, zs, tol: float
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(row, lambdas, v) for each element of xs, zs not detectable at tol.

    Rows come in order, one block_tensors chunk at a time, so a caller
    that stops early leaves the remaining chunks uncomputed.
    """
    start = 0
    for t in block_tensors(code, xs, zs):
        lambdas, v = block_violations(t)
        for i in np.flatnonzero(v.max(axis=(1, 2)) > tol):
            yield start + int(i), lambdas[i], v[i]
        start += len(t)


def all_detectable_of_weight(
    code: HybridCode,
    d: int,
    tol: float | None = None,
    max_counterexamples: int = 10,
) -> tuple[bool, list[DetectabilityReport]]:
    """Scan every weight-d basis error; collect the first failures.

    Enumeration order is the deterministic order of enumerate_weight, so
    the counterexample list is reproducible.  The scan runs through
    block_tensors and stops after the chunk in which the counterexample
    cap is reached; only the reported failures become PauliElements.
    """
    tol = linalg.ENTRY_TOL if tol is None else tol
    elements = error_basis.enumerate_weight(code.q, code.n, d)
    if len(elements) > SCAN_GUARD:
        raise GuardExceededError(
            f"weight class has {len(elements)} elements, guard is {SCAN_GUARD}"
        )
    xs, zs = elements.arrays()
    failures: list[DetectabilityReport] = []
    for row, lambdas, v in _failures(code, xs, zs, tol):
        err = PauliElement(code.q, code.n, xs[row], zs[row])
        failures.append(_report(err, lambdas, v, tol))
        if len(failures) >= max_counterexamples:
            break
    return (not failures), failures


def detectable_column(
    code: HybridCode, max_d: int, tol: float | None = None
) -> tuple[bool, ...]:
    """Entry d says whether every weight-d basis error is detectable at tol.

    One all_detectable_of_weight scan per weight d = 0..max_d, each
    stopping after the first chunk that holds a failure.
    """
    return tuple(all_detectable_of_weight(code, d, tol, max_counterexamples=1)[0]
                 for d in range(max_d + 1))


def is_correctable_set(
    code: HybridCode,
    errors: Sequence[PauliElement],
    tol: float | None = None,
) -> tuple[bool, tuple[PauliElement, PauliElement] | None]:
    """Whether the code corrects the given error set.

    The criterion is stated for sets containing the identity: every
    composed element adjoint(f) e over ordered pairs must be detectable.
    adjoint(f) e is the basis element with exponents e - f up to a phase
    (error_basis.compose_adjoint_left).  Each distinct one is tested
    once, in order of its first pair, in block_tensors chunks, stopping
    after the first chunk with a failure.  Returns the first failing
    pair (f, e) in input order as witness.
    """
    tol = linalg.ENTRY_TOL if tol is None else tol
    errors = list(errors)
    if not errors:
        raise ValueError("error set must be nonempty")
    if any((e.q, e.n) != (code.q, code.n) for e in errors):
        raise ValueError("element parameters do not match the code")
    q, n, count = code.q, code.n, len(errors)
    exps = np.array([e.xvec + e.zvec for e in errors], dtype=np.int64)
    # Row f * count + e holds the exponents of adjoint(f) e.
    composed = ((exps[None, :, :] - exps[:, None, :]) % q).reshape(-1, 2 * n)
    distinct, first = np.unique(composed, axis=0, return_index=True)
    order = np.argsort(first)
    distinct, first = distinct[order], first[order]
    for row, _, _ in _failures(code, distinct[:, :n], distinct[:, n:], tol):
        pair = int(first[row])
        return False, (errors[pair // count], errors[pair % count])
    return True, None


class DetectableDimensions(NamedTuple):
    hybrid: int
    quantum: int


def detectable_dimension_formula(n: int, k: int, m: int, q: int) -> DetectableDimensions:
    """Dimension of the space of detectable operators, in closed form.

    hybrid counts the detectable space of an ((n, K:M))_q code; quantum
    is the comparison value for a quantum-only code of the same size
    K*M.  The two differ by exactly M - 1.
    """
    if q < 2 or n < 1 or k < 1 or m < 1:
        raise ValueError("need q >= 2, n >= 1, K >= 1, M >= 1")
    if m * k > q**n:
        raise ValueError(f"M*K = {m * k} does not fit in dimension {q**n}")
    total = q ** (2 * n)
    return DetectableDimensions(total - (m * k) ** 2 + m, total - (m * k) ** 2 + 1)


def detectable_dimension_numeric(code: HybridCode, tol: float = 1e-8) -> int:
    """Dimension of the detectable operator space from a rank computation.

    The constraints on E (cross-block compressions vanish, within-block
    compressions are scalar) are linear in its q^(2n) entries.  Their
    rows come from the outer products conj(f_r) f_s of frame rows: every
    pair r != s, and within each block the differences of the diagonal
    products against the block's first row.  The complex rank of that
    system is subtracted from q^(2n).  Guarded to q^n <= 16.
    """
    dim = code.dimension
    if dim > NUMERIC_DIMENSION_GUARD:
        raise GuardExceededError(
            f"q^n = {dim} exceeds the numeric dimension guard ({NUMERIC_DIMENSION_GUARD})"
        )
    m, k = code.m, code.k
    v = code.frame_stack
    outer = (v.conj()[:, None, :, None] * v[None, :, None, :]).reshape(m * k, m * k, dim * dim)
    diag = outer[np.arange(m * k), np.arange(m * k)].reshape(m, k, dim * dim)
    rows = np.concatenate([outer[~np.eye(m * k, dtype=bool)],
                           (diag[:, :1] - diag[:, 1:]).reshape(-1, dim * dim)])
    if not len(rows):
        return dim * dim
    return dim * dim - linalg.numeric_rank(rows, tol)


@dataclass(frozen=True, eq=False)
class PositiveParts:
    """A detectable operator split into positive detectable pieces.

    recombine() returns sum(coefficient * operator), which reproduces
    the original operator.
    """

    operators: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    coefficients: tuple[complex, complex, complex, complex]

    def recombine(self) -> np.ndarray:
        out = np.zeros_like(self.operators[0])
        for c, op in zip(self.coefficients, self.operators):
            out = out + c * op
        return out


def operator_system_decompose(code: HybridCode, err, tol: float | None = None) -> PositiveParts:
    """Write a detectable operator as a combination of positive detectable ones.

    With A and B the Hermitian and anti-Hermitian parts, the pieces are
    ||A|| 1, ||A|| 1 - A, ||B|| 1, ||B|| 1 - B with coefficients
    (1, -1, i, -i).  Each piece is verified positive semidefinite and
    detectable.  Raises NotDetectableError when err is not detectable.
    """
    tol = linalg.ENTRY_TOL if tol is None else tol
    e_mat = error_basis.realize(err) if isinstance(err, PauliElement) else linalg.as_matrix(err)
    dim = code.dimension
    if e_mat.shape != (dim, dim):
        raise linalg.DimensionMismatchError(
            f"operator must be {dim} x {dim}, got {e_mat.shape}"
        )
    rep = detectability(code, e_mat, tol)
    if not rep.detectable:
        raise NotDetectableError(
            f"operator is not detectable (witness block pair {rep.witness})"
        )
    herm = (e_mat + e_mat.conj().T) / 2
    anti = 1j * (e_mat.conj().T - e_mat) / 2
    eye = np.eye(dim, dtype=complex)
    ops = []
    for part in (herm, anti):
        nrm = float(np.linalg.norm(part, 2))
        ops.extend((nrm * eye, nrm * eye - part))
    for idx, op in enumerate(ops):
        low = float(np.min(np.linalg.eigvalsh((op + op.conj().T) / 2)))
        if low < -tol * (1.0 + abs(low)):
            raise ArithmeticError(f"piece {idx} is not positive semidefinite ({low:.3e})")
        if not detectability(code, op, tol).detectable:
            raise ArithmeticError(f"piece {idx} is not detectable")
    return PositiveParts(tuple(ops), (1 + 0j, -1 + 0j, 1j, -1j))


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of the code measurement.

    label is the message index (1-based) or EPSILON_LABEL for the error
    outcome.  post_state is the normalized projection, or None when the
    probability is below 1e-15.
    """

    label: int | str
    probability: float
    post_state: np.ndarray | None


def measure(code: HybridCode, state, tol: float | None = None) -> list[MeasurementOutcome]:
    """Projective measurement of a unit state against the code blocks.

    Outcomes are ordered 1..M then the error label; their probabilities
    sum to one.
    """
    tol = linalg.ENTRY_TOL if tol is None else tol
    state = linalg.as_vector(state)
    dim = code.dimension
    if state.shape != (dim,):
        raise linalg.DimensionMismatchError(
            f"state must have {dim} entries, got {state.shape[0]}"
        )
    nrm = float(np.linalg.norm(state))
    if abs(nrm - 1.0) > max(tol, 1e-9):
        raise ValueError(f"state must be a unit vector, norm is {nrm!r}")
    outcomes: list[MeasurementOutcome] = []
    residual = state.copy()
    for m_idx, frame in enumerate(code.frames):
        amps = frame.conj() @ state
        prob = float(np.real(amps.conj() @ amps))
        proj = amps @ frame
        residual = residual - proj
        post = proj / np.sqrt(prob) if prob >= 1e-15 else None
        outcomes.append(MeasurementOutcome(m_idx + 1, prob, post))
    prob_eps = float(np.real(residual.conj() @ residual))
    post_eps = residual / np.sqrt(prob_eps) if prob_eps >= 1e-15 else None
    outcomes.append(MeasurementOutcome(EPSILON_LABEL, prob_eps, post_eps))
    return outcomes


@dataclass(frozen=True, eq=False)
class TransmissionTally:
    """Sampled outcome counts for one simulated transmission."""

    counts: dict[int | str, int]
    probabilities: dict[int | str, float]
    post_state_fidelity: float | None


def simulate_transmission(
    code: HybridCode,
    m: int,
    phi,
    err,
    trials: int,
    seed: int,
) -> TransmissionTally:
    """Encode message m with state phi, apply err, measure trials times.

    The counts are one multinomial draw from a generator seeded with
    seed, so the tally is deterministic and takes O(M) memory for any
    trial count below 2^63.  Outcome probabilities below 1e-15 are clamped to
    zero before sampling; for a detectable error this guarantees no
    wrong-message outcomes at all.  post_state_fidelity is the overlap
    of the message-m post state with the encoded state, when that
    outcome is possible.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials >= 2**63:
        # numpy's multinomial takes the count as a C long.
        raise ValueError("trials must be below 2^63")
    sent = encode(code, m, phi)
    if isinstance(err, PauliElement):
        received = error_basis.apply_to_state(err, sent)
    else:
        e_mat = linalg.as_matrix(err)
        dim = code.dimension
        if e_mat.shape != (dim, dim):
            raise linalg.DimensionMismatchError(
                f"operator must be {dim} x {dim}, got {e_mat.shape}"
            )
        received = e_mat @ sent
    nrm = float(np.linalg.norm(received))
    if nrm < 1e-12:
        raise ValueError("error operator annihilates the encoded state")
    outcomes = measure(code, received / nrm)
    probs = np.array([o.probability for o in outcomes])
    probs[probs < 1e-15] = 0.0
    probs = probs / probs.sum()
    hist = np.random.default_rng(seed).multinomial(trials, probs)
    counts = {o.label: int(c) for o, c in zip(outcomes, hist)}
    probabilities = {o.label: o.probability for o in outcomes}
    fid = None
    post_m = outcomes[m - 1].post_state
    if post_m is not None:
        fid = float(abs(np.vdot(sent, post_m)))
    return TransmissionTally(counts, probabilities, fid)
