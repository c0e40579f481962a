"""Detectability and correctability of errors, measurement, and the
dimension of the detectable operator space.

An operator E is detectable when every cross-block compression vanishes
and every within-block compression is a scalar: P_b E P_a equals
lambda_a [a = b] P_a.  All checks work on the K x K blocks of matrix
elements between frame vectors, so the q^n x q^n products are never
materialized.  Basis errors reach those blocks through one batched
kernel, block_tensors, which takes the errors as exponent arrays and
computes a fixed-size chunk of tensors at a time, each chunk one matrix
product of the gathered frames with the frame stack.  block_violations
turns its output into per-block violations and _verdict into the
(max_diag, max_off, witness) verdict that detectability, the weight
scan (and the column; both hold one scan_slices slice of a class at a
time) and the correctability test read.

The same questions take a StabilizerSpec, answered at any n from the
XOR of an element's d letter words (stabilizer_screen), with no frames or
dense rows: a failing element's verdict is read off its flip mask
(_flip_verdict), an element of <S, h> gets its exact phases from its
coefficients (_block_phases), enumerators counts its classes, and an
error set is correctable iff each of its syndrome classes on S lies in
one coset of <S, h> (_cosets).  Only a detectable element's answer lists
M block scalars, so only it meets STABILIZER_DIMENSION_GUARD.  The
kernel on from_stabilizer's frames is the tests' oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import error_basis, linalg
from .code_model import (CHUNK_ENTRIES, STABILIZER_DIMENSION_GUARD, HybridCode, StabilizerSpec,
                         bits_of, encode)
from .error_basis import PauliElement
from .linalg import GuardExceededError

EPSILON_LABEL = "epsilon"

# Largest q^n for which the numeric dimension check will assemble its
# linear system, which has q^(2n) columns.
NUMERIC_DIMENSION_GUARD = 16

# Largest number of basis elements one scan may enumerate: a weight class
# here, all weights up to max_weight in enumerators.compute_distributions,
# and there also the span of a stabilizer document's check rows.
SCAN_GUARD = 4**8

# OpenBLAS runs complex products of 2^16 or more multiply-adds on several
# threads; at chunk sizes that took 3.6x as long (72 us at (128, 64) x (64, 8))
# and varied with the load on a second core.  A chunk's product stays below
# it whenever one element's product does.
THREADED_PRODUCT = 2**16


class NotDetectableError(ValueError):
    """Raised when an operation requires a detectable operator."""


def _exponent_arrays(q: int, n: int, xs, zs) -> tuple[np.ndarray, np.ndarray]:
    """xs and zs as int64 arrays, checked to be (N, n) with entries in [0, q)."""
    xs = np.asarray(xs, dtype=np.int64)
    zs = np.asarray(zs, dtype=np.int64)
    if xs.ndim != 2 or xs.shape != zs.shape or xs.shape[1] != n:
        raise ValueError(f"exponent arrays must both have shape (N, {n})")
    if xs.size and (min(xs.min(), zs.min()) < 0 or max(xs.max(), zs.max()) >= q):
        raise ValueError(f"exponents must lie in [0, {q})")
    return xs, zs


def scan_slices(elements: error_basis.WeightedPauliSet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """elements.slices() as the kernel scans read them: CHUNK_ENTRIES // 2n rows, at least 1."""
    return elements.slices(max(1, CHUNK_ENTRIES // (2 * elements.n)))


def scan_supports(elements: error_basis.WeightedPauliSet) -> Iterator[np.ndarray]:
    """elements.supports() as the stabilizer scans read them: CHUNK_ENTRIES // 2 ceil(n / 64)."""
    return elements.supports(max(1, CHUNK_ENTRIES // (2 * -(-elements.n // 64))))


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
    xs, zs = _exponent_arrays(q, n, xs, zs)
    v = code.frame_stack
    vc = v.conj()
    m, k, dim = code.m, code.k, code.dimension
    mk = m * k
    step = max(1, CHUNK_ENTRIES // (mk * dim))
    if mk * mk * dim < THREADED_PRODUCT:
        step = min(step, (THREADED_PRODUCT - 1) // (mk * mk * dim))
    for start in range(0, len(xs), step):
        perm, phase = error_basis.permutation_actions(
            q, n, xs[start:start + step], zs[start:start + step])
        nb = len(perm)
        # gathered[r, b, j] = conj(v[r, perm[b, j]]) phase[b, j], so row
        # (r, b) of the product is <f_r| E_b |f_s> over s.
        gathered = np.take(vc, perm, axis=1)
        gathered *= phase
        t = gathered.reshape(mk * nb, dim) @ v.T
        yield t.reshape(mk, nb, mk).transpose(1, 0, 2).reshape(nb, m, k, m, k)


def _dense_operator(code: HybridCode, err) -> np.ndarray:
    """err as a complex matrix, refused unless it is q^n x q^n."""
    em = linalg.as_matrix(err)
    dim = code.dimension
    if em.shape != (dim, dim):
        raise linalg.DimensionMismatchError(f"operator must be {dim} x {dim}, got {em.shape}")
    return em


def error_block_tensor(code: HybridCode, err) -> np.ndarray:
    """Matrix elements <f_j^(b)| E |f_i^(a)> as an (M, K, M, K) array.

    Index order is [b, j, a, i]: bra block and row first.  err may be a
    PauliElement (a batch of one for block_tensors) or a dense matrix.
    """
    if isinstance(err, PauliElement):
        if (err.q, err.n) != (code.q, code.n):
            raise ValueError("element parameters do not match the code")
        return next(block_tensors(code, [err.xvec], [err.zvec]))[0]
    em = _dense_operator(code, err)
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
    a batch.  This is the one definition of detectability on frames, and
    the tests' reference for the stabilizer engine's verdicts.
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


def _cosets(spec: StabilizerSpec, beta: np.ndarray, owner, positions, pairs) -> np.ndarray:
    """e + beta R as (N, 2 ceil(n / 64)) packed words, naming the cosets of
    <S, h> of N elements e: beta (N, t) their coefficients on the check rows
    R, and pairs[k] on qubit positions[k] a letter of element owner[k]."""
    t, words = spec.check_rows.shape[::2]
    rows = spec.check_rows.reshape(t, 1, 2 * words)
    # Pair p has an x bit unless Z (0) and a z bit unless X (1); adding sets them.
    at = owner * 2 * words + positions // 64
    bit = np.uint64(1) << (positions % 64).astype(np.uint64)
    out = np.zeros((len(beta), 2 * words), dtype=np.uint64)
    np.add.at(out.ravel(), at, bit * (pairs != 0))
    np.add.at(out.ravel(), at + words, bit * (pairs != 1))
    step = max(1, CHUNK_ENTRIES // out.size)
    for k in range(0, len(rows), step):
        out ^= np.bitwise_xor.reduce(rows[k:k + step] * beta[:, k:k + step].T[:, :, None], axis=0)
    return out


def _block_phases(spec: StabilizerSpec, beta: np.ndarray) -> np.ndarray:
    """Block scalars, in {1, i, -1, -i}, of the element of <S, h> with coefficients beta.

    E = X^x Z^z = w prod_k H_k^(beta_k), H_k the rows' Hermitian strings
    i^(#Y) X^x Z^z; lambdas[a] is w times the signs of the H_k on block a."""
    r, chosen = spec.num_generators, beta == 1
    x, z = spec.check_rows[chosen].transpose(1, 0, 2)
    negative = np.array(spec.signs + spec.classical_signs)[chosen] < 0
    block_bits = np.arange(spec.m)[:, None] >> np.arange(spec.num_classical - 1, -1, -1) & 1
    # prod_k H_k^(beta_k) = i^t X^x Z^z, t mod 4 the Y letters plus twice the
    # passes of a Z part of an earlier row over the X part of a later one,
    # those of all earlier rows at once through the XOR of their Z parts.
    earlier = np.bitwise_xor.accumulate(z, axis=0) ^ z
    t = np.bitwise_count([x & z, earlier & x]).sum(axis=(1, 2), dtype=np.int64) @ [1, 2]
    u = 2 * np.count_nonzero(negative) - t
    return np.array([1, 1j, -1, -1j])[(u + 2 * (block_bits @ beta[r:].astype(np.int64))) % 4]


def _letters(errors: Sequence[PauliElement]) -> tuple[np.ndarray, ...]:
    """(owner, positions, pairs) of the letters of qubit elements, in order."""
    found = [(i, j, 2 * x + z - 1) for i, e in enumerate(errors)
             for j, (x, z) in enumerate(zip(e.xvec, e.zvec)) if x or z]
    return tuple(np.array(found, dtype=np.int64).reshape(-1, 3).T)


def stabilizer_screen(spec: StabilizerSpec, supports, letters) -> tuple:
    """Classify qubit errors by a stabilizer code's check rows.

    Row b A + a, A = len(letters), puts the pairs letters[a] on the qubits
    supports[b] (a WeightedPauliSet.supports slice and pair_letters, or one
    element); its bits are the XOR of d StabilizerSpec._letter_words
    columns at any n.  With S the generators, h the classical operators, E
    - anticommutes with a generator: it maps every block out of the code;
    - commutes with S and anticommutes with the h flagged in flips: it maps
      block a onto a ^ mask, mask the flags as a binary number, first most
      significant;
    - commutes with S and h but lies outside <S, h>: it acts on each
      block as a traceless logical;
    - lies in <S, h> up to phase: it acts on block a as _block_phases(beta)[a].
    Returns the rows commuting with S, their (len(rows), c) flags, whether
    each lies in <S, h> (_cosets, on rows commuting with h) and its beta.
    """
    r, t = spec.num_generators, len(spec.check_rows)
    words = np.bitwise_xor.reduce(
        spec._letter_words[:, 3 * supports.T[:, :, None] + letters.T[:, None, :]], axis=1)
    words = words.reshape(len(words), len(supports) * len(letters))
    mask = np.array([(1 << r) - 1 >> 64 * i & 2**64 - 1 for i in range(len(words))], np.uint64)
    rows = np.flatnonzero(~(words & mask[:, None]).any(axis=0))
    bits = bits_of(words[:, rows].T, 2 * t)
    flips, beta = bits[:, r:t], bits[:, t:]
    member = ~flips.any(axis=1)
    if member.any():
        b, a = np.divmod(rows[member], len(letters))
        member[member] = ~_cosets(spec, beta[member], np.arange(len(b))[:, None],
                                  supports[b], letters[a]).any(axis=1)
    return rows, flips, member, beta


# (max_diag, max_off, witness): the largest within-block and cross-block
# violations, and the first failing block pair (b, a), 1-based.
Verdict = tuple[float, float, tuple[int, int] | None]


def _verdict(v: np.ndarray, tol: float) -> Verdict:
    """The verdict on one operator at tol from its (M, M) block_violations v.

    The witness is the first (b, a), 1-based, with v[b, a] > tol when
    source blocks a are scanned in order and, within each, bra blocks b."""
    m = len(v)
    failing = v.T > tol
    first = int(failing.argmax())
    witness = (first % m + 1, first // m + 1) if failing.flat[first] else None
    return float(v.diagonal().max()), float(np.where(np.eye(m, dtype=bool), 0.0, v).max()), witness


def _flip_verdict(flipped: np.ndarray, tol: float) -> Verdict:
    """The verdict on an element commuting with S outside <S, h> with
    stabilizer_screen flags flipped: it maps block a onto a ^ mask, so its
    first violation, 1, is at (mask + 1, 1), on the diagonal iff mask = 0."""
    mask = int("0" + "".join(map(str, flipped.tolist())), 2)
    witness = (mask + 1, 1) if 1.0 > tol else None
    return (1.0, 0.0, witness) if mask == 0 else (0.0, 1.0, witness)


def _report(err, lambdas: np.ndarray | None, verdict: Verdict) -> DetectabilityReport:
    """The report on one operator: its verdict, and its block scalars when
    the verdict names no witness."""
    max_diag, max_off, witness = verdict
    return DetectabilityReport(
        error=err,
        detectable=witness is None,
        lambdas=tuple(lambdas.tolist()) if witness is None else None,
        max_diag_violation=max_diag,
        max_offdiag_violation=max_off,
        witness=witness,
    )


def detectability(
    code: HybridCode | StabilizerSpec, err, tol: float = linalg.ENTRY_TOL
) -> DetectabilityReport:
    """Decide whether the code detects err.

    err is a PauliElement or, for a HybridCode, also a dense matrix.  On
    a StabilizerSpec one stabilizer_screen result decides, and an err in
    <S, h> gets the _block_phases of the coefficients the screen found.
    The witness is the first failing block pair when source blocks a are
    scanned in order and, within each, bra blocks b.  tol must be a
    finite number >= 0.  A detectable err of a StabilizerSpec lists M
    block scalars, so it raises GuardExceededError past
    STABILIZER_DIMENSION_GUARD blocks.
    """
    linalg.check_tol(tol)
    if not isinstance(code, StabilizerSpec):
        lambdas, v = block_violations(error_block_tensor(code, err))
        return _report(err, lambdas, _verdict(v, tol))
    if not isinstance(err, PauliElement) or (err.q, err.n) != (code.q, code.n):
        raise ValueError("a stabilizer code takes qubit elements on its n qubits")
    _, support, letters = _letters([err])
    rows, flips, member, beta = stabilizer_screen(code, support[None], letters[None])
    inside = len(rows) and member[0]
    verdict = _flip_verdict(flips[0], tol) if len(rows) and not inside else (0.0, 0.0, None)
    if verdict[2] is not None:
        return _report(err, None, verdict)
    m = code.m
    if m > STABILIZER_DIMENSION_GUARD:
        raise GuardExceededError(
            f"M = {m} block scalars exceed the guard of {STABILIZER_DIMENSION_GUARD}")
    lambdas = _block_phases(code, beta[0]) if inside else np.zeros(m, dtype=complex)
    return _report(err, lambdas, verdict)


def _failures(code: HybridCode, xs, zs, tol: float) -> Iterator[tuple[int, Verdict]]:
    """(row, verdict) for each element of xs, zs not detectable at tol, in order,
    a block_tensors chunk at a time, each verdict _verdict of the row's violations."""
    start = 0
    for _, v in map(block_violations, block_tensors(code, xs, zs)):
        for i in np.flatnonzero(v.max(axis=(1, 2)) > tol):
            yield start + int(i), _verdict(v[i], tol)
        start += len(v)


def _screen_failures(spec: StabilizerSpec, elements: error_basis.WeightedPauliSet,
                     tol: float) -> Iterator[tuple[PauliElement, Verdict]]:
    """(element, verdict) of each failing element of a weight class, in order."""
    q, n, letters = spec.q, spec.n, error_basis.pair_letters(2, elements.d)
    for supports in scan_supports(elements) if 1.0 > tol else ():
        rows, flips, member, _ = stabilizer_screen(spec, supports, letters)
        for row, flipped in zip(rows[~member], flips[~member]):
            b, a = divmod(int(row), len(letters))
            x, z = np.zeros((2, n), dtype=np.int64)
            x[supports[b]], z[supports[b]] = np.divmod(letters[a] + 1, 2)
            yield PauliElement(q, n, x.tolist(), z.tolist()), _flip_verdict(flipped, tol)


def all_detectable_of_weight(
    code: HybridCode | StabilizerSpec,
    d: int,
    tol: float = linalg.ENTRY_TOL,
    max_counterexamples: int = 10,
) -> tuple[bool, list[DetectabilityReport]]:
    """Scan every weight-d basis error; collect the first failures.

    Enumeration order is the deterministic order of enumerate_weight, so
    the counterexample list is reproducible.  Each slice runs through
    block_tensors, or a StabilizerSpec's through stabilizer_screen, and the
    scan stops after the slice in which the cap is reached; only the
    reported failures become PauliElements.
    """
    if max_counterexamples < 1:
        raise ValueError(f"max_counterexamples must be at least 1, got {max_counterexamples}")
    elements = error_basis.enumerate_weight(code.q, code.n, d)
    if elements.count_up_to(SCAN_GUARD) > SCAN_GUARD:
        raise GuardExceededError(
            f"weight class has more than {SCAN_GUARD} elements, guard is {SCAN_GUARD}")
    linalg.check_tol(tol)
    found = (_screen_failures(code, elements, tol) if isinstance(code, StabilizerSpec) else
             ((PauliElement(code.q, code.n, xs[row], zs[row]), verdict) for xs, zs in
              scan_slices(elements) for row, verdict in _failures(code, xs, zs, tol)))
    failures: list[DetectabilityReport] = []
    for err, verdict in found:
        failures.append(_report(err, None, verdict))
        if len(failures) >= max_counterexamples:
            break
    return (not failures), failures


def detectable_column(
    code: HybridCode | StabilizerSpec, max_d: int, tol: float = linalg.ENTRY_TOL
) -> tuple[bool, ...]:
    """Entry d says whether every weight-d basis error is detectable at tol.

    One all_detectable_of_weight scan per weight d = 0..max_d, each
    stopping after the first chunk that holds a failure: a HybridCode's
    through the block kernel, a StabilizerSpec's through the commutation
    screen on its check rows.
    """
    return tuple(all_detectable_of_weight(code, d, tol, max_counterexamples=1)[0]
                 for d in range(max_d + 1))


def is_correctable_set(
    code: HybridCode | StabilizerSpec,
    errors: Sequence[PauliElement],
    tol: float = linalg.ENTRY_TOL,
) -> tuple[bool, tuple[PauliElement, PauliElement] | None]:
    """Whether the code corrects the given error set.

    The criterion is stated for sets containing the identity: every
    composed element adjoint(f) e over ordered pairs must be detectable;
    the witness is the failing pair (f, e) with the smallest index
    f |E| + e.  On a HybridCode adjoint(f) e is the basis element with
    exponents e - f (mod q) up to a phase, formed max(1, CHUNK_ENTRIES //
    |E|) rows f at a time in input order; each one not seen before is
    tested once, so memory grows with the distinct elements.  On a
    StabilizerSpec it fails, at tol < 1, exactly when f and e have the
    same syndrome on S and different _cosets of <S, h>, XORs of their
    letter words, so no pair is formed: f is the first class leader (an
    error first in its syndrome class) whose class leaves its coset, and
    e the first error of that class in another coset.
    """
    errors = list(errors)
    if not errors:
        raise ValueError("error set must be nonempty")
    if any((e.q, e.n) != (code.q, code.n) for e in errors):
        raise ValueError("element parameters do not match the code")
    linalg.check_tol(tol)
    q, n, count = code.q, code.n, len(errors)
    if isinstance(code, StabilizerSpec):
        owner, positions, pairs = _letters(errors)
        t, letters = len(code.check_rows), code._letter_words
        words = np.zeros((len(letters), count), dtype=np.uint64)
        np.bitwise_xor.at(words.T, owner, letters[:, 3 * positions + pairs].T)
        bits = bits_of(words.T, 2 * t)
        _, first, syndrome = np.unique(bits[:, :code.num_generators], axis=0,
                                       return_index=True, return_inverse=True)
        leader = first[syndrome.ravel()]
        cosets = _cosets(code, bits[:, t:], owner, positions, pairs)
        moved = (cosets != cosets[leader]).any(axis=1) & (1.0 > tol)
        if not moved.any():
            return True, None
        f = leader[moved].min()
        return False, (errors[f], errors[np.argmax(moved & (leader == f))])
    exps = np.array([e.xvec + e.zvec for e in errors], dtype=np.int64)
    # An element's key is its 2n exponents as the bytes of one opaque
    # value: unlike an integer index, it cannot overflow at any n.
    digit = np.min_scalar_type(q - 1)
    key = np.dtype((np.void, 2 * n * digit.itemsize))
    seen = np.empty(0, dtype=key)
    per_block = max(1, CHUNK_ENTRIES // count)
    # Pair f * count + e holds the exponents of adjoint(f) e.
    for f0 in range(0, count, per_block):
        composed = ((exps[None, :, :] - exps[f0:f0 + per_block, None, :]) % q).reshape(-1, 2 * n)
        codes, first = np.unique(composed.astype(digit).view(key).ravel(), return_index=True)
        new = ~np.isin(codes, seen, assume_unique=True)
        first = np.sort(first[new])
        for row, _ in _failures(code, composed[first, :n], composed[first, n:], tol):
            pair = f0 * count + int(first[row])
            return False, (errors[pair // count], errors[pair % count])
        seen = np.union1d(seen, codes[new])
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


def operator_system_decompose(
    code: HybridCode, err, tol: float = linalg.ENTRY_TOL
) -> PositiveParts:
    """Write a detectable operator as a combination of positive detectable ones.

    With A and B the Hermitian and anti-Hermitian parts, the pieces are
    ||A|| 1, ||A|| 1 - A, ||B|| 1, ||B|| 1 - B with coefficients
    (1, -1, i, -i).  Each piece is verified positive semidefinite and
    detectable.  Raises NotDetectableError when err is not detectable.
    """
    if isinstance(err, PauliElement):
        err = error_basis.realize(err)
    e_mat = _dense_operator(code, err)
    dim = code.dimension
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


def measure(code: HybridCode, state, tol: float = linalg.ENTRY_TOL) -> list[MeasurementOutcome]:
    """Projective measurement of a unit state against the code blocks.

    Outcomes are ordered 1..M then the error label; their probabilities
    sum to one.
    """
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
        received = _dense_operator(code, err) @ sent
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
