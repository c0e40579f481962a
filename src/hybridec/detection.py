"""Detectability and correctability of errors, measurement, and the
dimension of the detectable operator space.

An operator E is detectable when every cross-block compression vanishes
and every within-block compression is a scalar: P_b E P_a equals
lambda_a [a = b] P_a.  All checks work on the K x K blocks of matrix
elements between frame vectors, so the q^n x q^n products are never
materialized.  Basis errors reach those blocks through one batched
kernel, block_tensors; block_violations turns its output into per-block
violations and _verdict into the verdict on one operator.  scan is the
one walk over weight classes, in _shares of letter rows; _failing gives
a chunk's failing rows and verdicts to the scans and correctability.

The same questions take a StabilizerSpec, answered at any n from its
letter words (stabilizer_screen), with no frames or dense rows: a
failing element's verdict is read off its flip mask (_flip_verdict), an
element of <S, h> gets its exact phases (_block_phases), enumerators
counts its classes, an error set is correctable iff each of its syndrome
classes on S lies in one coset of <S, h> (_cosets), and a round trip is
settled from the screen's class and code_model.logical_action.  The
frame path on from_stabilizer's frames is the tests' oracle for all of
it.  Guards refuse through linalg.require_within: require_scan against
SCAN_GUARD, STABILIZER_DIMENSION_GUARD on M block scalars or outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import code_model, error_basis, linalg
from .code_model import STABILIZER_DIMENSION_GUARD, HybridCode, StabilizerSpec, _ints, bits_of, encode
from .error_basis import PauliElement

EPSILON_LABEL = "epsilon"

# Largest q^n for which the numeric dimension check will assemble its
# linear system, which has q^(2n) columns.
NUMERIC_DIMENSION_GUARD = 16

# Largest number of basis elements one scan may read, summed over its weight
# classes by require_scan; enumerators._group_counts caps a span by it too.
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


def _chunk_rows(code: HybridCode) -> int:
    """Elements a block_tensors chunk holds: CHUNK_ENTRIES gathered entries, and
    a product below THREADED_PRODUCT multiply-adds wherever one element's is."""
    mk, dim = code.m * code.k, code.dimension
    rows = max(1, code_model.CHUNK_ENTRIES // (mk * dim))
    return min(rows, (THREADED_PRODUCT - 1) // (mk * mk * dim) or rows)


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
    step = _chunk_rows(code)
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


def _require_elements(code: HybridCode | StabilizerSpec, errors: Iterable,
                      refusal: str = "element parameters do not match the code") -> None:
    """Refuse errors unless each is a PauliElement on the code's q and n."""
    if not all(isinstance(e, PauliElement) and (e.q, e.n) == (code.q, code.n) for e in errors):
        raise ValueError(refusal)


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
        _require_elements(code, [err])
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


def _cosets(spec: StabilizerSpec, beta: np.ndarray, letters: tuple) -> np.ndarray:
    """e + beta R as (N, 2 ceil(n / 64)) packed words, naming the cosets of
    <S, h> of N elements e: beta (N, t) their coefficients on the check rows
    R, and letters their flat (owner, letter) pairs, no empty letter among them."""
    t, words = spec.check_rows.shape[::2]
    rows = spec.check_rows.reshape(t, 2 * words)
    out = np.zeros((len(beta), 2 * words), dtype=np.uint64)
    owner, (qubit, x, z) = letters[0], error_basis.letter_exponents(2, letters[1])
    at = owner * 2 * words + qubit // 64
    bit = np.uint64(1) << (qubit % 64).astype(np.uint64)
    np.add.at(out.ravel(), at, bit * (x == 1))  # one letter a qubit, so adding sets the bits
    np.add.at(out.ravel(), at + words, bit * (z == 1))
    # Only the rows each beta selects are read, CHUNK_ENTRIES words at a time.
    owner, row = np.nonzero(beta)
    step = max(1, code_model.CHUNK_ENTRIES // (2 * words))
    for k in range(0, len(row), step):
        np.bitwise_xor.at(out, owner[k:k + step], rows[row[k:k + step]])
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


def _owned_letters(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, letter) of the nonzero pairs of (N, 2n) qubit exponent rows, in order."""
    n = exps.shape[1] // 2
    owner, qubit = np.nonzero(exps[:, :n] | exps[:, n:])
    return owner, error_basis.letter_of(2, qubit, exps[owner, qubit], exps[owner, n + qubit])


def stabilizer_screen(spec: StabilizerSpec, letters: np.ndarray) -> tuple:
    """Classify qubit errors, given as (N, D) letter rows, by a stabilizer code's check rows.

    A row's bits are the XOR of its D _letter_words columns, one pass a letter column.
    With S the generators, h the classical operators, E
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
    words = np.bitwise_xor.reduce(spec._letter_words.take(letters.T, axis=1), axis=1)
    mask = np.array([(1 << r) - 1 >> 64 * i & 2**64 - 1 for i in range(len(words))], np.uint64)
    rows = (~(words & mask[:, None]).any(axis=0)).nonzero()[0]
    bits = bits_of(words[:, rows].T, 2 * t)
    del words  # _cosets takes about as much again
    flips, beta = bits[:, r:t], bits[:, t:]
    member = ~flips.any(axis=1)
    if member.any():
        held = letters[rows[member]]
        owner, at = np.nonzero(held < error_basis.empty_letter(2, spec.n))
        member[member] = ~_cosets(spec, beta[member], (owner, held[owner, at])).any(axis=1)
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
    first violation, 1, is at (mask + 1, 1), on the diagonal iff mask = 0; the mask
    reads the flags as a binary number, the first most significant."""
    [mask] = _ints(flipped[None])
    witness = (mask + 1, 1) if 1.0 > tol else None
    return (1.0, 0.0, witness) if mask == 0 else (0.0, 1.0, witness)


def _screen_one(spec: StabilizerSpec, err) -> tuple:
    """stabilizer_screen on one qubit element err, refused unless it lies on spec's n qubits."""
    _require_elements(spec, [err], "a stabilizer code takes qubit elements on its n qubits")
    return stabilizer_screen(spec, _owned_letters(np.array([err.xvec + err.zvec]))[1][None])


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
    block scalars, so it is refused past STABILIZER_DIMENSION_GUARD blocks.
    """
    linalg.check_tol(tol)
    if not isinstance(code, StabilizerSpec):
        lambdas, v = block_violations(error_block_tensor(code, err))
        return _report(err, lambdas, _verdict(v, tol))
    rows, flips, member, beta = _screen_one(code, err)
    inside = len(rows) and member[0]
    verdict = _flip_verdict(flips[0], tol) if len(rows) and not inside else (0.0, 0.0, None)
    if verdict[2] is not None:
        return _report(err, None, verdict)
    m = code.m
    linalg.require_within(m, STABILIZER_DIMENSION_GUARD, f"M = {m} block scalars exceed "
                          f"the guard of {STABILIZER_DIMENSION_GUARD}")
    lambdas = _block_phases(code, beta[0]) if inside else np.zeros(m, dtype=complex)
    return _report(err, lambdas, verdict)


def require_scan(classes: Iterable[error_basis.WeightedPauliSet], what: str, hint="") -> None:
    """Refuse a scan of these weight classes past SCAN_GUARD elements in all;
    each class is counted only until the total passes the guard."""
    total = 0
    for elements in classes:
        total += elements.count_up_to(SCAN_GUARD)
        if total > SCAN_GUARD:
            break
    linalg.require_within(total, SCAN_GUARD, f"{what} more than {SCAN_GUARD} elements, "
                          f"guard is {SCAN_GUARD}{hint}")


def _shares(classes: list, budget: int, column: list) -> Iterator[np.ndarray]:
    """(N, D) letter arrays of at most budget rows of the classes d open until
    column[d] is False or they run out: each gets an equal share of what is left,
    the fewest left served first, and a share of several classes stacks their rows
    in that order, column-major, lighter rows padded with the empty letter."""
    parts, left = {d: e.rows() for d, e in enumerate(classes)}, [len(e) for e in classes]
    for part in parts.values():
        next(part)
    while live := sorted((d for d in parts if column[d] and left[d]), key=left.__getitem__):
        spare, share = budget, []
        for i, d in enumerate(live[:budget]):
            share.append(parts[d].send(max(1, spare // (len(live) - i))))
            left[d] -= len(share[-1])
            spare -= len(share[-1])
        if len(share) > 1:
            out = np.full((max(rows.shape[1] for rows in share), budget - spare),
                          error_basis.empty_letter(classes[0].q, classes[0].n)).T
            for rows, start in zip(share, itertools.accumulate(map(len, share), initial=0)):
                out[start:start + len(rows), :rows.shape[1]] = rows
            share = [out]
        yield share[0]


def scan(code: HybridCode | StabilizerSpec, classes: list, column: list | None = None,
         tol: float | None = None) -> Iterator[tuple[np.ndarray, tuple]]:
    """(letters, out) for each kernel chunk of the _shares of the classes d open while
    column[d] holds (all, without a column): the share's (N, D) letter rows and the
    kernel's output on them.  A StabilizerSpec screens a share of CHUNK_ENTRIES
    // 2 ceil(n / 64) rows in one stabilizer_screen call, and none when read for failures
    at tol >= 1 (its violations are 0 or 1).  A HybridCode makes a share of CHUNK_ENTRIES
    // 2n rows, or of one kernel chunk given a column (a failing class closes at once),
    exponent rows once; out is each block_tensors chunk of them and its first row."""
    spec = isinstance(code, StabilizerSpec)
    budget = (code_model.CHUNK_ENTRIES // (2 * -(-code.n // 64)) if spec else
              code_model.CHUNK_ENTRIES // (2 * code.n) if column is None else _chunk_rows(code))
    if spec and tol is not None and tol >= 1.0:
        return
    for letters in _shares(classes, max(1, budget), column or [True] * len(classes)):
        if spec:
            yield letters, stabilizer_screen(code, letters)
            continue
        first = 0
        for t in block_tensors(code, *error_basis.exponent_rows(code.q, code.n, letters)):
            yield letters, (t, first)
            first += len(t)


def _failing(code: HybridCode | StabilizerSpec, out: tuple, tol: float) -> tuple:
    """The rows of a kernel output out (as scan yields it) not detectable at tol, in
    order, and an iterator of their verdicts: a StabilizerSpec's read off the screen's
    flags (_flip_verdict), a HybridCode's the _verdict of a row's block_violations."""
    if isinstance(code, StabilizerSpec):
        rows, flips, member, _ = out
        return rows[~member], (_flip_verdict(flipped, tol) for flipped in flips[~member])
    t, first = out
    _, v = block_violations(t)
    failing = np.flatnonzero(v.max(axis=(1, 2)) > tol)
    return first + failing, (_verdict(v[i], tol) for i in failing)


def all_detectable_of_weight(
    code: HybridCode | StabilizerSpec,
    d: int,
    tol: float = linalg.ENTRY_TOL,
    max_counterexamples: int = 10,
) -> tuple[bool, list[DetectabilityReport]]:
    """Scan every weight-d basis error; collect the first failures.

    Enumeration order is the deterministic order of enumerate_weight, so
    the counterexample list is reproducible.  The class is read through
    scan, and the walk stops after the kernel chunk in which the cap is
    reached; only the reported failures become PauliElements, each chunk's
    through one exponent_rows call.
    """
    if max_counterexamples < 1:
        raise ValueError(f"max_counterexamples must be at least 1, got {max_counterexamples}")
    elements = error_basis.enumerate_weight(code.q, code.n, d)
    require_scan([elements], "weight class has")
    linalg.check_tol(tol)
    failures: list[DetectabilityReport] = []
    for letters, out in scan(code, [elements], tol=tol):
        rows, verdicts = _failing(code, out, tol)
        if len(rows):
            xs, zs = error_basis.exponent_rows(
                code.q, code.n, letters[rows[:max_counterexamples - len(failures)]]).tolist()
            failures += [_report(PauliElement(code.q, code.n, x, z), None, verdict)
                         for x, z, verdict in zip(xs, zs, verdicts)]
        if len(failures) >= max_counterexamples:
            return False, failures
    return (not failures), failures


def detectable_column(
    code: HybridCode | StabilizerSpec, max_d: int, tol: float = linalg.ENTRY_TOL
) -> tuple[bool, ...]:
    """Entry d says whether every weight-d basis error is detectable at tol.

    The classes d = 0..max_d, each guarded as all_detectable_of_weight does,
    are read through scan with this column: a class is False at its first
    failing element, and True once it runs out.
    """
    linalg.check_tol(tol)
    classes = [error_basis.enumerate_weight(code.q, code.n, d) for d in range(max_d + 1)]
    for elements in classes:
        require_scan([elements], "weight class has")
    column = [True] * len(classes)
    for letters, out in scan(code, classes, column, tol):
        for d in error_basis.letter_weights(code.q, code.n, letters[_failing(code, out, tol)[0]]):
            column[d] = False
    return tuple(column)


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
    same syndrome on S and different _cosets of <S, h>, so no pair is
    formed: f is the first class leader (an error first in its syndrome
    class) whose class leaves its coset, and e the first error of that
    class in another coset.
    """
    errors = list(errors)
    if not errors:
        raise ValueError("error set must be nonempty")
    _require_elements(code, errors)
    linalg.check_tol(tol)
    q, n, count = code.q, code.n, len(errors)
    spec = isinstance(code, StabilizerSpec)
    # A qubit's exponents take a byte each; the frame path subtracts them mod q, in int64.
    exps = np.fromiter(itertools.chain.from_iterable(v for e in errors for v in (e.xvec, e.zvec)),
                       np.uint8 if spec else np.int64, 2 * n * count).reshape(count, 2 * n)
    if spec:
        (owner, letters), t = _owned_letters(exps), len(code.check_rows)
        del exps  # bits_of takes about as much again
        words = np.zeros((len(code._letter_words), count), dtype=np.uint64)
        np.bitwise_xor.at(words.T, owner, code._letter_words[:, letters].T)
        bits = bits_of(words.T, 2 * t)
        _, first, syndrome = np.unique(bits[:, :code.num_generators], axis=0,
                                       return_index=True, return_inverse=True)
        leader = first[syndrome.ravel()]
        cosets = _cosets(code, bits[:, t:], (owner, letters))
        moved = (cosets != cosets[leader]).any(axis=1) & (1.0 > tol)
        if not moved.any():
            return True, None
        f = leader[moved].min()
        return False, (errors[f], errors[np.argmax(moved & (leader == f))])
    # An element's key is its 2n exponents as the bytes of one opaque
    # value: unlike an integer index, it cannot overflow at any n.
    digit = np.min_scalar_type(q - 1)
    key = np.dtype((np.void, 2 * n * digit.itemsize))
    seen = np.empty(0, dtype=key)
    per_block = max(1, code_model.CHUNK_ENTRIES // count)
    # Pair f * count + e holds the exponents of adjoint(f) e.
    for f0 in range(0, count, per_block):
        composed = ((exps[None, :, :] - exps[f0:f0 + per_block, None, :]) % q).reshape(-1, 2 * n)
        codes, first = np.unique(composed.astype(digit).view(key).ravel(), return_index=True)
        new = ~np.isin(codes, seen, assume_unique=True)
        first = np.sort(first[new])
        start = 0  # the row of composed[first] each chunk starts at
        for t in block_tensors(code, composed[first, :n], composed[first, n:]):
            if len(rows := _failing(code, (t, start), tol)[0]):
                pair = f0 * count + int(first[rows[0]])
                return False, (errors[pair // count], errors[pair % count])
            start += len(t)
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


def detectable_dimension_numeric(code: HybridCode | StabilizerSpec, tol: float = 1e-8) -> int:
    """Dimension of the detectable operator space from a rank computation.

    The constraints on E (cross-block compressions vanish, within-block
    compressions are scalar) are linear in its q^(2n) entries.  Their
    rows come from the outer products conj(f_r) f_s of frame rows: every
    pair r != s, and within each block the differences of the diagonal
    products against the block's first row.  The complex rank of that
    system is subtracted from q^(2n).  Guarded to q^n <= 16; a
    StabilizerSpec's q^n = 2^n is priced by n, and only within the guard
    are its frames built (code_model.from_stabilizer).
    """
    if isinstance(code, StabilizerSpec):
        linalg.require_within(code.n, NUMERIC_DIMENSION_GUARD.bit_length() - 1,
                              f"q^n = 2^{code.n} exceeds the numeric dimension guard "
                              f"({NUMERIC_DIMENSION_GUARD})")
        code = code_model.from_stabilizer(code)
    dim = code.dimension
    linalg.require_within(dim, NUMERIC_DIMENSION_GUARD, f"q^n = {dim} exceeds the numeric "
                          f"dimension guard ({NUMERIC_DIMENSION_GUARD})")
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
        _require_elements(code, [err])
        perm, phase = error_basis.permutation_action(err)
        err = np.diag(phase)[np.argsort(perm)]  # column j holds phase[j] at row perm[j]
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


def _stabilizer_round_trip(spec: StabilizerSpec, m: int, phi, err) -> tuple:
    """The M + 1 outcome probabilities and the post-state fidelity of one round
    trip on a StabilizerSpec, from the stabilizer_screen class of err, each
    probability exactly 0 or 1: err anticommuting with S leaves the code; one
    flipping the h of mask moves block m - 1 onto (m - 1) ^ mask; any other
    acts on block m - 1 as code_model.logical_action, read on phi's support
    only.  The M outcomes are refused past STABILIZER_DIMENSION_GUARD."""
    c = spec.num_classical
    linalg.require_within(c, STABILIZER_DIMENSION_GUARD.bit_length() - 1, f"M = 2^{c} outcome "
                          f"counts exceed the guard of {STABILIZER_DIMENSION_GUARD}")
    phi = code_model.block_state(spec, m, phi)
    rows, flips, _, _ = _screen_one(spec, err)
    probs, fid = np.zeros(spec.m + 1), None
    if not len(rows):
        probs[-1] = 1.0
        return probs, fid
    [mask] = _ints(flips[:1])
    probs[(m - 1) ^ mask] = 1.0
    if not mask:
        kappa, mu = code_model.logical_action(spec, err)
        support = np.flatnonzero(phi)
        signs = 1 - 2 * (np.bitwise_count(support & mu) & 1).astype(np.int64)
        overlap = np.vdot(phi[support ^ kappa], signs * phi[support])
        fid = float(abs(overlap) / np.linalg.norm(phi[support]))
    return probs, fid


def simulate_transmission(
    code: HybridCode | StabilizerSpec,
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
    outcome is possible.  On a HybridCode the probabilities are those of
    measure; a StabilizerSpec's are exact (_stabilizer_round_trip), and its
    err must be a qubit element.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials >= 2**63:
        # numpy's multinomial takes the count as a C long.
        raise ValueError("trials must be below 2^63")
    if isinstance(code, StabilizerSpec):
        probs, fid = _stabilizer_round_trip(code, m, phi, err)
    else:
        sent = encode(code, m, phi)
        if isinstance(err, PauliElement):
            _require_elements(code, [err])
            received = error_basis.apply_to_state(err, sent)
        else:
            received = _dense_operator(code, err) @ sent
        nrm = float(np.linalg.norm(received))
        if nrm < 1e-12:
            raise ValueError("error operator annihilates the encoded state")
        outcomes = measure(code, received / nrm)
        probs = np.array([o.probability for o in outcomes])
        post_m = outcomes[m - 1].post_state
        fid = None if post_m is None else float(abs(np.vdot(sent, post_m)))
    labels = [*range(1, code.m + 1), EPSILON_LABEL]
    probabilities = dict(zip(labels, probs.tolist()))
    probs[probs < 1e-15] = 0.0
    hist = np.random.default_rng(seed).multinomial(trials, probs / probs.sum())
    return TransmissionTally(dict(zip(labels, hist.tolist())), probabilities, fid)
