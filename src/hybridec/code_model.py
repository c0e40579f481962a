"""Hybrid code objects and their file format.

A code with parameters ((n, K:M))_q is stored as one (M, K, q^n) array
of frames: block a is an orthonormal frame of K vectors in the q^n
dimensional space.  Blocks are mutually orthogonal subspaces; block m
carries classical message m (1-based) together with a K dimensional
quantum state.  The module also builds codes from qubit stabilizer data
and reads and writes the JSON document format used by the command line
tools.  Stabilizer operators are read through error_basis' letter tables,
and _ints is the one conversion of a row of bits to a GF(2) integer.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import error_basis, linalg

# Largest ambient dimension 2^n for which from_stabilizer builds frames.
# Its working memory is one array of 2^n entries per operator, but the
# (M, K, 2^n) frames it returns, and the constructor's copy of them, take
# 16 M K 2^n bytes each: up to 64 MiB at the guard, for a code with no
# generators.  It also bounds the arrays of M entries a stabilizer
# document's answers list (detect's block scalars, simulate's outcome
# counts) and simulate's block state of K entries.
STABILIZER_DIMENSION_GUARD = 2**11

# error_basis' letter tables read as one array: byte c's X bit at [0, c], its Z bit at [1, c].
_BITS_OF_BYTE = np.frombuffer(error_basis.QUBIT_X + error_basis.QUBIT_Z, np.uint8).reshape(2, 256)
# The error_basis letters of Z, X and Y on qubit 0.
_Z, _X, _Y = (error_basis.letter_of(2, 0, x, z) for x, z in ((0, 1), (1, 0), (1, 1)))

# Complex entries of the gathered frames per detection.block_tensors chunk, of one weight class or
# several: max(1, CHUNK_ENTRIES // (M K q^n)) elements.  The trace DFT of enumerators takes as many
# shifts, and each other batched step about as many entries: a detection.scan share of letter rows
# (sized in its docstring), a partial-trace stack's frames, their conjugate and product together, a
# block of is_correctable_set pairs on frames.  compute_distributions on the Steane hybrid code's
# frames peaks at 0.7 MB of traced allocations with 2^13 entries and at 1.7 MB with 2^20.
CHUNK_ENTRIES = 2**13


class CodeFileError(ValueError):
    """Base class for problems with a code document or its contents."""


class MalformedDocumentError(CodeFileError):
    """The document is not structurally a code description."""


class DimensionError(CodeFileError):
    """Declared and actual dimensions disagree."""


class InvariantError(CodeFileError):
    """The description violates a structural requirement of the model."""


def _check_squared_norm(frames: np.ndarray) -> None:
    """Refuse frames whose sum of squared moduli is not finite.

    That sum bounds every Gram entry, so the products validate, the
    strict parse and the detection kernels form stay finite.  einsum sums
    the squares of a float view of the C-ordered frames: no BLAS call, no
    temporary, and inf without a warning on overflow.
    """
    f = frames.view(float).ravel()
    if not np.isfinite(np.einsum("i,i->", f, f)):
        raise InvariantError("frame entries and their squared norm must be finite")


@dataclass(frozen=True, eq=False)
class HybridCode:
    """M mutually orthogonal K dimensional blocks in the q^n space.

    frames is an (M, K, q^n) complex array, held once and read-only:
    frames[a] holds the K orthonormal rows of block a.
    """

    q: int
    n: int
    frames: np.ndarray

    def __post_init__(self):
        if self.q < 2:
            raise InvariantError("q must be at least 2")
        if self.n < 1:
            raise InvariantError("n must be at least 1")
        try:
            frames = np.array(self.frames, dtype=complex, order="C")
        except ValueError:
            raise DimensionError("frames must be a regular (M, K, q^n) array") from None
        if frames.ndim != 3 or 0 in frames.shape:
            raise DimensionError(f"frames must be a nonempty (M, K, q^n) array, "
                                 f"got {frames.shape}")
        m, k, dim = frames.shape
        # q^n >= 2^n > dim once n reaches dim's bit length; q^n is not formed then.
        if self.n >= dim.bit_length() or dim != self.q**self.n:
            raise DimensionError(f"frames live in dimension {dim}, expected {self.q}^{self.n}")
        if m * k > dim:
            raise InvariantError(
                f"M*K = {m * k} orthonormal vectors cannot fit in dimension {dim}"
            )
        _check_squared_norm(frames)
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def k(self) -> int:
        """Quantum dimension carried by each block."""
        return self.frames.shape[1]

    @property
    def m(self) -> int:
        """Number of classical messages."""
        return self.frames.shape[0]

    @property
    def dimension(self) -> int:
        return self.frames.shape[2]

    @property
    def frame_stack(self) -> np.ndarray:
        """All M*K frame rows in block order: a read-only view of frames."""
        return self.frames.reshape(-1, self.dimension)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    where: tuple[int, ...]
    magnitude: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    tol: float
    max_gram_deviation: float
    max_cross_overlap: float
    issues: tuple[ValidationIssue, ...]


def _pair_deviations(stack: np.ndarray, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram of an (M K, dim) frame stack and its distance from orthonormal.

    Returns the Gram G[r, s] = <f_s|f_r> and the (M, M) matrix whose
    entry (a, b) is the largest |G - 1| over the rows of block a and the
    columns of block b.  The Gram has (M K)^2 <= M K q^n entries, so it
    is never larger than the frames.
    """
    gram = stack @ stack.conj().T
    dev = np.abs(gram - np.eye(m * k)).reshape(m, k, m, k).max(axis=(1, 3))
    return gram, dev


def validate(code: HybridCode | StabilizerSpec, tol: float = linalg.ENTRY_TOL) -> ValidationReport:
    """Check frame orthonormality within and across blocks.

    Structural requirements (matching dimensions, M*K <= q^n) are already
    enforced by the constructors; this reports the numeric ones, from one
    Gram of the frame stack.  A StabilizerSpec is valid by construction:
    commuting, independent rows with signs +-1 fix mutually orthogonal
    blocks of dimension exactly K, so its deviations are exactly 0 at any tol.
    """
    if isinstance(code, StabilizerSpec):
        return ValidationReport(True, tol, 0.0, 0.0, ())
    _, dev = _pair_deviations(code.frame_stack, code.m, code.k)
    failing = ~(dev <= tol)
    issues = []
    for a in np.flatnonzero(failing.diagonal()).tolist():
        mag = float(dev[a, a])
        issues.append(ValidationIssue(
            "block_gram", (a + 1,), mag,
            f"block {a + 1} frame deviates from orthonormal by {mag:.3e}"))
    for a, b in np.argwhere(np.triu(failing, 1)).tolist():
        mag = float(dev[a, b])
        issues.append(ValidationIssue(
            "cross_overlap", (a + 1, b + 1), mag,
            f"blocks {a + 1} and {b + 1} overlap by {mag:.3e}"))
    return ValidationReport(not issues, tol, float(dev.diagonal().max()),
                            float(np.triu(dev, 1).max()), tuple(issues))


def _fold_signs(ops, signs, ops_name: str, signs_name: str) -> tuple[list[str], list[int]]:
    """ops upper-cased with one leading + or - each folded into signs, all +1 when empty."""
    signs = list(signs) if signs else [1] * len(ops)
    if len(signs) != len(ops):
        raise InvariantError(f"{signs_name} must match {ops_name} one for one")
    bodies = []
    for i, op in enumerate(ops):
        body = op.strip()
        signs[i] *= -1 if body.startswith("-") else 1
        bodies.append((body[1:] if body.startswith(("+", "-")) else body).upper())
    return bodies, signs


def _gf2_basis(vectors: list[int]) -> dict[int, int]:
    """The reduced echelon basis of the GF(2) span of bit vectors held as
    integers, as {leading bit: vector}, highest key first: each leading bit
    (pivot) is clear in the other vectors, and the number of keys is the rank."""
    basis: dict[int, int] = {}
    for a in vectors:
        while a and (b := basis.get(p := a.bit_length() - 1)):
            a ^= b
        if a:
            basis[p] = a
    # Clear each vector's lower pivots, lowest first, so every vector XORed in is reduced.
    below = 0
    for p in sorted(basis):
        held = basis[p] & below
        while held:
            basis[p] ^= basis[(held & -held).bit_length() - 1]
            held &= held - 1
        below |= 1 << p
    return dict(sorted(basis.items(), reverse=True))


def bits_of(words: np.ndarray, count: int) -> np.ndarray:
    """The first count bits of (..., w) uint64 words, bit i at bit i % 64 of
    word i // 64, as (..., count) 0s and 1s."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count, bitorder="little")


@dataclass(frozen=True)
class StabilizerSpec:
    """Qubit stabilizer data for building a hybrid code.

    generators fix the ambient stabilized space; classical_ops split it
    into 2^c message blocks, one per choice of signs.  A leading + or -
    on any operator string is folded into the sign fields.  All listed
    operators must commute pairwise and be independent.

    The constructor sets, read-only, check_rows, the GF(2) rows of the
    generators, then of the classical operators, signs dropped, as
    (t, 2, ceil(n / 64)) bits_of words, t = r + c: row i's X half, then
    its Z half, qubit j at bit j, and _letter_words, ceil(2t / 64) words
    for each error_basis letter: the rows it anticommutes with and its
    coefficients on them, zero for the empty letter.
    """

    n: int
    generators: tuple[str, ...]
    classical_ops: tuple[str, ...] = ()
    signs: tuple[int, ...] = ()
    classical_signs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InvariantError("n must be at least 1")
        gens, gsigns = _fold_signs(self.generators, self.signs, "generators", "signs")
        cls, csigns = _fold_signs(self.classical_ops, self.classical_signs,
                                  "classical_ops", "classical_signs")
        if not all(s in (1, -1) for s in gsigns + csigns):
            raise InvariantError("signs must be +1 or -1")
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "classical_ops", tuple(cls))
        object.__setattr__(self, "signs", tuple(gsigns))
        object.__setattr__(self, "classical_signs", tuple(csigns))
        n, r = self.n, len(gens)
        names = self.generators + self.classical_ops
        total = len(names)
        # The rows before the first of the wrong length, one byte a letter.
        short = next((i for i, body in enumerate(names) if len(body) != n), total)
        text = np.frombuffer("".join(names[:short]).encode("ascii", "replace"), np.uint8)
        text, fault, vectors = text.reshape(short, n), short, []
        # letters[w, j, _Z] is word w of Z on qubit j, which flags the rows with X at j, and X those
        # with Z: a row's (X, Z) bit sets the (Z, X) letter and reads the other.  Blocks b of 64
        # rows, the last first, set word b, then XOR their rows' letters from word b on: the flags
        # are symmetric, clear at i, and the first in row-major order is the first clash.
        width = -(-2 * total // 64)
        rows = np.zeros((short, 2, 8 * -(-n // 64)), dtype=np.uint8)
        letter_words = np.zeros((width, error_basis.empty_letter(2, n) + 1), dtype=np.uint64)
        letters = letter_words[:, :-1].reshape(width, n, error_basis.empty_letter(2, 1))
        setting = letters[..., _Z::_X - _Z][..., :2]
        reading = setting[..., ::-1]
        flags = np.zeros((-(-short // 64), short), dtype=np.uint64)
        for b in reversed(range(len(flags))):
            block = _BITS_OF_BYTE.take(text[64 * b:64 * b + 64], 1)
            if block.max() > 1:
                fault = 64 * b + int(np.argmax(block.max(axis=(0, 2)) > 1))
                continue
            rows[64 * b:64 * b + 64, :, :-(-n // 8)] = np.packbits(
                block, -1, bitorder="little").transpose(1, 0, 2)
            vectors += [v << total | 1 << i for i, v in enumerate(
                _ints(block.transpose(1, 0, 2).reshape(-1, 2 * n)), 64 * b)]
            p, owner, qubit = np.unravel_index(np.flatnonzero(block.view(bool)), block.shape)
            np.bitwise_or.at(setting[b], (qubit, p), (1 << owner).view(np.uint64))
            for w in range(b, len(flags)):
                np.bitwise_xor.at(flags[w, 64 * b:64 * b + 64], owner, reading[w, qubit, p])
        if fault < total:
            raise InvariantError(f"operator {names[fault]!r} " + ("uses letters outside I, X, Y, Z"
                                 if fault < short else f"does not have {n} letters"))
        if flags.any():
            i, j = divmod(np.argmax(bits_of(flags.T, total)), total)
            raise InvariantError(f"operators {names[i]!r} and {names[j]!r} do not commute")
        # One reduced echelon basis of the rows, row i tagged at bit i below its
        # X then Z half, n bits each, qubit 0 highest: a pivot below bit r + c is
        # a dependency among the rows, one below bit r among the generators.  A
        # span element sums the basis vectors at its pivots, so a one-bit row's
        # coefficients are the tag of the one pivoting there: X on qubit j at bit
        # t + 2n - 1 - j, Z at t + n - 1 - j, so pivot p is on qubit (t + n - 1 - p) mod n.
        basis = _gf2_basis(vectors)
        if (low := min(basis, default=total)) < r:
            raise InvariantError("generators are dependent")
        if low < total:
            raise InvariantError("classical_ops are dependent modulo the generators")
        tags = [(b % (1 << total) << total).to_bytes(8 * width, "little") for b in basis.values()]
        x = total + n
        at = [error_basis.letter_of(2, (x - 1 - p) % n, p >= x, p < x) for p in basis]
        np.bitwise_or.at(letter_words.T, at,
                         np.frombuffer(b"".join(tags), "<u8").reshape(len(basis), width))
        np.bitwise_xor(letters[..., _Z], letters[..., _X], out=letters[..., _Y])
        rows = rows.view("<u8").astype(np.uint64, copy=False)
        for name, table in (("check_rows", rows), ("_letter_words", letter_words)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def num_classical(self) -> int:
        return len(self.classical_ops)

    @property
    def q(self) -> int:
        return 2

    @property
    def k(self) -> int:
        """Quantum dimension of each block, 2^(n - r - c)."""
        return 2 ** (self.n - self.num_generators - self.num_classical)

    @property
    def m(self) -> int:
        """Number of blocks, 2^c."""
        return 2**self.num_classical


def _coset_layout(x_parts: list[int], n: int) -> tuple[np.ndarray, list[int]]:
    """Cosets of the GF(2) span V of the X parts, as one (2^(n-t), 2^t) index grid.

    x_parts are the X parts as n-bit integers, qubit 0 most significant.
    Row c of the grid is the coset reps[c] ^ V, where the reps are the
    indices with every pivot of V's t-vector _gf2_basis clear, ascending,
    so reps[c] is the smallest index of its coset; column i is offset by
    the XOR of the j-th basis vector over the set bits j of i, so column 0
    holds the reps.  Returns the grid and each X part's coordinates in the
    basis as a column index.
    """
    basis = _gf2_basis(x_parts)
    reps = np.flatnonzero((np.arange(2**n, dtype=np.int64) & sum(1 << p for p in basis)) == 0)
    offsets = np.zeros(1, dtype=np.int64)
    for b in basis.values():
        offsets = np.concatenate([offsets, offsets ^ b])
    coords = [sum(1 << j for j, p in enumerate(basis) if a >> p & 1) for a in x_parts]
    return reps[:, None] ^ offsets[None, :], coords


def _ints(bits: np.ndarray) -> list[int]:
    """(N, w) rows of 0s and 1s as integers, column 0 most significant, each sliced
    from one bytes of the packed rows: the one conversion of a bit row to an integer."""
    # Rows of no bits step through no bytes, each reading as 0.
    size, pad = -(-bits.shape[-1] // 8) or 1, -bits.shape[-1] % 8
    packed = np.packbits(bits, -1).tobytes()
    return [int.from_bytes(packed[j:j + size], "big") >> pad
            for j in range(0, size * len(bits), size)]


def logical_action(spec: StabilizerSpec, err: error_basis.PauliElement) -> tuple[int, int]:
    """How a qubit error commuting with every check row acts on each block's
    frame as from_stabilizer orders it: up to one phase common to all i,
    it maps frame vector i to (-1)^popcount(i & mu) times vector i ^ kappa.

    Indices are n-bit integers, qubit 0 most significant, and <S, h> is
    the signed group of the check rows.  Frame vector i of block a is the
    coset state on y_i, the i-th smallest coset representative (no pivot of
    V, the span of the X parts, set) that the block projector P_a keeps.  The
    kept y_i are y_0 ^ D, D the y with no pivot of V set that are orthogonal
    to the Z part of each element of <S, h> with no X part, whose signs fix
    y_0.  With y_0 clear at the pivots of D's reduced echelon basis, y_i is
    y_0 ^ the XOR of that basis over the set bits of i, the lowest pivot at
    bit 0, so it ascends with i.  err times an element of <S, h>, a phase
    on P_a, reduces to X^x Z^z with x in D: it maps y_i to y_i ^ x and
    multiplies by (-1)^(z . y_i).  kappa and mu read x and z on D's basis.
    """
    n = spec.n
    rows = _gf2_basis(_ints(bits_of(spec.check_rows, n).reshape(-1, 2 * n)))
    [e] = _ints(np.array([err.xvec + err.zvec], dtype=np.uint8))
    for p, b in rows.items():  # XORing b changes no other pivot bit of e
        if e >> p & 1:
            e ^= b
    pivots = sum(1 << p - n for p in rows if p >= n)
    zs = _gf2_basis([b & ~pivots for p, b in rows.items() if p < n])
    fixed = pivots | sum(1 << p for p in zs)
    dirs = _gf2_basis([1 << f | sum(1 << p for p, w in zs.items() if w >> f & 1)
                       for f in range(n) if not fixed >> f & 1])
    kappa = mu = 0
    for j, p in enumerate(sorted(dirs)):
        kappa |= (e >> n + p & 1) << j
        mu |= ((e & dirs[p]).bit_count() & 1) << j
    return kappa, mu


def from_stabilizer(spec: StabilizerSpec) -> HybridCode:
    """Build the hybrid code a stabilizer description defines.

    The blocks are indexed by the sign vector on the classical operators
    in binary order, +1 reading as bit 0 and the first operator as the
    most significant bit.  Block a is the range of the product P_a of
    the (1 + sign * operator)/2 factors.  Column x of P_a is 0 or a
    coset state on x ^ V, V the span of the operators' X parts, and the
    columns on one coset are parallel; so only the column of each
    coset's smallest index is built, on its own coset, and the factors
    act on it as an offset permutation with phases.  That takes
    O(2^n (r + c)) working memory besides the frames, for r generators
    and c classical operators.  Raises GuardExceededError, before
    allocating anything, when 2^n exceeds STABILIZER_DIMENSION_GUARD.
    """
    n = spec.n
    linalg.require_within(n, STABILIZER_DIMENSION_GUARD.bit_length() - 1,
                          f"stabilizer code on {n} qubits needs frames in dimension 2^{n}; "
                          f"guard is {STABILIZER_DIMENSION_GUARD}")
    r, c, k = spec.num_generators, spec.num_classical, spec.k
    xs, zs = bits_of(spec.check_rows, n).transpose(1, 0, 2)
    grid, coords = _coset_layout(_ints(xs), n)
    width = np.arange(grid.shape[1])
    _, phases = error_basis.permutation_actions(2, n, xs, zs)
    # permutation_actions realizes X^x Z^z; the Hermitian string is i^(#Y) times it.
    phases *= np.array([1, 1j, -1, -1j])[(xs * zs).sum(axis=1) % 4, None]

    def factor(cols, j, sign):
        # cols[c, i] is the entry in row grid[c, i] of a vector on coset c;
        # operator j maps row grid[c, i] to grid[c, i ^ coords[j]], times
        # its phase there.
        out = (cols * phases[j][grid])[:, width ^ coords[j]]
        out *= sign
        return np.add(out, cols, out=out)

    # Column reps[c] of the identity is 1 at offset 0 of coset c.
    base = np.zeros(grid.shape, dtype=complex)
    base[:, 0] = 1
    for j, sign in enumerate(spec.signs):
        base = factor(base, j, sign)
    frames = np.zeros((spec.m, k, 2**n), dtype=complex)
    for a, signs in enumerate(itertools.product((1, -1), repeat=c)):
        cols = base
        for j, (s, cs) in enumerate(zip(signs, spec.classical_signs)):
            cols = factor(cols, r + j, s * cs)
        # cols holds 2^(r+c) P_a on the coset columns.  Its entries are
        # Gaussian integers, so the zero test is exact; a nonzero column
        # is nonzero at its own index, offset 0.  Adding 0 turns any -0.0
        # part into +0.0, as the dense build has it.
        keep = cols[:, 0] != 0
        if np.count_nonzero(keep) != k:
            raise InvariantError(
                f"block {a + 1} has dimension {np.count_nonzero(keep)}, expected K = {k}"
            )
        frame = cols[keep] + 0
        frames[a, np.arange(k)[:, None], grid[keep]] = (
            frame / np.linalg.norm(frame, axis=1)[:, None])
    return HybridCode(2, n, frames)


def block_state(code: HybridCode | StabilizerSpec, m: int, phi) -> np.ndarray:
    """phi as a vector, refused unless m (1-based) names a block of code and
    phi is a unit vector of its K entries."""
    if not 1 <= m <= code.m:
        raise ValueError(f"message index {m} outside 1..{code.m}")
    phi = linalg.as_vector(phi)
    if phi.shape != (code.k,):
        raise DimensionError(f"block state must have {code.k} entries, got {phi.shape[0]}")
    nrm = float(np.linalg.norm(phi))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"block state must be a unit vector, norm is {nrm!r}")
    return phi


def encode(code: HybridCode, m: int, phi) -> np.ndarray:
    """Encode classical message m (1-based) with block state phi."""
    return block_state(code, m, phi) @ code.frames[m - 1]


def _require(cond: bool, exc: type[CodeFileError], msg: str):
    if not cond:
        raise exc(msg)


def pair_rows(pairs: list, dim: int, name: str) -> np.ndarray:
    """A JSON list of dim [re, im] pairs, its length already checked, as a
    (dim, 2) float array; name (say "vector 1 of block 2") heads the messages.

    Three C-level steps do the work: a length test, an exact type test (JSON
    true and false load as bool, a subclass of int; np.fromiter reads "12" as
    12.0) and one np.fromiter.  Only when one fails are the entries searched,
    to name the first bad one.  parse_code_file converts each vector of a
    frame document as soon as that vector is decoded, with dim its own
    length, so the vector's lists are freed before the next one is read;
    it skips the type test when the vector's text shows it needless.
    """
    return _pair_rows(pairs, dim, name, False)


def _pair_rows(pairs: list, dim: int, name: str, numbers: bool) -> np.ndarray:
    """pair_rows, without its type test when numbers says that every value
    in pairs that is not a list is a float or an int (np.fromiter refuses a
    list with ValueError, so a pair nested too deep is still searched)."""
    try:
        numeric = (set(map(len, pairs)) <= {2}
                   and (numbers
                        or set(map(type, itertools.chain.from_iterable(pairs))) <= {float, int}))
        rows = np.fromiter(itertools.chain.from_iterable(pairs), float,
                           2 * len(pairs)).reshape(-1, 2) if numeric else None
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.shape != (dim, 2):
        for ei, entry in enumerate(pairs):
            if not (isinstance(entry, list) and len(entry) == 2
                    and type(entry[0]) in (float, int) and type(entry[1]) in (float, int)):
                raise MalformedDocumentError(f"entry {ei} of {name} must be a [re, im] pair")
    # Past the search every entry is a pair of numbers, so a failed
    # conversion means an integer too large for a float.
    _require(rows is not None and bool(np.isfinite(rows).all()), InvariantError,
             f"{name} has non-finite entries")
    return rows


def _parse_blocks_doc(doc: dict, strict: bool) -> HybridCode:
    for key in ("q", "n", "K", "M", "blocks"):
        _require(key in doc, MalformedDocumentError, f"missing key {key!r}")
    q, n, k, m = doc["q"], doc["n"], doc["K"], doc["M"]
    for name, val in (("q", q), ("n", n), ("K", k), ("M", m)):
        _require(isinstance(val, int) and not isinstance(val, bool) and val >= 1,
                 MalformedDocumentError, f"{name} must be a positive integer")
    _require(q >= 2, InvariantError, "q must be at least 2")
    # No list can hold more than sys.maxsize entries; refuse before q**n,
    # which takes seconds to evaluate for n in the billions.
    _require(n * math.log2(q) < sys.maxsize.bit_length(), DimensionError,
             f"vectors of q^n = {q}^{n} entries cannot be listed")
    dim = q**n
    _require(m * k <= dim, InvariantError,
             f"M*K = {m * k} orthonormal vectors cannot fit in dimension {dim}")
    blocks_doc = doc["blocks"]
    _require(isinstance(blocks_doc, list), MalformedDocumentError, "blocks must be a list")
    _require(len(blocks_doc) == m, DimensionError,
             f"document declares M = {m} but lists {len(blocks_doc)} blocks")
    for bi, block in enumerate(blocks_doc):
        _require(isinstance(block, list), MalformedDocumentError,
                 f"block {bi + 1} must be a list of vectors")
        _require(len(block) == k, DimensionError,
                 f"block {bi + 1} has {len(block)} vectors, expected K = {k}")
        for vi, vec in enumerate(block):
            _require(isinstance(vec, (list, np.ndarray)), MalformedDocumentError,
                     f"vector {vi + 1} of block {bi + 1} must be a list")
            _require(len(vec) == dim, DimensionError,
                     f"vector {vi + 1} of block {bi + 1} has {len(vec)} entries, "
                     f"expected q^n = {dim}")
    # Every one of the M K vectors has shown its q^n entries, so the stack
    # is never larger than the document that lists them.  A vector the
    # decoder converted is copied; the others are refused by pair_rows here,
    # in document order, now that every length is known to be right.
    stack = np.empty((m * k, dim), dtype=complex)
    rows = stack.view(float).reshape(m * k, dim, 2)
    for row, vec in enumerate(itertools.chain.from_iterable(blocks_doc)):
        rows[row] = vec if isinstance(vec, np.ndarray) else pair_rows(
            vec, dim, f"vector {row % k + 1} of block {row // k + 1}")
    # The document is the parse's own: its converted vectors go now, so
    # the stack is the one frames-sized array held from here on.
    blocks_doc.clear()
    del rows
    if strict:
        _check_squared_norm(stack)
        gram, dev = _pair_deviations(stack, m, k)
        dev = float(dev.max())
        _require(dev <= 1e-6, InvariantError,
                 f"frames deviate from orthonormal by {dev:.3e}")
        # Benign rounding from hand-written files is absorbed by Loewdin's
        # symmetric step S <- G^(-1/2) S, the orthonormal frame nearest S.
        # G is positive definite here: with every entry of G - 1 at most
        # 1e-6, Gershgorin puts its eigenvalues at or above 1 - M K 1e-6,
        # and M K < 10^6 for any Gram that fits in memory.
        w, u = np.linalg.eigh(gram)
        stack = (u * w**-0.5) @ u.conj().T @ stack
    return HybridCode(q, n, stack.reshape(m, k, dim))


def _parse_stabilizer_doc(doc: dict) -> StabilizerSpec:
    if "q" in doc:
        _require(doc["q"] == 2, InvariantError,
                 "stabilizer documents are limited to q = 2")
    _require("n" in doc, MalformedDocumentError, "missing key 'n'")
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             MalformedDocumentError, "n must be a positive integer")
    stabs = doc.get("stabilizers")
    _require(isinstance(stabs, list) and all(isinstance(s, str) for s in stabs),
             MalformedDocumentError, "stabilizers must be a list of strings")
    cls = doc.get("classical_ops", [])
    _require(isinstance(cls, list) and all(isinstance(s, str) for s in cls),
             MalformedDocumentError, "classical_ops must be a list of strings")
    signs = doc.get("signs", [1] * len(stabs))
    _require(isinstance(signs, list)
             and all(isinstance(s, int) and not isinstance(s, bool) and s in (1, -1)
                     for s in signs),
             MalformedDocumentError, "signs must be a list of +1/-1")
    _require(len(signs) == len(stabs), DimensionError,
             "signs must match stabilizers one for one")
    return StabilizerSpec(n, tuple(stabs), tuple(cls), tuple(signs))


# The keys each kind of document may hold, by the key that names the kind.
_DOCUMENT_KEYS = {
    "blocks": ("q", "n", "K", "M", "blocks"),
    "stabilizers": ("q", "n", "stabilizers", "classical_ops", "signs"),
}


def parse_code_file(text: str, strict: bool = True) -> HybridCode | StabilizerSpec:
    """Parse a code document.

    Documents with a "blocks" key give frames explicitly and produce a
    HybridCode; documents with a "stabilizers" key produce a
    StabilizerSpec.  A document with both keys, with neither, or with a
    key its kind does not take is refused.  With strict=True (the default)
    explicit frames are moved to the nearest orthonormal frame when
    within 1e-6 of orthonormal and rejected otherwise; strict=False skips
    that check so a broken file can still be loaded for diagnosis.

    The text is decoded once, one frame vector at a time, so besides the
    text a parse holds at most the converted vectors, the frame stack they
    are copied into and one vector's decoded lists, never the whole decoded
    document: on a 6 MB ((10, 16:8))_2 document with 2 MiB of frames, one
    parse peaks at 5.0 MiB of traced allocations strict and 4.3 MiB not,
    where json.loads of it holds 18 MiB, and the text cut by its last byte
    is refused at 2.2 MiB.  A syntax error is refused with json.loads's
    message and position; only text that does not open with a brace (a
    byte-order mark, an array, empty text) is handed to json.loads.

    The cyclic garbage collector is paused for the whole parse, so it never
    walks the decoded lists, and is re-enabled after it only if it was on
    before.  Reference counting frees them before then: JSON values form no
    reference cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_document(text, strict)
    finally:
        if enabled:
            gc.enable()


def _parse_document(text: str, strict: bool) -> HybridCode | StabilizerSpec:
    try:
        doc = _decode(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedDocumentError("JSON nests too deeply to parse") from None
    _require(isinstance(doc, dict), MalformedDocumentError,
             "document must be a JSON object")
    kinds = [kind for kind in _DOCUMENT_KEYS if kind in doc]
    _require(kinds, MalformedDocumentError, "document has neither 'blocks' nor 'stabilizers'")
    _require(len(kinds) == 1, MalformedDocumentError,
             "document has both 'blocks' and 'stabilizers'")
    keys = _DOCUMENT_KEYS[kinds[0]]
    unknown = next((key for key in doc if key not in keys), None)
    _require(unknown is None, MalformedDocumentError,
             f"unknown key {unknown!r}; a document with {kinds[0]!r} takes {', '.join(keys)}")
    if kinds[0] == "stabilizers":
        return _parse_stabilizer_doc(doc)
    return _parse_blocks_doc(doc, strict)


# JSON's whitespace, which the json module's decoder skips between tokens.
_SPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def _decode(text: str | bytes) -> object:
    """What json.loads(text) returns or raises, except that each vector of a
    top-level "blocks" list of lists that pair_rows accepts is its (len, 2) array.

    Text that opens with a brace after whitespace (str, or bytes decoded as
    json.loads decodes them) is decoded once, by the walk: it reads the
    top-level object, its "blocks" list and each block by hand and hands
    every other value, a vector among them, to JSONDecoder.raw_decode, so
    keys, duplicates (the last wins, in the first one's place), values and
    their errors are json.loads's; _syntax_error names a fault in the walk's
    own tokens.  A vector is converted as soon as it is decoded; one
    pair_rows refuses, or one that is not a list, is kept as decoded for
    _parse_blocks_doc to refuse in document order.  Other text goes once,
    whole, to json.loads.
    """
    s = text.decode(json.detect_encoding(text), "surrogatepass") \
        if isinstance(text, (bytes, bytearray)) else text
    if not (isinstance(s, str) and s.startswith("{", start := _SPACE.match(s).end())):
        return json.loads(text)
    members, end = _items(s, start, _member)
    end = _SPACE.match(s, end).end()
    if end != len(s):
        raise json.JSONDecodeError("Extra data", s, end)
    return dict(members)


def _syntax_error(text: str, k: int, i: int, opener: str) -> json.JSONDecodeError:
    """The error json.loads raises at the fault the walk met at text[i]: its
    decoder, standing just past opener as it stood at text[k] in the whole
    text, reads text[k:i + 1] to the fault, and the position is shifted back
    to the whole text's, so message, line and column are json.loads's own."""
    try:
        _DECODER.decode(opener + text[k:i + 1])
    except json.JSONDecodeError as exc:
        return json.JSONDecodeError(exc.msg, text, exc.pos + k - len(opener))


def _items(text: str, i: int, item) -> tuple[list, int]:
    """The entries of the JSON array or object opening at text[i], each read
    by item(text, i) -> (entry, end), and the index past the close."""
    close = "]" if text[i] == "[" else "}"
    entries = []
    i = _SPACE.match(text, i + 1).end()
    if text[i:i + 1] == close:
        return entries, i + 1
    while True:
        entry, k = item(text, i)
        entries.append(entry)
        i = _SPACE.match(text, k).end()
        if text[i:i + 1] == close:
            return entries, i + 1
        if text[i:i + 1] == ",":
            i = _SPACE.match(text, i + 1).end()
            # A close after a comma is the walk's fault too, for the scanner to name.
            if text[i:i + 1] != close:
                continue
        # Each opener leaves the scanner just past an entry of this container.
        raise _syntax_error(text, k, i, "[[]" if close == "]" else '{"":[]')


def _member(text: str, i: int) -> tuple[tuple[str, object], int]:
    j = i
    if text[j:j + 1] == '"':
        key, j = _DECODER.raw_decode(text, j)
        j = _SPACE.match(text, j).end()
        if text[j:j + 1] == ":":
            j = _SPACE.match(text, j + 1).end()
            if key == "blocks" and text[j:j + 1] == "[":
                value, j = _items(text, j, _block)
            else:
                value, j = _DECODER.raw_decode(text, j)
            return (key, value), j
    # After an object's brace the scanner reads a member as after a comma.
    raise _syntax_error(text, i, j, "{")


def _block(text: str, i: int) -> tuple[object, int]:
    if text[i:i + 1] == "[":
        return _items(text, i, _vector)
    return _DECODER.raw_decode(text, i)


# The first characters of the JSON values other than numbers and arrays:
# strings, objects, true, false, null and the decoder's NaN and Infinity.
_NOT_NUMBER = '"{tfnNI'


def _vector(text: str, i: int) -> tuple[object, int]:
    vec, j = _DECODER.raw_decode(text, i)
    if isinstance(vec, list):
        # A vector whose text opens no other value holds lists, floats and
        # ints only, so _pair_rows skips its type test; str.find copies nothing.
        numbers = all(text.find(c, i, j) < 0 for c in _NOT_NUMBER)
        try:
            vec = _pair_rows(vec, len(vec), "vector", numbers)
        except CodeFileError:
            pass
    return vec, j


def serialize_code(code: HybridCode) -> str:
    """Render a HybridCode as a JSON document that parse_code_file accepts."""
    blocks = [
        [[[float(z.real), float(z.imag)] for z in row] for row in frame]
        for frame in code.frames
    ]
    doc = {"q": code.q, "n": code.n, "K": code.k, "M": code.m, "blocks": blocks}
    return json.dumps(doc)

