"""Hybrid code objects and their file format.

A code with parameters ((n, K:M))_q is stored as one (M, K, q^n) array
of frames: block a is an orthonormal frame of K vectors in the q^n
dimensional space.  Blocks are mutually orthogonal subspaces; block m
carries classical message m (1-based) together with a K dimensional
quantum state.  The module also builds codes from qubit stabilizer data
and reads and writes the JSON document format used by the command line
tools.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import error_basis, linalg

# Largest ambient dimension 2^n for which from_stabilizer builds frames.
# Its working memory is one array of 2^n entries per operator, but the
# (M, K, 2^n) frames it returns, and the constructor's copy of them, take
# 16 M K 2^n bytes each: up to 64 MiB at the guard, for a code with no
# generators.
STABILIZER_DIMENSION_GUARD = 2**11

# Complex entries of the gathered frames per detection.block_tensors chunk:
# a chunk holds max(1, CHUNK_ENTRIES // (M K q^n)) elements, the trace DFT
# of enumerators as many shifts, and each other batched step about as many
# entries: a scan_slices or scan_supports slice, a block of is_correctable_set
# pairs on frames, a block of StabilizerSpec's commutation check.
# compute_distributions on the Steane hybrid code peaks at 0.9 MB of traced
# allocations with 2^13 entries and at 33 MB with 2^20.
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

    def parameter_string(self) -> str:
        return f"(({self.n}, {self.k}:{self.m}))_{self.q}"


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


def validate(code: HybridCode, tol: float = linalg.ENTRY_TOL) -> ValidationReport:
    """Check frame orthonormality within and across blocks.

    Structural requirements (matching dimensions, M*K <= q^n) are already
    enforced by the constructors; this reports the numeric ones, from one
    Gram of the frame stack.
    """
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


def _gf2_basis(vectors: list[int]) -> list[int]:
    """A reduced echelon basis of the GF(2) span of bit vectors held as integers.

    The basis vectors have distinct leading bits, each leading bit clear
    in the others, and are returned in descending order; their count is
    the rank.
    """
    basis: list[int] = []
    for a in vectors:
        for b in basis:
            a = min(a, a ^ b)
        if a:
            basis = sorted([min(b, b ^ a) for b in basis] + [a], reverse=True)
    return basis


def _packed(bits: np.ndarray) -> np.ndarray:
    """(..., L) bits as (..., ceil(L / 64)) uint64 words, bit i at bit i % 64 of word i // 64."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 64) * 8,), dtype=np.uint8)
    padded[..., :packed.shape[-1]] = packed
    return padded.view("<u8").astype(np.uint64, copy=False)


def bits_of(words: np.ndarray, count: int) -> np.ndarray:
    """The first count bits of (..., w) _packed words, as (..., count) 0s and 1s."""
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
    (t, 2, ceil(n / 64)) _packed words, t = r + c: row i's X half, then
    its Z half, qubit j at bit j.  It also sets _letter_words, (ceil(2t
    / 64), 3n): column 3 j + p holds the _packed 2t bits of the one-qubit
    pair p (Z, X, Y) on qubit j, the rows it anticommutes with and its
    coefficients on them, so an element's are the XOR of its letters'.
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
        # Each letter's bit in the X half and in the Z half of its row.
        x_bits, z_bits = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
        words = []
        for body in names:
            if len(body) != n:
                raise InvariantError(f"operator {body!r} does not have {n} letters")
            if body.strip("IXYZ"):
                raise InvariantError(f"operator {body!r} uses letters outside I, X, Y, Z")
            words.append(body.translate(x_bits) + body.translate(z_bits))
        bits = np.frombuffer("".join(words).encode(), np.uint8).reshape(total, 2, n) - ord("0")
        rows = _packed(bits)
        # Rows i and j anticommute when x_i . z_j + z_i . x_j is odd.  A block
        # of rows i meets the rows j from its first on; that parity is
        # symmetric and even at i = j, so the block's first odd entry in
        # row-major order has j > i and is the first clash in (i, j) order.
        x, z = rows[:, 0], rows[:, 1]
        step = max(1, CHUNK_ENTRIES // (x.size or 1))
        for start in range(0, total, step):
            odd = np.bitwise_count(x[start:start + step, None] & z[None, start:]
                                   ^ z[start:start + step, None] & x[None, start:]).sum(axis=2) & 1
            if odd.any():
                i, j = np.argwhere(odd)[0] + start
                raise InvariantError(f"operators {names[i]!r} and {names[j]!r} do not commute")
        # One reduced echelon basis of the rows, row i tagged at bit i below
        # its 2n bits.  Its vectors below bit r + c are the rows'
        # dependencies, those below bit r the generators' own; the basis is
        # descending, so its last vector decides.  With the rows independent,
        # e's coefficients on the basis are its entries in the pivot
        # columns, and each basis vector's tag names the rows it sums.
        basis = _gf2_basis([int(word, 2) << total | 1 << i for i, word in enumerate(words)])
        if basis and basis[-1] < 1 << r:
            raise InvariantError("generators are dependent")
        if basis and basis[-1] < 1 << total:
            raise InvariantError("classical_ops are dependent modulo the generators")
        tags = b"".join((b % (1 << total)).to_bytes(-(-total // 64) * 8, "little") for b in basis)
        # A one-bit row's coefficients: the tag of the basis vector pivoting there.
        beta = np.zeros((2 * n, total), dtype=np.uint8)
        beta[[2 * n - 1 - (b.bit_length() - 1 - total) for b in basis]] = bits_of(
            np.frombuffer(tags, dtype="<u8").reshape(total, -(-total // 64)), total)
        pairs = np.zeros((3, n, 2 * total), dtype=np.uint8)
        pairs[0, :, :total], pairs[1, :, :total] = bits[:, 0].T, bits[:, 1].T
        pairs[0, :, total:], pairs[1, :, total:] = beta[n:], beta[:n]
        pairs[2] = pairs[0] ^ pairs[1]
        letters = _packed(pairs).transpose(2, 1, 0).reshape(-1, 3 * n)
        for name, table in (("check_rows", rows), ("_letter_words", letters)):
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
    V's reduced echelon basis (t vectors, _gf2_basis) has distinct
    leading bits, each clear in the other basis vectors.
    Row c of the grid is the coset reps[c] ^ V, where the reps are the
    indices with every leading bit clear, ascending, so reps[c] is the
    smallest index of its coset; column i is offset by the XOR of basis[j]
    over the set bits j of i, so column 0 holds the reps.  Returns the grid and each X part's
    coordinates in the basis as a column index.
    """
    basis = _gf2_basis(x_parts)
    pivots = [b.bit_length() - 1 for b in basis]
    index = np.arange(2**n, dtype=np.int64)
    reps = index[(index & sum(1 << p for p in pivots)) == 0]
    offsets = np.zeros(1, dtype=np.int64)
    for b in basis:
        offsets = np.concatenate([offsets, offsets ^ b])
    coords = [sum(1 << j for j, p in enumerate(pivots) if a >> p & 1) for a in x_parts]
    return reps[:, None] ^ offsets[None, :], coords


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
    and c classical operators.  Raises GuardExceededError,
    before allocating anything, when 2^n exceeds
    STABILIZER_DIMENSION_GUARD.
    """
    n = spec.n
    # 2^n > guard exactly when n reaches the guard's bit length; comparing
    # exponents avoids forming 2^n, which takes seconds for n = 10^9.
    if n >= STABILIZER_DIMENSION_GUARD.bit_length():
        raise linalg.GuardExceededError(
            f"stabilizer code on {n} qubits needs frames in dimension 2^{n}; "
            f"guard is {STABILIZER_DIMENSION_GUARD}"
        )
    r, c, k = spec.num_generators, spec.num_classical, spec.k
    xs, zs = bits_of(spec.check_rows, n).transpose(1, 0, 2)
    place = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    grid, coords = _coset_layout((xs @ place).tolist(), n)
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


def frames_of(code: HybridCode | StabilizerSpec) -> HybridCode:
    """The one rule for where frames are built: from_stabilizer(code)
    for a StabilizerSpec, the code itself for a HybridCode."""
    return from_stabilizer(code) if isinstance(code, StabilizerSpec) else code


def encode(code: HybridCode, m: int, phi) -> np.ndarray:
    """Encode classical message m (1-based) with block state phi."""
    if not 1 <= m <= code.m:
        raise ValueError(f"message index {m} outside 1..{code.m}")
    phi = linalg.as_vector(phi)
    if phi.shape != (code.k,):
        raise DimensionError(f"block state must have {code.k} entries, got {phi.shape[0]}")
    nrm = float(np.linalg.norm(phi))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"block state must be a unit vector, norm is {nrm!r}")
    return phi @ code.frames[m - 1]


def _require(cond: bool, exc: type[CodeFileError], msg: str):
    if not cond:
        raise exc(msg)


def _vector_rows(vec: list, dim: int, v: int, b: int) -> np.ndarray:
    """Vector v of block b (both 1-based) as a (dim, 2) float array.

    Two C-level steps do the work: an exact type test (JSON true and
    false load as bool, a subclass of int) and one conversion.  Only when
    either fails are the entries searched, to name the first bad one.
    """
    try:
        numeric = set(map(type, itertools.chain.from_iterable(vec))) <= {float, int}
        rows = np.array(vec, dtype=float) if numeric else None
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.shape != (dim, 2):
        for ei, entry in enumerate(vec):
            if not (isinstance(entry, list) and len(entry) == 2
                    and type(entry[0]) in (float, int) and type(entry[1]) in (float, int)):
                raise MalformedDocumentError(
                    f"entry {ei} of vector {v} in block {b} must be a [re, im] pair"
                )
    # Past the search every entry is a pair of numbers, so a failed
    # conversion means an integer too large for a float.
    _require(rows is not None and bool(np.isfinite(rows).all()), InvariantError,
             f"vector {v} of block {b} has non-finite entries")
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
            _require(isinstance(vec, list), MalformedDocumentError,
                     f"vector {vi + 1} of block {bi + 1} must be a list")
            _require(len(vec) == dim, DimensionError,
                     f"vector {vi + 1} of block {bi + 1} has {len(vec)} entries, "
                     f"expected q^n = {dim}")
    # Every one of the M K vectors has shown its q^n entries, so the buffer
    # is never larger than the document that lists them.
    buf = np.empty((m * k, dim, 2))
    for row, vec in enumerate(itertools.chain.from_iterable(blocks_doc)):
        buf[row] = _vector_rows(vec, dim, row % k + 1, row // k + 1)
    stack = buf.view(complex).reshape(m * k, dim)
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


def parse_code_file(text: str, strict: bool = True) -> HybridCode | StabilizerSpec:
    """Parse a code document.

    Documents with a "blocks" key give frames explicitly and produce a
    HybridCode; documents with a "stabilizers" key produce a
    StabilizerSpec for from_stabilizer.  With strict=True (the default)
    explicit frames are moved to the nearest orthonormal frame when
    within 1e-6 of orthonormal and rejected otherwise; strict=False skips
    that check so a broken file can still be loaded for diagnosis.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), MalformedDocumentError,
             "document must be a JSON object")
    if "stabilizers" in doc:
        return _parse_stabilizer_doc(doc)
    if "blocks" in doc:
        return _parse_blocks_doc(doc, strict)
    raise MalformedDocumentError("document has neither 'blocks' nor 'stabilizers'")


def serialize_code(code: HybridCode) -> str:
    """Render a HybridCode as a JSON document that parse_code_file accepts."""
    blocks = [
        [[[float(z.real), float(z.imag)] for z in row] for row in frame]
        for frame in code.frames
    ]
    doc = {"q": code.q, "n": code.n, "K": code.k, "M": code.m, "blocks": blocks}
    return json.dumps(doc)

