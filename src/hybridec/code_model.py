"""Hybrid code objects and their file format.

A code with parameters ((n, K:M))_q is stored as M blocks, each an
orthonormal frame of K vectors in the q^n dimensional space.  Blocks are
mutually orthogonal subspaces; block m carries classical message m
(1-based) together with a K dimensional quantum state.  The module also
builds codes from qubit stabilizer data and reads and writes the JSON
document format used by the command line tools.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import error_basis, linalg

# Largest ambient dimension 2^n for which from_stabilizer builds frames.
# It holds a few dense 2^n x 2^n complex arrays at once, 64 MiB each at
# the guard, so past this size it would exhaust memory instead of
# answering.
STABILIZER_DIMENSION_GUARD = 2**11


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
    strict parse and the detection kernels form stay finite.
    """
    if not np.isfinite(np.vdot(frames, frames)):
        raise InvariantError("frame entries and their squared norm must be finite")


@dataclass(frozen=True, eq=False)
class CodeBlock:
    """One message block: K orthonormal rows spanning a subspace."""

    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[0] < 1 or frame.shape[1] < 1:
            raise DimensionError(f"frame must be a (K, dim) array, got {frame.shape}")
        _check_squared_norm(frame)
        frame = frame.copy()
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def k(self) -> int:
        return self.frame.shape[0]

    @property
    def dim_ambient(self) -> int:
        return self.frame.shape[1]


@dataclass(frozen=True, eq=False)
class HybridCode:
    """M mutually orthogonal K dimensional blocks in the q^n space."""

    q: int
    n: int
    blocks: tuple[CodeBlock, ...]

    def __post_init__(self):
        if self.q < 2:
            raise InvariantError("q must be at least 2")
        if self.n < 1:
            raise InvariantError("n must be at least 1")
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise InvariantError("a code needs at least one block")
        dim = self.q**self.n
        k = blocks[0].k
        for i, b in enumerate(blocks):
            if b.dim_ambient != dim:
                raise DimensionError(
                    f"block {i + 1} lives in dimension {b.dim_ambient}, expected {dim}"
                )
            if b.k != k:
                raise DimensionError(
                    f"block {i + 1} has {b.k} vectors, expected {k}"
                )
        if len(blocks) * k > dim:
            raise InvariantError(
                f"M*K = {len(blocks) * k} orthonormal vectors cannot fit in dimension {dim}"
            )

    @property
    def k(self) -> int:
        """Quantum dimension carried by each block."""
        return self.blocks[0].k

    @property
    def m(self) -> int:
        """Number of classical messages."""
        return len(self.blocks)

    @property
    def dimension(self) -> int:
        return self.q**self.n

    @cached_property
    def frame_stack(self) -> np.ndarray:
        """All M*K frame rows stacked in block order; read-only."""
        stack = np.vstack([b.frame for b in self.blocks])
        stack.setflags(write=False)
        return stack

    def parameter_string(self) -> str:
        return f"(({self.n}, {self.k}:{self.m}))_{self.q}"


def projector(block: CodeBlock) -> np.ndarray:
    """Orthogonal projector onto the block subspace."""
    f = block.frame
    return f.T @ f.conj()


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


def validate(code: HybridCode, tol: float | None = None) -> ValidationReport:
    """Check frame orthonormality within and across blocks.

    Structural requirements (matching dimensions, M*K <= q^n) are already
    enforced by the constructors; this reports the numeric ones, from one
    Gram of the frame stack.
    """
    tol = linalg.ENTRY_TOL if tol is None else tol
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


def _split_sign(s: str) -> tuple[int, str]:
    t = s.strip()
    if t.startswith("+"):
        return 1, t[1:]
    if t.startswith("-"):
        return -1, t[1:]
    return 1, t


def _symplectic_row(body: str, n: int) -> np.ndarray:
    """GF(2) row (x | z) for a qubit Pauli string."""
    if len(body) != n:
        raise InvariantError(f"operator {body!r} does not have {n} letters")
    row = np.zeros(2 * n, dtype=np.int64)
    for i, ch in enumerate(body.upper()):
        if ch not in "IXYZ":
            raise InvariantError(f"operator {body!r} uses letters outside I, X, Y, Z")
        if ch in ("X", "Y"):
            row[i] = 1
        if ch in ("Z", "Y"):
            row[n + i] = 1
    return row


def _symplectic_inner(r1: np.ndarray, r2: np.ndarray) -> int:
    n = len(r1) // 2
    return int((r1[:n] @ r2[n:] + r1[n:] @ r2[:n]) % 2)


def _gf2_rank(rows: list[np.ndarray]) -> int:
    if not rows:
        return 0
    mat = np.array(rows, dtype=np.int64) % 2
    rank = 0
    cols = mat.shape[1]
    for col in range(cols):
        pivot = None
        for r in range(rank, mat.shape[0]):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(mat.shape[0]):
            if r != rank and mat[r, col]:
                mat[r] = (mat[r] + mat[rank]) % 2
        rank += 1
        if rank == mat.shape[0]:
            break
    return rank


@dataclass(frozen=True)
class StabilizerSpec:
    """Qubit stabilizer data for building a hybrid code.

    generators fix the ambient stabilized space; classical_ops split it
    into 2^c message blocks, one per choice of signs.  A leading + or -
    on any operator string is folded into the sign fields.  All listed
    operators must commute pairwise and be independent.
    """

    n: int
    generators: tuple[str, ...]
    classical_ops: tuple[str, ...] = ()
    signs: tuple[int, ...] = ()
    classical_signs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InvariantError("n must be at least 1")
        gens = []
        gsigns = list(self.signs) if self.signs else [1] * len(self.generators)
        if len(gsigns) != len(self.generators):
            raise InvariantError("signs must match generators one for one")
        for i, g in enumerate(self.generators):
            sign, body = _split_sign(g)
            gens.append(body.upper())
            gsigns[i] *= sign
        cls = []
        csigns = list(self.classical_signs) if self.classical_signs else [1] * len(self.classical_ops)
        if len(csigns) != len(self.classical_ops):
            raise InvariantError("classical_signs must match classical_ops one for one")
        for j, h in enumerate(self.classical_ops):
            sign, body = _split_sign(h)
            cls.append(body.upper())
            csigns[j] *= sign
        if not all(s in (1, -1) for s in gsigns + csigns):
            raise InvariantError("signs must be +1 or -1")
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "classical_ops", tuple(cls))
        object.__setattr__(self, "signs", tuple(gsigns))
        object.__setattr__(self, "classical_signs", tuple(csigns))
        rows = [_symplectic_row(b, self.n) for b in self.generators + self.classical_ops]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if _symplectic_inner(rows[i], rows[j]):
                    names = (self.generators + self.classical_ops)
                    raise InvariantError(
                        f"operators {names[i]!r} and {names[j]!r} do not commute"
                    )
        r = len(self.generators)
        if _gf2_rank(rows[:r]) != r:
            raise InvariantError("generators are dependent")
        if _gf2_rank(rows) != len(rows):
            raise InvariantError("classical_ops are dependent modulo the generators")

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


def from_stabilizer(spec: StabilizerSpec) -> HybridCode:
    """Build the hybrid code a stabilizer description defines.

    The blocks are indexed by the sign vector on the classical operators
    in binary order, +1 reading as bit 0 and the first operator as the
    most significant bit.  Each block is the range of the product of the
    (1 + sign * operator)/2 factors, applied as signed permutations of the
    basis columns.  Raises GuardExceededError, before allocating anything,
    when 2^n exceeds STABILIZER_DIMENSION_GUARD.
    """
    n = spec.n
    dim = 2**n
    if dim > STABILIZER_DIMENSION_GUARD:
        raise linalg.GuardExceededError(
            f"stabilizer code on {n} qubits needs frames in dimension 2^{n}; "
            f"guard is {STABILIZER_DIMENSION_GUARD}"
        )
    r, c = spec.num_generators, spec.num_classical
    k = spec.k
    rows = np.array([_symplectic_row(b, n) for b in spec.generators + spec.classical_ops],
                    dtype=np.int64).reshape(-1, 2 * n)
    perms, phases = error_basis.permutation_actions(2, n, rows[:, :n], rows[:, n:])
    # permutation_actions realizes X^x Z^z; the Hermitian string is i^(#Y) times it.
    phases *= np.array([1, 1j, -1, -1j])[(rows[:, :n] * rows[:, n:]).sum(axis=1) % 4, None]

    def factor(cols, j, sign):
        # Columns of cols @ (1 + sign * op_j), where cols[x] holds column x of cols.
        out = cols[perms[j]]
        out *= sign * phases[j][:, None]
        return np.add(out, cols, out=out)

    base = np.eye(dim, dtype=complex)
    for j, sign in enumerate(spec.signs):
        base = factor(base, j, sign)
    blocks = []
    for a, signs in enumerate(itertools.product((1, -1), repeat=c)):
        cols = base
        for j, (s, cs) in enumerate(zip(signs, spec.classical_signs)):
            cols = factor(cols, r + j, s * cs)
        # cols is 2^(r+c) P.  Column x of P is 0 or a coset state on x's orbit,
        # parallel to the other columns there, so Gram-Schmidt keeps the nonzero
        # columns whose first nonzero row is x.  The entries are Gaussian integers
        # (multiples of 2^-(r+c) in P), so the zero tests are exact.
        nonzero = cols != 0
        frame = cols[(nonzero.argmax(axis=1) == np.arange(dim)) & nonzero.diagonal()]
        if len(frame) != k:
            raise InvariantError(
                f"block {a + 1} has dimension {len(frame)}, expected K = {k}"
            )
        blocks.append(CodeBlock(frame / np.linalg.norm(frame, axis=1)[:, None]))
    return HybridCode(2, n, tuple(blocks))


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
    return phi @ code.blocks[m - 1].frame


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
    blocks = tuple(CodeBlock(stack[bi * k:(bi + 1) * k]) for bi in range(m))
    return HybridCode(q, n, blocks)


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
        [[[float(z.real), float(z.imag)] for z in row] for row in block.frame]
        for block in code.blocks
    ]
    doc = {"q": code.q, "n": code.n, "K": code.k, "M": code.m, "blocks": blocks}
    return json.dumps(doc)


def codes_close(a: HybridCode, b: HybridCode, tol: float = 1e-12) -> bool:
    """Whether two codes have identical shape and entrywise close frames."""
    if (a.q, a.n, a.k, a.m) != (b.q, b.n, b.k, b.m):
        return False
    return linalg.max_abs_diff(a.frame_stack, b.frame_stack) <= tol
