"""Shared fixtures: three small reference codes plus random codes.

The reference codes are constructed from explicit basis vectors (or, for the
five-qubit one, from its stabilizer generators) so that every expected value
asserted against them can be checked by hand.  loop_detectability is the
block-by-block form of the detectability test, kept as the reference the
vectorized one is compared against.  dense_stabilizer_code builds a
stabilizer code from Kronecker-product matrices and Gram-Schmidt, the
reference from_stabilizer is compared against.
dense_projector_distributions realizes every basis error as a dense
matrix and evaluates all four distributions through the block
projectors (projector) as written, the oracle for both distribution
engines.
entrywise_parse_blocks converts an explicit-frame document one entry at a
time and re-orthonormalizes with Gram-Schmidt, and loop_validate checks
orthonormality one block and one block pair at a time: the references
for the parse and for validate.
"""

import json
import math
import sys

import numpy as np
import pytest

from hybridec import error_basis, linalg
from hybridec.code_model import (
    DimensionError,
    HybridCode,
    InvariantError,
    MalformedDocumentError,
    StabilizerSpec,
    ValidationIssue,
    ValidationReport,
    from_stabilizer,
    serialize_code,
)
from hybridec.detection import error_block_tensor
from hybridec.linalg import orthonormalize

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def basis_state(dim, idx):
    v = np.zeros(dim, dtype=complex)
    v[idx] = 1.0
    return v


def make_t1():
    # One qubit carrying one classical bit: block 1 = span{|0>}, block 2 = span{|1>}.
    return HybridCode(2, 1, [[basis_state(2, 0)], [basis_state(2, 1)]])


def make_t3():
    # Two qubits, repetition-style blocks |00> and |11>.
    return HybridCode(2, 2, [[basis_state(4, 0)], [basis_state(4, 3)]])


def make_f5():
    # The five-qubit single-error-correcting code, one block of dimension 2.
    return from_stabilizer(StabilizerSpec(5, FIVE_QUBIT_GENERATORS))


def random_code(q, n, k, m, seed):
    """Haar-ish random code: QR of a complex Gaussian matrix, split into blocks.

    Columns of an orthonormal matrix become the m*k frame vectors; consecutive
    groups of k columns form each block, so blocks are mutually orthogonal by
    construction.
    """
    dim = q ** n
    if m * k > dim:
        raise ValueError("m*k exceeds the ambient dimension")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, m * k)) + 1j * rng.normal(size=(dim, m * k))
    qmat, _ = np.linalg.qr(a)
    return HybridCode(q, n, qmat.T.reshape(m, k, dim))


def random_stabilizer_spec(n, r, c, seed):
    """r generators and c classical operators on n qubits, with random signs.

    Z on the first r + c qubits, conjugated by random H, S and CNOT gates
    acting on the check matrix; Clifford conjugation keeps the strings
    commuting and independent, and H followed by S makes Y letters.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros((r + c, n), dtype=np.int64)
    z = np.eye(r + c, n, dtype=np.int64)
    for _ in range(4 * n * n):
        gate, i, t = rng.integers(3), rng.integers(n), rng.integers(n)
        if gate == 0:  # H on i: swap its x and z bits
            x[:, i], z[:, i] = z[:, i].copy(), x[:, i].copy()
        elif gate == 1:  # S on i
            z[:, i] ^= x[:, i]
        elif t != i:  # CNOT from i to t
            x[:, t] ^= x[:, i]
            z[:, i] ^= z[:, t]
    letters = np.array([["I", "Z"], ["X", "Y"]])
    ops = tuple("".join(row) for row in letters[x, z])
    signs = tuple(int(s) for s in rng.choice([1, -1], size=r + c))
    return StabilizerSpec(n, ops[:r], ops[r:], signs[:r], signs[r:])


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli_string_matrix(body):
    m = np.ones((1, 1), dtype=complex)
    for ch in body:
        m = np.kron(m, _PAULI_1Q[ch])
    return m


def dense_stabilizer_code(spec):
    """The code from_stabilizer builds, from dense 2^n x 2^n matrices.

    Block a's projector is the product of the (1 + sign * operator)/2
    factors, in from_stabilizer's block order, and Gram-Schmidt over its
    columns gives the frame.
    """
    n, c = spec.n, spec.num_classical
    dim = 2**n
    base = np.eye(dim, dtype=complex)
    for sign, body in zip(spec.signs, spec.generators):
        base = base @ (np.eye(dim) + sign * _pauli_string_matrix(body)) / 2
    frames = []
    for bits in range(2**c):
        p = base
        for j, body in enumerate(spec.classical_ops):
            s = spec.classical_signs[j] * (-1 if (bits >> (c - 1 - j)) & 1 else 1)
            p = p @ (np.eye(dim) + s * _pauli_string_matrix(body)) / 2
        frames.append(orthonormalize(list(p.T), tol=1e-8))
    return HybridCode(2, n, frames)


def projector(frame):
    """Orthogonal projector onto the span of one block's (K, q^n) frame."""
    return frame.T @ frame.conj()


def dense_projector_distributions(code, max_weight=None):
    """Per-weight A, A', C and B values as lists, from dense projectors.

    Each basis error E is realized as a q^n x q^n matrix and every
    ordered block pair (a, b) is evaluated as written: |Tr(P_b E P_a)|^2
    adds to A, and Tr(P_a) times the squared Frobenius norm of P_b E P_a
    to A' when a = b and to C when not; B takes both.  All four carry
    the definitional normalization 1/(K^2 M), which the factor
    Tr(P_a) = K turns into 1/(K M) for the last three.  Memory is
    quadratic in q^n, so this is for small codes only.
    """
    ps = np.array([projector(frame) for frame in code.frames])
    traces = np.trace(ps, axis1=1, axis2=2).real
    same = np.eye(code.m, dtype=bool)
    top = code.n if max_weight is None else max_weight
    sums = np.zeros((top + 1, 4))
    for d in range(top + 1):
        for e in error_basis.enumerate_weight(code.q, code.n, d):
            # x[b, a] = P_b E P_a
            x = (ps @ error_basis.realize(e))[:, None] @ ps[None]
            frob = (np.abs(x) ** 2).sum(axis=(2, 3)) * traces
            sums[d] += (np.sum(np.abs(np.trace(x, axis1=2, axis2=3)) ** 2),
                        frob[same].sum(), frob[~same].sum(), frob.sum())
    sums /= code.k**2 * code.m
    return {key: list(sums[:, i]) for i, key in enumerate(("A", "A_perp", "C", "B"))}


def entrywise_parse_blocks(doc, strict=True):
    """The HybridCode of an explicit-frame document, one entry at a time.

    On a document with one fault it raises the exception class and
    message parse_code_file raises; strict re-orthonormalizes with
    Gram-Schmidt.  It checks each vector's entries before the next
    vector's length, where parse_code_file checks every length first.
    """
    def require(cond, exc, msg):
        if not cond:
            raise exc(msg)

    for key in ("q", "n", "K", "M", "blocks"):
        require(key in doc, MalformedDocumentError, f"missing key {key!r}")
    q, n, k, m = doc["q"], doc["n"], doc["K"], doc["M"]
    for name, val in (("q", q), ("n", n), ("K", k), ("M", m)):
        require(isinstance(val, int) and not isinstance(val, bool) and val >= 1,
                MalformedDocumentError, f"{name} must be a positive integer")
    require(q >= 2, InvariantError, "q must be at least 2")
    require(n * math.log2(q) < sys.maxsize.bit_length(), DimensionError,
            f"vectors of q^n = {q}^{n} entries cannot be listed")
    dim = q**n
    require(m * k <= dim, InvariantError,
            f"M*K = {m * k} orthonormal vectors cannot fit in dimension {dim}")
    blocks_doc = doc["blocks"]
    require(isinstance(blocks_doc, list), MalformedDocumentError, "blocks must be a list")
    require(len(blocks_doc) == m, DimensionError,
            f"document declares M = {m} but lists {len(blocks_doc)} blocks")
    rows = []
    for bi, block in enumerate(blocks_doc):
        require(isinstance(block, list), MalformedDocumentError,
                f"block {bi + 1} must be a list of vectors")
        require(len(block) == k, DimensionError,
                f"block {bi + 1} has {len(block)} vectors, expected K = {k}")
        for vi, vec in enumerate(block):
            require(isinstance(vec, list), MalformedDocumentError,
                    f"vector {vi + 1} of block {bi + 1} must be a list")
            require(len(vec) == dim, DimensionError,
                    f"vector {vi + 1} of block {bi + 1} has {len(vec)} entries, "
                    f"expected q^n = {dim}")
            row = np.empty(dim, dtype=complex)
            for ei, entry in enumerate(vec):
                if not (isinstance(entry, list) and len(entry) == 2
                        and type(entry[0]) in (float, int) and type(entry[1]) in (float, int)):
                    raise MalformedDocumentError(
                        f"entry {ei} of vector {vi + 1} in block {bi + 1} must be a "
                        f"[re, im] pair"
                    )
                row[ei] = complex(entry[0], entry[1])
            require(bool(np.all(np.isfinite(row))), InvariantError,
                    f"vector {vi + 1} of block {bi + 1} has non-finite entries")
            rows.append(row)
    stack = np.array(rows)
    if strict:
        require(bool(np.isfinite(np.vdot(stack, stack))), InvariantError,
                "frame entries and their squared norm must be finite")
        dev = linalg.max_abs_diff(stack.conj() @ stack.T, np.eye(m * k))
        require(dev <= 1e-6, InvariantError, f"frames deviate from orthonormal by {dev:.3e}")
        basis = linalg.orthonormalize(list(stack), tol=1e-3)
        require(len(basis) == m * k, InvariantError, "frame vectors are dependent")
        stack = np.array(basis)
    return HybridCode(q, n, stack.reshape(m, k, dim))


def loop_validate(code, tol):
    """validate's report, from one Gram per block and one product per block pair."""
    issues = []
    max_gram = 0.0
    eye = np.eye(code.k)
    for a, frame in enumerate(code.frames):
        dev = linalg.max_abs_diff(frame.conj() @ frame.T, eye)
        max_gram = max(max_gram, dev)
        if not dev <= tol:
            issues.append(ValidationIssue(
                "block_gram", (a + 1,), dev,
                f"block {a + 1} frame deviates from orthonormal by {dev:.3e}"))
    max_cross = 0.0
    for a in range(code.m):
        fa = code.frames[a]
        for b in range(a + 1, code.m):
            overlap = float(np.max(np.abs(code.frames[b].conj() @ fa.T)))
            max_cross = max(max_cross, overlap)
            if not overlap <= tol:
                issues.append(ValidationIssue(
                    "cross_overlap", (a + 1, b + 1), overlap,
                    f"blocks {a + 1} and {b + 1} overlap by {overlap:.3e}"))
    return ValidationReport(not issues, tol, max_gram, max_cross, tuple(issues))


def loop_detectability(code, err, tol):
    """(detectable, witness, lambdas, max_diag, max_off), one block pair at a time.

    Source blocks a are scanned in order and, within each, bra blocks b;
    the witness is the first pair whose violation exceeds tol.
    """
    t = error_block_tensor(code, err)
    m, k = code.m, code.k
    eye = np.eye(k)
    lambdas = []
    max_diag = 0.0
    max_off = 0.0
    witness = None
    for a in range(m):
        block_aa = t[a, :, a, :]
        lam = complex(np.trace(block_aa) / k)
        lambdas.append(lam)
        for b in range(m):
            if b == a:
                dev = float(np.max(np.abs(block_aa - lam * eye)))
                max_diag = max(max_diag, dev)
            else:
                dev = float(np.max(np.abs(t[b, :, a, :])))
                max_off = max(max_off, dev)
            if witness is None and dev > tol:
                witness = (b + 1, a + 1)
    detectable = witness is None
    return (detectable, witness, tuple(lambdas) if detectable else None,
            max_diag, max_off)


@pytest.fixture(scope="session")
def t1():
    return make_t1()


@pytest.fixture(scope="session")
def t3():
    return make_t3()


@pytest.fixture(scope="session")
def f5():
    return make_f5()


@pytest.fixture(scope="session")
def make_random():
    return random_code


@pytest.fixture(scope="session")
def code_files(tmp_path_factory):
    """On-disk JSON documents for the three reference codes, for CLI tests."""
    d = tmp_path_factory.mktemp("codes")
    paths = {}

    p = d / "t1.json"
    p.write_text(serialize_code(make_t1()))
    paths["t1"] = str(p)

    p = d / "t3.json"
    p.write_text(serialize_code(make_t3()))
    paths["t3"] = str(p)

    p = d / "f5.json"
    p.write_text(json.dumps({"n": 5, "stabilizers": list(FIVE_QUBIT_GENERATORS)}))
    paths["f5"] = str(p)

    return paths
