"""Shared fixtures: three small reference codes plus random codes.

The reference codes are constructed from explicit basis vectors (or, for the
five-qubit one, from its stabilizer generators) so that every expected value
asserted against them can be checked by hand.  loop_detectability is the
block-by-block form of the detectability test, kept as the reference the
vectorized one is compared against.  dense_stabilizer_code builds a
stabilizer code from Kronecker-product matrices and Gram-Schmidt, the
reference from_stabilizer is compared against.
kron_chain_oracle builds an element's dense matrix as the Kronecker
product of its one-digit factors, each written entry by entry from the
definition (single_site_matrix): the reference for the element's
permutation form.  dense_projector_distributions realizes every basis
error of lexicographic_elements that way and evaluates all four
distributions through the block projectors (projector) as written, the
oracle for both distribution engines.
per_weight_column, subset_pair_sums (one subset_pairs product per digit
subset) and tensordot_trace_sums (one np.tensordot per digit) are the
one-class, one-subset and one-digit loops that detectable_column,
enumerators._partial_trace_sums and enumerators._trace_sums batch: the
references for their verdicts and, bit for bit, for their sums.
entrywise_parse_blocks converts an explicit-frame document one entry at a
time and re-orthonormalizes with Gram-Schmidt, and loop_validate checks
orthonormality one block and one block pair at a time: the references
for the parse and for validate.  lexicographic_elements lists a weight
class with nested itertools loops, the reference for the enumeration
order.  resorting_gf2_basis reduces GF(2) vectors one whole-basis pass
and one re-sort per vector, the reference for code_model._gf2_basis.
dense_stabilizer_tables builds a StabilizerSpec's packed check
rows and letter words, or its refusal, from a dense int64 check matrix
and one commutation product, the reference the packed constructor is
compared against.  max_abs_diff, codes_close, weight,
compose_adjoint_left and check_matrix (a spec's rows unpacked to a
(t, 2n) integer array) are small helpers that only the tests use.
"""

import itertools
import json
import math
import sys

import numpy as np
import pytest

from hybridec import code_model, error_basis, linalg
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
from hybridec.detection import all_detectable_of_weight, error_block_tensor
from hybridec.linalg import orthonormalize

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def lexicographic_elements(q, n, d):
    """(xvec, zvec) of every weight-d element: supports in
    itertools.combinations order, then the (x, z) pairs of the support
    positions in itertools.product order, first position slowest."""
    pairs = [(x, z) for x in range(q) for z in range(q) if (x, z) != (0, 0)]
    out = []
    for support in itertools.combinations(range(n), d):
        for assign in itertools.product(pairs, repeat=d):
            xv, zv = [0] * n, [0] * n
            for pos, (x, z) in zip(support, assign):
                xv[pos], zv[pos] = x, z
            out.append((tuple(xv), tuple(zv)))
    return out


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute difference between two arrays of one shape."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    assert a.shape == b.shape, f"shape {a.shape} differs from {b.shape}"
    return float(np.max(np.abs(a - b), initial=0.0))


def codes_close(a, b, tol=1e-12) -> bool:
    """Whether two codes have identical shape and entrywise close frames."""
    return ((a.q, a.n, a.k, a.m) == (b.q, b.n, b.k, b.m)
            and max_abs_diff(a.frame_stack, b.frame_stack) <= tol)


def single_site_matrix(q, x, z):
    """Oracle for one tensor factor, built entry by entry from the definition:
    the shift sends |j> to |j+1 mod q>, the clock multiplies |j> by omega**j.
    At q = 2 omega is -1 exactly, so the entries of a qubit chain are exact.
    """
    omega = -1 if q == 2 else np.exp(2j * np.pi / q)
    m = np.zeros((q, q), dtype=complex)
    for j in range(q):
        m[(j + x) % q, j] = omega ** (z * j)
    return m


def kron_chain_oracle(e):
    """The dense q^n x q^n matrix of element e, the first digit's factor leftmost."""
    out = np.array([[1.0 + 0j]])
    for x, z in zip(e.xvec, e.zvec):
        out = np.kron(out, single_site_matrix(e.q, x, z))
    return out


def weight(e) -> int:
    """Number of digits the element acts on nontrivially."""
    return sum(1 for x, z in zip(e.xvec, e.zvec) if x or z)


def compose_adjoint_left(f, e):
    """The basis element equivalent to adjoint(f) e, phase discarded: the
    index group is componentwise addition mod q, so its exponents are e - f."""
    assert (f.q, f.n) == (e.q, e.n)
    return error_basis.PauliElement(f.q, f.n, [(a - b) % f.q for a, b in zip(e.xvec, f.xvec)],
                                    [(a - b) % f.q for a, b in zip(e.zvec, f.zvec)])


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


def check_matrix(spec):
    """A StabilizerSpec's GF(2) rows (x | z), signs dropped, as a (t, 2n)
    int64 array: its packed check_rows, unpacked."""
    bits = np.unpackbits(spec.check_rows.view(np.uint8), axis=-1, count=spec.n, bitorder="little")
    return bits.reshape(len(bits), 2 * spec.n).astype(np.int64)


def resorting_gf2_basis(vectors):
    """The reduced echelon basis of the GF(2) span of integer bit vectors,
    as a descending list: each new vector passes over the whole basis
    (min(a, a ^ b)), and the basis is re-reduced by it and re-sorted."""
    basis = []
    for a in vectors:
        for b in basis:
            a = min(a, a ^ b)
        if a:
            basis = sorted([min(b, b ^ a) for b in basis] + [a], reverse=True)
    return basis


def dense_stabilizer_tables(n, generators, classical_ops=(), signs=(), classical_signs=()):
    """(check_rows, _letter_words) of StabilizerSpec(n, generators, ...),
    or its InvariantError, from a dense int64 (t, 2n) check matrix: the
    operators commute when one integer product of the matrix with its
    halves swapped is even, the first odd entry above the diagonal in
    row-major order naming the pair, and the dependence refusals come from
    one resorting_gf2_basis over Python integers, each row tagged with its
    index."""
    def folded(ops, signs, ops_name, signs_name):
        signs = list(signs) if signs else [1] * len(ops)
        if len(signs) != len(ops):
            raise InvariantError(f"{signs_name} must match {ops_name} one for one")
        bodies = []
        for i, op in enumerate(ops):
            body = op.strip()
            signs[i] *= -1 if body.startswith("-") else 1
            bodies.append((body[1:] if body.startswith(("+", "-")) else body).upper())
        return bodies, signs

    def packed(bits):
        words = -(-bits.shape[-1] // 64)
        padded = np.zeros(bits.shape[:-1] + (64 * words,), dtype=np.uint8)
        padded[..., :bits.shape[-1]] = bits
        return np.packbits(padded, axis=-1, bitorder="little").view("<u8").astype(np.uint64)

    if n < 1:
        raise InvariantError("n must be at least 1")
    gens, gsigns = folded(generators, signs, "generators", "signs")
    cls, csigns = folded(classical_ops, classical_signs, "classical_ops", "classical_signs")
    if not all(s in (1, -1) for s in gsigns + csigns):
        raise InvariantError("signs must be +1 or -1")
    names, r = gens + cls, len(gens)
    total = len(names)
    for body in names:
        if len(body) != n:
            raise InvariantError(f"operator {body!r} does not have {n} letters")
        if body.strip("IXYZ"):
            raise InvariantError(f"operator {body!r} uses letters outside I, X, Y, Z")
    rows = np.array([[ch in "XY" for ch in body] + [ch in "ZY" for ch in body]
                     for body in names], dtype=np.int64).reshape(total, 2 * n)
    rx, rz = rows[:, :n], rows[:, n:]
    clashes = np.argwhere(np.triu(rows @ np.concatenate([rz, rx], axis=1).T % 2, 1))
    if len(clashes):
        i, j = clashes[0]
        raise InvariantError(f"operators {names[i]!r} and {names[j]!r} do not commute")
    basis = resorting_gf2_basis([int("".join(map(str, row)), 2) << total | 1 << i
                                 for i, row in enumerate(rows.tolist())])
    if basis and basis[-1] < 1 << r:
        raise InvariantError("generators are dependent")
    if basis and basis[-1] < 1 << total:
        raise InvariantError("classical_ops are dependent modulo the generators")
    beta = np.zeros((2 * n, total), dtype=np.uint8)
    for b in basis:
        beta[2 * n - b.bit_length() + total] = [b >> i & 1 for i in range(total)]
    pairs = np.zeros((3, n, 2 * total), dtype=np.uint8)
    pairs[0, :, :total], pairs[1, :, :total] = rx.T, rz.T
    pairs[0, :, total:], pairs[1, :, total:] = beta[n:], beta[:n]
    pairs[2] = pairs[0] ^ pairs[1]
    letters = packed(pairs).transpose(2, 1, 0).reshape(-1, 3 * n)
    letters = np.hstack([letters, np.zeros((len(letters), 1), dtype=np.uint64)])
    return packed(rows.reshape(total, 2, n).astype(np.uint8)), letters


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

    Each basis error E is realized by kron_chain_oracle as a q^n x q^n matrix and every
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
        for xv, zv in lexicographic_elements(code.q, code.n, d):
            # x[b, a] = P_b E P_a
            e = error_basis.PauliElement(code.q, code.n, xv, zv)
            x = (ps @ kron_chain_oracle(e))[:, None] @ ps[None]
            frob = (np.abs(x) ** 2).sum(axis=(2, 3)) * traces
            sums[d] += (np.sum(np.abs(np.trace(x, axis1=2, axis2=3)) ** 2),
                        frob[same].sum(), frob[~same].sum(), frob.sum())
    sums /= code.k**2 * code.m
    return {key: list(sums[:, i]) for i, key in enumerate(("A", "A_perp", "C", "B"))}


def per_weight_column(code, max_d, tol=linalg.ENTRY_TOL):
    """detectable_column one weight class at a time: an all_detectable_of_weight
    scan per weight, each stopping at its first failing chunk."""
    return tuple(all_detectable_of_weight(code, d, tol, max_counterexamples=1)[0]
                 for d in range(max_d + 1))


def subset_pairs(frames, subset):
    """Tr(Tr_S P_a Tr_S P_b) over block pairs (a, b) for one subset S, as an
    (M, M) array, the product taken on whichever side is smaller."""
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


def subset_pair_sums(code, max_d):
    """enumerators._partial_trace_sums one subset at a time (subset_pairs),
    each term added to its size's running sum."""
    q, n, m = code.q, code.n, code.m
    frames = code.frame_stack.reshape((m, code.k) + (q,) * n)
    by_size = np.zeros((max_d + 1, m, m))
    for j in range(max_d + 1):
        for subset in itertools.combinations(range(n), j):
            by_size[j] += q**j * subset_pairs(frames, subset)
    inverse = np.array([[(-1) ** (d - j) * math.comb(n - j, d - j) if j <= d else 0
                         for j in range(max_d + 1)] for d in range(max_d + 1)], dtype=float)
    per_weight = np.tensordot(inverse, by_size, axes=1)
    cross = ~np.eye(m, dtype=bool)
    return np.array([per_weight.trace(axis1=1, axis2=2),
                     per_weight[:, cross].sum(axis=1),
                     per_weight.sum(axis=(1, 2))])


def tensordot_trace_sums(code, max_d):
    """enumerators._trace_sums with one np.tensordot per digit for the DFT
    over the clock exponents."""
    q, n, m, k, dim = code.q, code.n, code.m, code.k, code.dimension
    v = code.frame_stack
    vc = v.conj()
    digits = np.indices((q,) * n, dtype=np.uint8).reshape(n, dim)
    nonzero = (digits != 0).astype(np.uint8)
    shifts = digits.T[np.count_nonzero(digits, axis=0) <= max_d]
    dft = error_basis.permutation_actions(
        q, 1, np.zeros((q, 1), dtype=np.int64), np.arange(q)[:, None])[1]
    step = max(1, code_model.CHUNK_ENTRIES // (m * k * dim))
    acc = np.zeros(n + 1)
    for start in range(0, len(shifts), step):
        xs = shifts[start:start + step]
        nb = len(xs)
        perm, _ = error_basis.permutation_actions(q, n, xs, np.zeros_like(xs))
        u = (np.take(vc, perm, axis=1) * v[:, None, :]).reshape(m, k, nb, dim).sum(axis=1)
        t = u.reshape((m * nb,) + (q,) * n)
        for _ in range(n):
            t = np.tensordot(t, dft, axes=([1], [1]))
        power = (t.real**2 + t.imag**2).reshape(m, nb, dim).sum(axis=0)
        weights = (np.count_nonzero(xs, axis=1)[:, None]
                   + (xs == 0).astype(np.uint8) @ nonzero)
        acc += np.bincount(weights.ravel(), power.ravel(), minlength=n + 1)
    return acc[:max_d + 1]


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
                        f"entry {ei} of vector {vi + 1} of block {bi + 1} must be a "
                        f"[re, im] pair"
                    )
                try:
                    row[ei] = complex(entry[0], entry[1])
                except OverflowError:  # an integer too large for a float
                    row[ei] = math.inf
            require(bool(np.all(np.isfinite(row))), InvariantError,
                    f"vector {vi + 1} of block {bi + 1} has non-finite entries")
            rows.append(row)
    stack = np.array(rows)
    if strict:
        require(bool(np.isfinite(np.vdot(stack, stack))), InvariantError,
                "frame entries and their squared norm must be finite")
        dev = max_abs_diff(stack.conj() @ stack.T, np.eye(m * k))
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
        dev = max_abs_diff(frame.conj() @ frame.T, eye)
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
