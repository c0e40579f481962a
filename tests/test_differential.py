"""Differential tests on random small codes: each engine against its reference.

Codes are drawn with q in {2, 3} and q^n <= 27.  The distributions of
both engines, the partial-trace and DFT one and the definitional
element sums on both kernel paths, are compared with the dense
projector oracle in conftest, also on stabilizer, monomial and mixed
frames up to q^n = 32; the detectability column (detectable_column)
with a full scan of block violations, the vectorized detectability test
with the block-by-block loop in conftest, the correctability test with the
pair-by-pair loop, and the distance reported by the distance and
identities commands with each other.  The explicit-frame parse is
compared with the entry-by-entry parser and its Gram-Schmidt, on valid,
slightly perturbed and corrupt documents, and validate with the
block-by-block loop.  The rank-based dimension of the detectable
operator space is compared with its closed form.  The batched element kernel
(detection.block_tensors) is compared on both of its paths, dense and
column-sparse, and also on stabilizer, monomial and mixed frames, with
the dense-matrix products, its exponent arrays with the PauliElement
enumeration, and its results at other chunk sizes with those at the
default one.  Stabilizer frames are
compared byte for byte with the dense Kronecker-product construction.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIVE_QUBIT_GENERATORS,
    dense_projector_distributions,
    dense_stabilizer_code,
    entrywise_parse_blocks,
    loop_detectability,
    loop_validate,
    projector,
    random_code,
    random_stabilizer_spec,
)

from hybridec import detection
from hybridec.cli import run
from hybridec.code_model import (
    CodeFileError,
    HybridCode,
    StabilizerSpec,
    codes_close,
    from_stabilizer,
    parse_code_file,
    serialize_code,
    validate,
)
from hybridec.detection import (
    all_detectable_of_weight,
    block_tensors,
    block_violations,
    detectability,
    detectable_column,
    error_block_tensor,
    is_correctable_set,
)
from hybridec.enumerators import compute_distributions, projector_distributions
from hybridec.error_basis import (
    PauliElement,
    compose_adjoint_left,
    enumerate_weight,
    parse_element,
    realize,
)
from hybridec.linalg import max_abs_diff

SETTINGS = settings(deadline=None, max_examples=25, derandomize=True)


# The largest q^n that small_codes draws: q = 3, n = 3 (q = 2 stops at 16).
SMALL_CODES_MAX_DIMENSION = 3**3


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4 if q == 2 else 3))
    dim = q**n
    k = draw(st.integers(1, min(4, dim)))
    m = draw(st.integers(1, min(4, dim // k)))
    return random_code(q, n, k, m, seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def stabilizer_specs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    total = draw(st.integers(0, n))
    c = draw(st.integers(0, min(total, 4)))
    return random_stabilizer_spec(n, total - c, c, seed=draw(st.integers(0, 2**32 - 1)))


def _unit_phases(rng, size):
    return np.exp(2j * np.pi * rng.random(size))


@st.composite
def monomial_codes(draw):
    """Frames of distinct basis vectors with random phases: one nonzero per column."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5 if q == 2 else 3))
    dim = q**n
    k = draw(st.integers(1, min(8, dim)))
    m = draw(st.integers(1, min(8, dim // k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = np.zeros((m * k, dim), dtype=complex)
    frames[np.arange(m * k), rng.permutation(dim)[:m * k]] = _unit_phases(rng, m * k)
    return HybridCode(q, n, frames.reshape(m, k, dim))


@st.composite
def mixed_codes(draw):
    """Monomial blocks next to random blocks on the rest of the space."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 5 if q == 2 else 3))
    dim = q**n
    k = draw(st.integers(1, min(4, dim // 2)))
    m = draw(st.integers(2, min(6, dim // k)))
    sparse = draw(st.integers(1, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(dim)
    frames = np.zeros((m * k, dim), dtype=complex)
    frames[np.arange(sparse * k), order[:sparse * k]] = _unit_phases(rng, sparse * k)
    rest = order[sparse * k:]
    shape = (len(rest), (m - sparse) * k)
    gaussian = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    frames[sparse * k:, rest] = np.linalg.qr(gaussian)[0].T
    blocks = frames.reshape(m, k, dim)
    return HybridCode(q, n, blocks[rng.permutation(m)])


def kernel_codes(max_stabilizer_n):
    """Dense random frames, stabilizer codes, monomial and mixed frames."""
    return st.one_of(small_codes(), stabilizer_specs(max_stabilizer_n).map(from_stabilizer),
                     monomial_codes(), mixed_codes())


@contextlib.contextmanager
def kernel_path(sparse):
    """Run block_tensors on its column-sparse path, or on its dense one, for every code."""
    default = detection.SPARSE_TERM_COST
    detection.SPARSE_TERM_COST = 0 if sparse else float("inf")
    try:
        yield
    finally:
        detection.SPARSE_TERM_COST = default


@st.composite
def operators(draw, code):
    """A basis element, a perturbed dense one, or a detectable operator.

    The detectable kind is sum_a c_a P_a plus an arbitrary operator on
    the complement of the code, so its block scalars are the random c_a.
    """
    q, n, dim = code.q, code.n, code.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["element", "dense", "detectable"]))
    if kind == "detectable":
        ps = [projector(frame) for frame in code.frames]
        rest = np.eye(dim) - sum(ps)
        scalars = rng.normal(size=code.m) + 1j * rng.normal(size=code.m)
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return sum(c * p for c, p in zip(scalars, ps)) + rest @ noise @ rest
    xvec = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    zvec = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    elem = PauliElement(q, n, xvec, zvec)
    if kind == "element":
        return elem
    scale = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    return realize(elem) + scale * rng.normal(size=(dim, dim))


@SETTINGS
@given(code=kernel_codes(4), data=st.data())
def test_distributions_match_the_projector_oracle(code, data):
    """All four distributions from the partial-trace and DFT engine, and
    from the definitional element sums on both kernel paths, against the
    dense projector oracle, capped or not."""
    max_weight = data.draw(st.sampled_from([None, *range(code.n + 1)]))
    want = dense_projector_distributions(code, max_weight)
    results = [compute_distributions(code, max_weight=max_weight)]
    for sparse in (False, True):
        with kernel_path(sparse):
            results.append(projector_distributions(code, max_weight=max_weight))
    for key, values in want.items():
        tol = 1e-12 * max(1.0, sum(abs(v) for v in values))
        for got in results:
            assert len(got[key].values) == len(values)
            assert max(abs(x - y) for x, y in zip(got[key].values, values)) <= tol


def _worst_violations(code):
    """Largest block violation of each weight class, with no early exit."""
    return [max(float(block_violations(t)[1].max())
                for t in block_tensors(code, *enumerate_weight(code.q, code.n, d).arrays()))
            for d in range(code.n + 1)]


@settings(SETTINGS, max_examples=60)
@given(code=small_codes(), data=st.data())
def test_all_detectable_column_matches_the_full_scan(code, data):
    worst = _worst_violations(code)
    # A tolerance equal to one of the maxima sits exactly on the boundary.
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.5, *worst]))
    assert detectable_column(code, code.n, tol) == tuple(w <= tol for w in worst)


@settings(SETTINGS, max_examples=300)
@given(data=st.data())
def test_vectorized_detectability_matches_the_loop(data):
    code = data.draw(small_codes())
    err = data.draw(operators(code))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-5, 0.3]))
    rep = detectability(code, err, tol)
    got = (rep.detectable, rep.witness, rep.lambdas,
           rep.max_diag_violation, rep.max_offdiag_violation)
    assert got == loop_detectability(code, err, tol)


def loop_correctable(code, errors, tol):
    """The correctability test one ordered pair (f, e) at a time."""
    for f in errors:
        for e in errors:
            if not detectability(code, compose_adjoint_left(f, e), tol).detectable:
                return False, (f, e)
    return True, None


@contextlib.contextmanager
def pair_block(size):
    """Run is_correctable_set with blocks of size pairs (at least one row each)."""
    default = detection.PAIR_BLOCK
    detection.PAIR_BLOCK = size
    try:
        yield
    finally:
        detection.PAIR_BLOCK = default


@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_correctability_matches_the_pair_loop(data):
    """At the default block size and at blocks of one pair, and of seven,
    so that rows of the pair grid fall into separate blocks."""
    code = data.draw(small_codes())
    q, n = code.q, code.n
    exponents = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    # Small exponent sets with repeats, so composed elements recur.
    errors = data.draw(st.lists(st.builds(lambda x, z: PauliElement(q, n, x, z),
                                          exponents, exponents), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        errors.insert(0, PauliElement.identity(q, n))
    tol = data.draw(st.sampled_from([1e-9, 0.3]))
    want = loop_correctable(code, errors, tol)
    assert is_correctable_set(code, errors, tol) == want
    for size in (1, 7):
        with pair_block(size):
            assert is_correctable_set(code, errors, tol) == want


@pytest.mark.parametrize("extra", ["XXIII", "XZIII", None])
@pytest.mark.parametrize("size", [1, 40, 2**14])
def test_correctability_witness_from_a_later_block(extra, size):
    """The five-qubit code corrects the identity and the 15 weight-1 errors.
    A weight-2 error appended last fails only with a weight-1 f, so at small
    block sizes the failing pair lies in a block after passing ones, at an
    offset inside a block of one or of two rows (40 pairs for 17 errors)."""
    code = from_stabilizer(StabilizerSpec(5, FIVE_QUBIT_GENERATORS))
    errors = [PauliElement.identity(2, 5)] + list(enumerate_weight(2, 5, 1))
    if extra is not None:
        errors.append(parse_element(extra, 2))
    want = loop_correctable(code, errors, 1e-9)
    assert want[0] == (extra is None)
    if extra is not None:
        assert want[1][0] != errors[0]
    with pair_block(size):
        assert is_correctable_set(code, errors, 1e-9) == want


def _cli_json(argv):
    buf = io.StringIO()
    run(argv + ["--format", "json"], stdout=buf, stderr=io.StringIO())
    return json.loads(buf.getvalue())


@SETTINGS
@given(code=small_codes())
def test_distance_and_identities_agree(code):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_code(code))
        for tol in ("0", "1e-9"):
            dist = _cli_json(["distance", path, "--tol", tol])
            ident = _cli_json(["identities", path, "--tol", tol])
            distance = dist["results"]["detection_distance"]
            assert 1 <= distance <= code.n + 1
            assert distance == ident["results"]["detection_distance"]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_exponent_arrays_follow_the_enumeration_order(q):
    for n in range(1, (5 if q == 2 else 4)):
        for d in range(n + 1):
            elements = enumerate_weight(q, n, d)
            xs, zs = elements.arrays()
            assert xs.shape == zs.shape == (len(elements), n)
            rows = [(tuple(x), tuple(z)) for x, z in zip(xs.tolist(), zs.tolist())]
            assert rows == [(e.xvec, e.zvec) for e in elements]


@SETTINGS
@given(code=kernel_codes(8), data=st.data())
def test_kernel_tensors_match_the_dense_products(code, data):
    """Both kernel paths against products with the realized matrices, on
    a whole weight class in every dimension small_codes draws; in larger
    ones, on 96 elements of the class drawn at random."""
    d = data.draw(st.integers(0, code.n))
    xs, zs = enumerate_weight(code.q, code.n, d).arrays()
    if code.dimension > SMALL_CODES_MAX_DIMENSION:
        rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(xs))
        xs, zs = xs[rows[:96]], zs[rows[:96]]
    want = np.array([error_block_tensor(code, realize(PauliElement(code.q, code.n, x, z)))
                     for x, z in zip(xs, zs)])
    for sparse in (False, True):
        with kernel_path(sparse):
            got = np.concatenate(list(block_tensors(code, xs, zs)))
        assert max_abs_diff(got, want) < 1e-12


def _scan_results(code, tol):
    column = detectable_column(code, code.n, tol)
    scans = [all_detectable_of_weight(code, d, tol) for d in range(code.n + 1)]
    errors = [PauliElement.identity(code.q, code.n)] + list(enumerate_weight(code.q, code.n, 1))
    return compute_distributions(code), column, scans, is_correctable_set(code, errors, tol)


@SETTINGS
@given(code=kernel_codes(5), per_chunk=st.sampled_from([1, 7]))
def test_chunk_boundaries_do_not_change_the_results(code, per_chunk):
    """Chunks of one element and of a prime count, so boundaries fall
    inside weight classes, give the default chunks' answers to rounding,
    on both kernel paths.  correctable runs at pair blocks of the same
    sizes."""
    tol = 1e-9
    with kernel_path(sparse=False):
        dists, column, scans, correctable = _scan_results(code, tol)
    default = detection.CHUNK_ENTRIES
    for sparse in (False, True):
        with kernel_path(sparse), pair_block(per_chunk):
            detection.CHUNK_ENTRIES = per_chunk * code.m * code.k * code.dimension
            try:
                again, recolumn, rescans, recorrectable = _scan_results(code, tol)
                # The early exit stops inside a class at these boundaries too.
                worst = _worst_violations(code)
                for t in (0.0, 0.5):
                    assert detectable_column(code, code.n, t) == tuple(w <= t for w in worst)
            finally:
                detection.CHUNK_ENTRIES = default
        for key in ("A", "B", "A_perp", "C"):
            assert max(abs(x - y) for x, y in zip(dists[key].values, again[key].values)) < 1e-12
        assert recolumn == column
        for (ok, fails), (reok, refails) in zip(scans, rescans):
            assert ok == reok
            assert [(f.error, f.witness) for f in fails] == [(f.error, f.witness) for f in refails]
        assert recorrectable == correctable


@settings(SETTINGS, max_examples=60)
@given(spec=stabilizer_specs())
@example(spec=StabilizerSpec(4, ()))
@example(spec=StabilizerSpec(3, ("-YYI", "IYY"), ("-XXX",)))
@example(spec=StabilizerSpec(5, FIVE_QUBIT_GENERATORS[:3], (FIVE_QUBIT_GENERATORS[3], "ZZZZZ"),
                             (1, -1, 1), (-1, 1)))
# Nine qubits whose X parts span t = 7 dimensions: four cosets of 128.
@example(spec=StabilizerSpec(9, ("YZYIZXIXX", "XYXIIIZXZ", "ZZIZXIIZY", "IZIZYIZYI",
                                 "YXZXYYIYZ", "ZYZZXYIIZ"), ("IZIYZXZYZ", "ZIYIXXXYZ"),
                             (-1, -1, 1, 1, 1, -1), (1, -1)))
def test_stabilizer_frames_match_the_dense_oracle(spec):
    """Signed permutations give the dense build's frames bit for bit,
    signs of zeros included."""
    built, dense = from_stabilizer(spec), dense_stabilizer_code(spec)
    assert (built.k, built.m) == (spec.k, spec.m)
    assert built.frames.tobytes() == dense.frames.tobytes()


def _expect_same_outcome(text, strict):
    """parse_code_file and the entrywise oracle: the same code or the same refusal."""
    try:
        want = entrywise_parse_blocks(json.loads(text), strict)
    except CodeFileError as exc:
        with pytest.raises(type(exc)) as got:
            parse_code_file(text, strict)
        assert str(got.value) == str(exc)
        return None, None
    return parse_code_file(text, strict), want


@SETTINGS
@given(code=small_codes(), strict=st.booleans())
def test_parse_matches_the_entrywise_oracle(code, strict):
    got, want = _expect_same_outcome(serialize_code(code), strict)
    assert codes_close(got, want, 1e-12)


@SETTINGS
@given(code=small_codes(), data=st.data())
def test_parse_absorbs_rounding_like_the_oracle(code, data):
    """Each vector moved by at most 1e-7: the strict parse returns frames
    that validate at 1e-9 and lie as close to Gram-Schmidt's as that move."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shift = rng.normal(size=code.frame_stack.shape) + 1j * rng.normal(size=code.frame_stack.shape)
    shift *= rng.uniform(0, 1e-7, size=(len(shift), 1)) / np.linalg.norm(shift, axis=1)[:, None]
    moved = code.frame_stack + shift
    doc = json.loads(serialize_code(code))
    doc["blocks"] = [[[[z.real, z.imag] for z in row] for row in moved[b * code.k:(b + 1) * code.k]]
                     for b in range(code.m)]
    got, want = _expect_same_outcome(json.dumps(doc), True)
    assert validate(got, 1e-9).ok
    assert max_abs_diff(got.frame_stack, want.frame_stack) <= 10 * np.abs(shift).max()


_BAD_ENTRIES = [[True, 0], [0, False], None, "1", 7, [[1, 0], 0], [1], [1, 0, 0],
                [float("nan"), 0], [0, float("inf")], [-float("inf"), 0]]


@SETTINGS
@given(code=small_codes(), strict=st.booleans(), data=st.data())
def test_parse_refuses_corrupt_documents_like_the_oracle(code, strict, data):
    """One corruption per document: the same exception class and message."""
    doc = json.loads(serialize_code(code))
    b = data.draw(st.integers(0, code.m - 1))
    v = data.draw(st.integers(0, code.k - 1))
    e = data.draw(st.integers(0, code.dimension - 1))
    kind = data.draw(st.sampled_from(["entry", "short vector", "long vector", "vector",
                                      "short block", "long block", "short blocks",
                                      "long blocks"]))
    if kind == "entry":
        doc["blocks"][b][v][e] = data.draw(st.sampled_from(_BAD_ENTRIES))
    elif kind == "short vector":
        del doc["blocks"][b][v][e]
    elif kind == "long vector":
        doc["blocks"][b][v].insert(e, [0, 0])
    elif kind == "vector":
        doc["blocks"][b][v] = {"re": 1}
    elif kind == "short block":
        del doc["blocks"][b][v]
    elif kind == "long block":
        doc["blocks"][b].append(doc["blocks"][b][v])
    elif kind == "short blocks":
        del doc["blocks"][b]
    else:
        doc["blocks"].append(doc["blocks"][b])
    got, _ = _expect_same_outcome(json.dumps(doc), strict)
    assert got is None


@settings(SETTINGS, max_examples=100)
@given(code=small_codes(), data=st.data())
def test_validate_matches_the_block_loop(code, data):
    """Frames moved off orthonormal at several scales: the same issues in
    the same order, with magnitudes equal to within rounding.  Every
    tolerance lies orders of magnitude away from every deviation, where
    rounding cannot decide an issue."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1e-12, 1e-6, 0.3]))
    moved = HybridCode(code.q, code.n, code.frames + scale * (
        rng.normal(size=code.frames.shape) + 1j * rng.normal(size=code.frames.shape)))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-3, float("nan")]))
    got, want = validate(moved, tol), loop_validate(moved, tol)
    assert got.ok == want.ok
    assert [(i.kind, i.where) for i in got.issues] == [(i.kind, i.where) for i in want.issues]
    pairs = [(i.magnitude, j.magnitude) for i, j in zip(got.issues, want.issues)]
    pairs += [(got.max_gram_deviation, want.max_gram_deviation),
              (got.max_cross_overlap, want.max_cross_overlap)]
    assert max(abs(x - y) for x, y in pairs) <= 1e-15


@SETTINGS
@given(code=small_codes())
def test_numeric_dimension_matches_the_formula(code):
    if code.dimension > detection.NUMERIC_DIMENSION_GUARD:
        return
    want = detection.detectable_dimension_formula(code.n, code.k, code.m, code.q).hybrid
    assert detection.detectable_dimension_numeric(code) == want
