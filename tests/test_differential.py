"""Differential tests on random small codes: each engine against its reference.

Codes are drawn with q in {2, 3} and q^n <= 27.  The distributions of
both engines, the partial-trace and DFT one and the definitional
element sums, are compared with the dense projector oracle in conftest,
also on stabilizer, monomial and mixed frames up to q^n = 32, and the
definitional counts of a StabilizerSpec with the oracle, or the
partial traces, on from_stabilizer's frames, and its group counts with
both of those; the detectability column (detectable_column)
with a full scan of block violations, the vectorized detectability test
with the block-by-block loop in conftest, the correctability test with the
pair-by-pair loop, and the distance reported by the distance and
identities commands with each other.  The explicit-frame parse is
compared with the entry-by-entry parser and its Gram-Schmidt, on valid,
slightly perturbed and corrupt documents, and validate with the
block-by-block loop.  The rank-based dimension of the detectable
operator space is compared with its closed form.  The batched element kernel
(detection.block_tensors) is compared, on random, stabilizer, monomial
and mixed frames, with the dense-matrix products, a weight class's slices with the
nested-loop enumeration in conftest, and its results at other chunk sizes with those at
the default one.  The StabilizerSpec constructor's packed check rows,
letter words and refusals are compared with the dense int64 construction
in conftest, at chunk budgets that split its commutation check into
blocks.  Stabilizer frames are
compared byte for byte with the dense Kronecker-product construction,
and the check-matrix engine that answers detectability, the weight scans,
the detectability column, the identity check and the correctability test
on a StabilizerSpec with the kernel on those frames, the failing rows
of the engine's commutation screen included.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIVE_QUBIT_GENERATORS,
    check_matrix,
    codes_close,
    compose_adjoint_left,
    dense_projector_distributions,
    dense_stabilizer_tables,
    dense_stabilizer_code,
    entrywise_parse_blocks,
    lexicographic_elements,
    loop_detectability,
    loop_validate,
    max_abs_diff,
    projector,
    random_code,
    random_stabilizer_spec,
)

from hybridec import code_model, detection
from hybridec.cli import run
from hybridec.code_model import (
    CodeFileError,
    HybridCode,
    InvariantError,
    StabilizerSpec,
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
from hybridec.enumerators import (
    WeightDistribution,
    compute_distributions,
    projector_distributions,
    verify_identities,
)
from hybridec.error_basis import (
    PauliElement,
    enumerate_weight,
    parse_element,
    realize,
)

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
    from the definitional element sums, against the dense projector
    oracle, capped or not."""
    max_weight = data.draw(st.sampled_from([None, *range(code.n + 1)]))
    want = dense_projector_distributions(code, max_weight)
    results = [compute_distributions(code, max_weight=max_weight),
               projector_distributions(code, max_weight=max_weight)]
    for key, values in want.items():
        tol = 1e-12 * max(1.0, sum(abs(v) for v in values))
        for got in results:
            assert len(got[key].values) == len(values)
            assert max(abs(x - y) for x, y in zip(got[key].values, values)) <= tol


def class_arrays(q, n, d):
    """The weight-d class as one (xs, zs) pair of arrays, from the nested-loop enumeration."""
    rows = np.array(lexicographic_elements(q, n, d), dtype=np.int64).reshape(-1, 2, n)
    return rows[:, 0], rows[:, 1]


def _worst_violations(code):
    """Largest block violation of each weight class, with no early exit."""
    return [max(float(block_violations(t)[1].max())
                for t in block_tensors(code, *class_arrays(code.q, code.n, d)))
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
def chunk_entries(entries):
    """Set detection.CHUNK_ENTRIES inside the block; None keeps the default."""
    default = detection.CHUNK_ENTRIES
    if entries is not None:
        detection.CHUNK_ENTRIES = entries
    try:
        yield
    finally:
        detection.CHUNK_ENTRIES = default


@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_correctability_matches_the_pair_loop(data):
    """At the default CHUNK_ENTRIES and at 1 and 7, which give
    is_correctable_set blocks of one row f of the pair grid each."""
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
        with chunk_entries(size):
            assert is_correctable_set(code, errors, tol) == want


@pytest.mark.parametrize("extra", ["XXIII", "XZIII", None])
@pytest.mark.parametrize("size", [1, 40, 2**14])
def test_correctability_witness_from_a_later_block(extra, size):
    """The five-qubit code corrects the identity and the 15 weight-1 errors.
    A weight-2 error appended last fails only with a weight-1 f, so at small
    block sizes the failing pair lies in a block after passing ones, at an
    offset inside a block of one or of two rows (CHUNK_ENTRIES 40 for 17
    errors)."""
    code = from_stabilizer(StabilizerSpec(5, FIVE_QUBIT_GENERATORS))
    errors = [PauliElement.identity(2, 5)] + list(enumerate_weight(2, 5, 1))
    if extra is not None:
        errors.append(parse_element(extra, 2))
    want = loop_correctable(code, errors, 1e-9)
    assert want[0] == (extra is None)
    if extra is not None:
        assert want[1][0] != errors[0]
    with chunk_entries(size):
        assert is_correctable_set(code, errors, 1e-9) == want


def test_correctability_witness_from_syndrome_classes():
    """A spec's set is correctable iff each syndrome class on S lies in
    one coset of <S, h>.  The class of III also holds IIX, which flips
    the classical operator IZZ; that of XII, first out of III's coset,
    holds XIZ, a logical away.  So the witness pairs the first class
    leader, III, with IIX: not with XIZ, from another class, and not
    with a leader taken last in its class, XIZ before IIX."""
    spec = StabilizerSpec(3, ("ZZI",), ("IZZ",))
    code = from_stabilizer(spec)
    errors = [parse_element(e, 2) for e in ("III", "XII", "XIZ", "IIX")]
    assert loop_correctable(code, errors, 1e-9) == (False, (errors[0], errors[3]))
    assert is_correctable_set(spec, errors) == (False, (errors[0], errors[3]))
    assert loop_correctable(code, errors, 1.0) == (True, None)
    assert is_correctable_set(spec, errors, 1.0) == (True, None)


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
def test_slices_follow_the_enumeration_order(q):
    """Slices of one row, of seven and of more than the class concatenate
    to the nested-loop enumeration; every slice but the last starts on a
    support boundary and holds at least the rows asked for.  A slice of
    no rows is refused, since it would leave a scan with nothing tested."""
    for n in range(1, (5 if q == 2 else 4)):
        for d in range(n + 1):
            elements = enumerate_weight(q, n, d)
            want = lexicographic_elements(q, n, d)
            per_support = (q * q - 1) ** d
            for size in (1, 7, len(elements) + 1):
                got, start = [], 0
                for xs, zs in elements.slices(size):
                    assert xs.shape == zs.shape and xs.shape[1] == n
                    assert start % per_support == 0
                    assert len(xs) >= size or start + len(xs) == len(want)
                    got += [(tuple(x), tuple(z)) for x, z in zip(xs.tolist(), zs.tolist())]
                    start += len(xs)
                assert got == want
            with pytest.raises(ValueError):
                next(elements.slices(0))


@SETTINGS
@given(code=kernel_codes(8), data=st.data())
def test_kernel_tensors_match_the_dense_products(code, data):
    """The kernel against products with the realized matrices, on a whole
    weight class in every dimension small_codes draws; in larger ones, on
    96 elements of the class drawn at random."""
    d = data.draw(st.integers(0, code.n))
    xs, zs = class_arrays(code.q, code.n, d)
    if code.dimension > SMALL_CODES_MAX_DIMENSION:
        rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(xs))
        xs, zs = xs[rows[:96]], zs[rows[:96]]
    want = np.array([error_block_tensor(code, realize(PauliElement(code.q, code.n, x, z)))
                     for x, z in zip(xs, zs)])
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
    inside weight classes, give the default chunks' answers to rounding.
    correctable forms its blocks of rows f from the same CHUNK_ENTRIES."""
    tol = 1e-9
    dists, column, scans, correctable = _scan_results(code, tol)
    with chunk_entries(per_chunk * code.m * code.k * code.dimension):
        again, recolumn, rescans, recorrectable = _scan_results(code, tol)
        # The early exit stops inside a class at these boundaries too.
        worst = _worst_violations(code)
        for t in (0.0, 0.5):
            assert detectable_column(code, code.n, t) == tuple(w <= t for w in worst)
    for key in ("A", "B", "A_perp", "C"):
        assert max(abs(x - y) for x, y in zip(dists[key].values, again[key].values)) < 1e-12
    assert recolumn == column
    for (ok, fails), (reok, refails) in zip(scans, rescans):
        assert ok == reok
        assert [(f.error, f.witness) for f in fails] == [(f.error, f.witness) for f in refails]
    assert recorrectable == correctable


EXAMPLE_SPECS = (
    StabilizerSpec(4, ()),
    StabilizerSpec(3, ("-YYI", "IYY"), ("-XXX",)),
    StabilizerSpec(5, FIVE_QUBIT_GENERATORS[:3], (FIVE_QUBIT_GENERATORS[3], "ZZZZZ"),
                   (1, -1, 1), (-1, 1)),
    # Nine qubits whose X parts span t = 7 dimensions: four cosets of 128.
    StabilizerSpec(9, ("YZYIZXIXX", "XYXIIIZXZ", "ZZIZXIIZY", "IZIZYIZYI",
                       "YXZXYYIYZ", "ZYZZXYIIZ"), ("IZIYZXZYZ", "ZIYIXXXYZ"),
                   (-1, -1, 1, 1, 1, -1), (1, -1)),
)


def with_example_specs(**arguments):
    """Run a test on EXAMPLE_SPECS, with the other arguments given, besides its drawn specs."""
    def decorate(test):
        for spec in reversed(EXAMPLE_SPECS):
            test = example(spec=spec, **arguments)(test)
        return test
    return decorate


@st.composite
def stabilizer_arguments(draw):
    """Arguments of StabilizerSpec on up to 130 qubits, and up to 40
    operators, that it accepts or refuses: Z on the first qubits
    conjugated by 4n random H, S and CNOT gates (commuting and
    independent), then perhaps a product of some of them inserted
    (dependent), a letter changed (mostly clashing), both, a letter
    outside I, X, Y, Z, a wrong length or a sign of 2."""
    n = draw(st.integers(1, 130))
    total = draw(st.integers(0, min(n, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, z = np.zeros((total, n), dtype=np.uint8), np.eye(total, n, dtype=np.uint8)
    for gate, i, j in zip(rng.integers(3, size=4 * n), rng.integers(n, size=4 * n),
                          rng.integers(n, size=4 * n)):
        if gate == 0:
            x[:, i], z[:, i] = z[:, i].copy(), x[:, i].copy()
        elif gate == 1:
            z[:, i] ^= x[:, i]
        elif i != j:
            x[:, j] ^= x[:, i]
            z[:, i] ^= z[:, j]
    fault = draw(st.sampled_from(["none", "dependent", "clash", "both", "letter", "length",
                                  "sign"]))
    if fault in ("dependent", "both"):
        chosen = rng.integers(0, 2, total).astype(bool)
        at = rng.integers(total + 1)
        x = np.insert(x, at, np.bitwise_xor.reduce(x[chosen], axis=0), axis=0)
        z = np.insert(z, at, np.bitwise_xor.reduce(z[chosen], axis=0), axis=0)
    ops = ["".join(row) for row in np.array([["I", "Z"], ["X", "Y"]])[x, z]]
    if ops and fault in ("clash", "both", "letter", "length"):
        # A letter on the support of another operator changes the pair's
        # commutation for two of the three other letters.
        i, k = rng.integers(len(ops), size=2)
        j = rng.choice([j for j, ch in enumerate(ops[k]) if ch != "I"] or [0])
        letter = {"letter": "Q", "length": ops[i][j] * 2}.get(
            fault, rng.choice([ch for ch in "IXYZ" if ch != ops[i][j]]))
        ops[i] = ops[i][:j] + letter + ops[i][j + 1:]
    signs = rng.choice([1, -1], len(ops)).tolist()
    if signs and fault == "sign":
        signs[rng.integers(len(signs))] = 2
    ops = [("-" if rng.integers(4) == 0 else "") + op for op in ops]
    r = draw(st.integers(0, len(ops)))
    return n, tuple(ops[:r]), tuple(ops[r:]), tuple(signs[:r]), tuple(signs[r:])


@settings(SETTINGS, max_examples=200)
@given(arguments=stabilizer_arguments(), budget=st.sampled_from([1, 7, 64, None]))
@example(arguments=(2, ("XX", "ZI"), (), (), ()), budget=None)
@example(arguments=(4, ("XIII", "IZII", "IIXI", "ZIIZ"), (), (), ()), budget=1)
@example(arguments=(2, ("XX", "ZI", "ZZ", "ZZ"), (), (), ()), budget=1)
@example(arguments=(100, tuple("I" * i + "ZZ" + "I" * (98 - i) for i in range(99)),
                    ("X" * 100,), (), ()), budget=7)
def test_packed_constructor_matches_the_dense_one(arguments, budget):
    """StabilizerSpec's check_rows and _letter_words, or its refusal
    message, equal conftest.dense_stabilizer_tables' at the default
    CHUNK_ENTRIES and at budgets that split the commutation check into
    blocks of one row or a few, so a clash is named in (i, j > i) order
    across blocks and before any dependence."""
    def outcome(build):
        try:
            return build(*arguments)
        except InvariantError as exc:
            return str(exc)

    want = outcome(dense_stabilizer_tables)
    with contextlib.ExitStack() as stack:
        if budget is not None:
            stack.enter_context(mock.patch.object(code_model, "CHUNK_ENTRIES", budget))
        got = outcome(lambda *a: (lambda spec: (spec.check_rows, spec._letter_words))(
            StabilizerSpec(*a)))
    if isinstance(want, str):
        assert got == want
    else:
        for table, dense in zip(got, want):
            assert (table.dtype, table.shape) == (dense.dtype, dense.shape)
            assert np.array_equal(table, dense)


@settings(SETTINGS, max_examples=60)
@given(spec=stabilizer_specs())
@with_example_specs()
def test_stabilizer_frames_match_the_dense_oracle(spec):
    """Signed permutations give the dense build's frames bit for bit,
    signs of zeros included."""
    built, dense = from_stabilizer(spec), dense_stabilizer_code(spec)
    assert (built.k, built.m) == (spec.k, spec.m)
    assert built.frames.tobytes() == dense.frames.tobytes()


def slice_rows(rows, n):
    """Read a StabilizerSpec's weight classes in detection.scan_supports of
    the given number of rows on n qubits; None keeps the default."""
    return chunk_entries(None if rows is None else rows * 2 * -(-n // 64))


def _same_reports(got, want):
    assert (got.error, got.detectable, got.witness) == (want.error, want.detectable, want.witness)
    assert abs(got.max_diag_violation - want.max_diag_violation) <= 1e-12
    assert abs(got.max_offdiag_violation - want.max_offdiag_violation) <= 1e-12
    if want.lambdas is not None:
        assert max(abs(x - y) for x, y in zip(got.lambdas, want.lambdas)) <= 1e-12


@settings(SETTINGS, max_examples=60)
@given(spec=stabilizer_specs(), seed=st.integers(0, 2**32 - 1))
@with_example_specs(seed=0)
def test_check_matrix_engine_matches_the_frame_kernel(spec, seed):
    """detectability, every weight scan and the correctability test on a
    StabilizerSpec, answered from its check matrix, against the same
    calls on from_stabilizer's frames, where the block kernel decides.
    Random elements mostly leave the code, so half of them are drawn
    from <S, h>, where the block scalars carry the phases.  The spec's
    scans read slices of one row, of seven and of the default size, so
    the counterexample list also runs across slice boundaries."""
    code, n = from_stabilizer(spec), spec.n
    rng = np.random.default_rng(seed)
    matrix = check_matrix(spec)
    group = rng.integers(0, 2, (8, len(matrix))) @ matrix % 2
    rows = np.concatenate([rng.integers(0, 2, (8, 2 * n)), group])
    elements = [PauliElement(2, n, row[:n], row[n:]) for row in rows]
    for err in elements:
        for tol in (1e-9, 1.0):
            _same_reports(detectability(spec, err, tol), detectability(code, err, tol))
    for d in range(n + 1):
        if len(enumerate_weight(2, n, d)) > detection.SCAN_GUARD:
            continue
        want_ok, want_fails = all_detectable_of_weight(code, d)
        for size in (1, 7, None):
            with slice_rows(size, n):
                ok, fails = all_detectable_of_weight(spec, d)
            assert ok == want_ok and len(fails) == len(want_fails)
            for got, want in zip(fails, want_fails):
                _same_reports(got, want)
    errors = [elements[i] for i in rng.integers(0, len(elements), rng.integers(1, 7))]
    if rng.integers(2):
        errors.insert(0, PauliElement.identity(2, n))
    assert is_correctable_set(spec, errors) == is_correctable_set(code, errors)


@settings(SETTINGS, max_examples=30)
@given(n=st.integers(1, 6), data=st.data())
def test_letter_words_answer_as_the_frame_kernel(n, data):
    """Every stabilizer question answered from the letter words of a
    conftest.random_stabilizer_spec against the block kernel on
    from_stabilizer's frames: detectability (verdict, witness and block
    scalars) at tol 1e-9 and 1.0; each weight scan in slices of one row,
    of seven and of the default size (the same counterexamples, in
    enumeration order); the definitional counts, exactly; and
    is_correctable_set at tol 1e-9 and 1.0 (verdict and witness).  The
    elements are drawn from <S, h>, from the weight-1 and weight-2
    classes, from their products and at random, so that members of
    <S, h>, logicals, flipped blocks and failures at several pairs occur."""
    total = data.draw(st.integers(0, n))
    c = data.draw(st.integers(0, min(total, 3)))
    spec = random_stabilizer_spec(n, total - c, c, seed=data.draw(st.integers(0, 2**32 - 1)))
    code, rng = from_stabilizer(spec), np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    matrix = check_matrix(spec)
    group = rng.integers(0, 2, (6, len(matrix))) @ matrix % 2
    low = np.concatenate([np.concatenate(class_arrays(2, n, d), axis=1) for d in (1, 2) if d <= n])
    low = low[rng.integers(0, len(low), 6)]
    rows = np.concatenate([group, low, (group[:3, None] + low[None, :3]).reshape(-1, 2 * n) % 2,
                           rng.integers(0, 2, (4, 2 * n))])
    elements = [PauliElement(2, n, row[:n], row[n:]) for row in rows]
    for err in elements:
        for tol in (1e-9, 1.0):
            _same_reports(detectability(spec, err, tol), detectability(code, err, tol))
    for d in range(n + 1):
        want_ok, want_fails = all_detectable_of_weight(code, d, max_counterexamples=20)
        for size in (1, 7, None):
            with slice_rows(size, n):
                ok, fails = all_detectable_of_weight(spec, d, max_counterexamples=20)
            assert ok == want_ok and len(fails) == len(want_fails)
            for got, want in zip(fails, want_fails):
                _same_reports(got, want)
    frames = projector_distributions(code)
    for key, dist in projector_distributions(spec).items():
        assert dist.exact_values == tuple(Fraction(round(v)) for v in frames[key].values), key
    for _ in range(6):
        errors = [elements[i] for i in rng.integers(0, len(elements), rng.integers(1, 9))]
        for tol in (1e-9, 1.0):
            assert is_correctable_set(spec, errors, tol) == is_correctable_set(code, errors, tol)


@settings(SETTINGS, max_examples=60)
@given(spec=stabilizer_specs())
@with_example_specs()
def test_check_matrix_column_and_identities_match_the_frame_kernel(spec):
    """detectable_column and verify_identities on a StabilizerSpec, whose
    column comes from the commutation screen on the check matrix, against
    the same calls on from_stabilizer's frames, where the block kernel
    decides: the column at every max_d and both tolerances, its weight
    classes read in slices of one row, of seven and of the default size,
    and the identity report field by field: its exact values, verdicts
    and distance equal, and each of the spec's floats the float of its
    exact value, so its residuals are 0.  Both stop, like
    compute_distributions, where the scanned weights outgrow SCAN_GUARD
    (n = 9)."""
    code, n = from_stabilizer(spec), spec.n
    sizes = np.cumsum([len(enumerate_weight(2, n, d)) for d in range(n + 1)])
    top = int(np.searchsorted(sizes, detection.SCAN_GUARD, side="right")) - 1
    for tol in (1e-9, 0.5):
        want = detectable_column(code, top, tol)
        for size in (1, 7, None):
            with slice_rows(size, n):
                for max_d in range(top + 1):
                    assert detectable_column(spec, max_d, tol) == want[:max_d + 1]
    if top < n:
        return
    got, want = verify_identities(spec), verify_identities(code)
    for field in dataclasses.fields(want):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        if isinstance(mine, WeightDistribution):
            assert mine.exact_values == theirs.exact_values, field.name
            assert mine.values == tuple(float(v) for v in mine.exact_values), field.name
        elif field.name.endswith("residual"):
            assert mine == 0.0, field.name
        else:
            assert mine == theirs, field.name


# Largest 32^n M^2, the dense projector oracle's work on a stabilizer
# code (4^n elements, each M^2 products of 2^n x 2^n matrices), for which
# the definitional counts are compared with it: about 0.05 s.
DENSE_ORACLE_WORK = 2**27


@settings(SETTINGS, max_examples=60)
@given(spec=stabilizer_specs(max_n=6))
@with_example_specs()
def test_stabilizer_counts_match_the_frame_sums(spec):
    """projector_distributions on a StabilizerSpec counts the classes of
    the commutation screen.  On from_stabilizer's frames the dense
    projector oracle, where its work fits DENSE_ORACLE_WORK, and else the
    partial-trace and DFT engine, give the same four distributions to 1e-12
    relative, at every max_weight within SCAN_GUARD and with the classes
    read in slices of one row, of seven and of the default size; the
    counts' exact values are integers, the oracle's values rounded."""
    code, n = from_stabilizer(spec), spec.n
    sizes = np.cumsum([len(enumerate_weight(2, n, d)) for d in range(n + 1)])
    top = int(np.searchsorted(sizes, detection.SCAN_GUARD, side="right")) - 1
    if 32**n * spec.m**2 <= DENSE_ORACLE_WORK:
        want = dense_projector_distributions(code, top)
    else:
        want = {key: dist.values for key, dist in compute_distributions(code, max_weight=top).items()}
    for max_weight, size in itertools.product(
            ([None] if top == n else []) + list(range(top + 1)), (1, 7, None)):
        with slice_rows(size, n):
            got = projector_distributions(spec, max_weight=max_weight)
        for key, values in want.items():
            values = values[:n + 1 if max_weight is None else max_weight + 1]
            tol = 1e-12 * max(1.0, sum(abs(v) for v in values))
            assert len(got[key].values) == len(values)
            assert max(abs(x - y) for x, y in zip(got[key].values, values)) <= tol
            assert got[key].exact_values == tuple(Fraction(round(v)) for v in values)


@settings(SETTINGS, max_examples=40)
@given(spec=stabilizer_specs(max_n=8))
@with_example_specs()
def test_group_counts_match_the_screen_and_the_frames(spec):
    """compute_distributions on a StabilizerSpec counts the span of its
    check rows and transforms the counts.  The per-element counts of
    projector_distributions and the snapped partial-trace and DFT engine
    on from_stabilizer's frames give the same four exact distributions,
    at every max_weight within SCAN_GUARD, with the span walked one
    element, eight elements or the default chunk at a time; each float
    is the float of its exact value."""
    n = spec.n
    sizes = np.cumsum([len(enumerate_weight(2, n, d)) for d in range(n + 1)])
    top = int(np.searchsorted(sizes, detection.SCAN_GUARD, side="right")) - 1
    screened = projector_distributions(spec, max_weight=top)
    framed = compute_distributions(from_stabilizer(spec), max_weight=top)
    for key, dist in screened.items():
        assert framed[key].exact_values == dist.exact_values, key
    words = -(-n // 64)
    for entries, max_weight in itertools.product(
            (2 * words, 16 * words, None), ([None] if top == n else []) + list(range(top + 1))):
        with chunk_entries(entries):
            got = compute_distributions(spec, max_weight=max_weight)
        for key, dist in screened.items():
            want = dist.exact_values[:n + 1 if max_weight is None else max_weight + 1]
            assert got[key].exact_values == want, key
            assert got[key].values == tuple(float(v) for v in want), key


@settings(SETTINGS, max_examples=60)
@given(spec=stabilizer_specs(), seed=st.integers(0, 2**32 - 1))
@with_example_specs(seed=0)
def test_commutation_screen_keeps_the_full_answers_failing_rows(spec, seed):
    """The failing rows of a StabilizerSpec come from a commutation screen
    (detection.stabilizer_screen) of their supports: the rows commuting
    with S outside <S, h>.  They are the rows where block_violations of
    the kernel on from_stabilizer's frames has v.max() > tol, each with
    the _verdict of that v: the same witness and violations within 1e-12.
    The rows mix random elements, elements of <S, h>, the weight-1 and
    weight-2 classes, and their products with elements of <S, h>, so
    that logical elements, inside and outside <S, h>, occur; the screen
    reads each as its support and letters."""
    n = spec.n
    rng = np.random.default_rng(seed)
    matrix = check_matrix(spec)
    group = rng.integers(0, 2, (8, len(matrix))) @ matrix % 2
    low = np.concatenate([np.concatenate(class_arrays(2, n, d), axis=1)
                          for d in (1, 2) if d <= n])
    low = low[np.sort(rng.permutation(len(low))[:24])]
    rows = np.concatenate([rng.integers(0, 2, (8, 2 * n)), group, low,
                           (group[:, None] + low[None, :6]).reshape(-1, 2 * n) % 2])
    xs, zs = rows[:, :n], rows[:, n:]
    code = from_stabilizer(spec)
    for tol in (1e-9, 1.0):
        want, start = [], 0
        for _, v in map(block_violations, block_tensors(code, xs, zs)):
            want += [(start + i, detection._verdict(v[i], tol))
                     for i in np.flatnonzero(v.max(axis=(1, 2)) > tol)]
            start += len(v)
        got = []
        for i, (x, z) in enumerate(zip(xs, zs)):
            support = np.flatnonzero(x | z)
            rows, flips, member, _ = detection.stabilizer_screen(
                spec, support[None], (2 * x + z - 1)[support][None])
            if len(rows) and not member[0] and 1.0 > tol:
                got.append((i, detection._flip_verdict(flips[0], tol)))
        assert [row for row, _ in got] == [row for row, _ in want]
        for (_, verdict), (_, want_verdict) in zip(got, want):
            assert verdict[2] == want_verdict[2]
            assert max_abs_diff(verdict[:2], want_verdict[:2]) <= 1e-12


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
