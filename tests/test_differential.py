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
slightly perturbed and corrupt documents, in other JSON layouts and on
malformed text (json.loads's refusal), and validate with the
block-by-block loop.  The rank-based dimension of the detectable
operator space is compared with its closed form.  The batched element kernel
(detection.block_tensors) is compared, on random, stabilizer, monomial
and mixed frames, with the dense-matrix products, the walk over weight classes
(detection.scan's shares) with the nested-loop enumeration in conftest, and its results at other chunk sizes with those at
the default one.  The StabilizerSpec constructor's packed check rows,
letter words and refusals are compared with the dense int64 construction
in conftest, at chunk budgets that split its commutation check into
blocks, and its pivot-keyed GF(2) reduction (code_model._gf2_basis) and
the coset layout read off it with the re-sorting reduction in conftest
on random vector lists.  Stabilizer frames are
compared byte for byte with the dense Kronecker-product construction,
and the check-matrix engine that answers detectability, the weight scans,
the detectability column, the identity check and the correctability test
on a StabilizerSpec with the kernel on those frames, the failing rows
of the engine's commutation screen included.
"""

import contextlib
import dataclasses
import functools
import gc
import io
import itertools
import json
import operator
import os
import random
import re
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
    kron_chain_oracle,
    lexicographic_elements,
    loop_detectability,
    loop_validate,
    max_abs_diff,
    projector,
    resorting_gf2_basis,
    random_code,
    random_stabilizer_spec,
)

from hybridec import code_model, detection
from hybridec.cli import run
from hybridec.code_model import (
    CodeFileError,
    HybridCode,
    InvariantError,
    MalformedDocumentError,
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
    simulate_transmission,
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
    exponent_rows,
    letter_weights,
    parse_element,
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
    return kron_chain_oracle(elem) + scale * rng.normal(size=(dim, dim))


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


def chunk_entries(entries):
    """Set code_model.CHUNK_ENTRIES, which every chunked loop reads at call
    time, inside the block; None keeps the default."""
    if entries is None:
        return contextlib.nullcontext()
    return mock.patch.object(code_model, "CHUNK_ENTRIES", entries)


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
def test_the_walk_follows_the_enumeration_order(q):
    """detection.scan's shares of one row, of seven and of more than a class,
    spelled out as exponent rows: one class's rows concatenate to the
    nested-loop enumeration; with all the classes of weight 0..n in one
    walk, each class's rows keep that order and letter_weights names them."""
    for n in range(1, (5 if q == 2 else 4)):
        classes = [enumerate_weight(q, n, d) for d in range(n + 1)]
        for budget in (1, 7, 4**n + 1):
            for d, elements in enumerate(classes):
                got = []
                for letters in detection._shares([elements], budget, [True]):
                    assert len(letters) <= budget
                    xs, zs = exponent_rows(q, n, letters)
                    got += [(tuple(x), tuple(z)) for x, z in zip(xs.tolist(), zs.tolist())]
                assert got == lexicographic_elements(q, n, d)
            got = {d: [] for d in range(n + 1)}
            for letters in detection._shares(classes, budget, [True] * (n + 1)):
                xs, zs = exponent_rows(q, n, letters)
                weights = letter_weights(q, n, letters)
                assert len(xs) <= budget
                assert (weights == np.count_nonzero(xs | zs, axis=1)).all()
                for d, x, z in zip(weights.tolist(), xs.tolist(), zs.tolist()):
                    got[d].append((tuple(x), tuple(z)))
            assert got == {d: lexicographic_elements(q, n, d) for d in range(n + 1)}


@SETTINGS
@given(spec=stabilizer_specs(), pad=st.integers(1, 3))
def test_the_empty_letter_pads_a_row_to_no_effect(spec, pad):
    """The empty letter (q^2 - 1) n that pads a lighter row changes nothing:
    column 3n of a spec's _letter_words is zero, a share of its classes of
    weight 0..3 with pad more empty letters on every row screens to the same
    (rows, flips, member, beta), and at q = 2 and 3 every row of weight 0..2
    spells out the same exponent_rows, from which counterexamples are
    decoded, and the same letter_weights."""
    n = spec.n
    assert spec._letter_words.shape[1] == 3 * n + 1 and not spec._letter_words[:, 3 * n].any()
    classes = [enumerate_weight(2, n, d) for d in range(min(n, 3) + 1)]
    for letters in detection._shares(classes, 64, [True] * len(classes)):
        padded = np.hstack([letters, np.full((len(letters), pad), 3 * n)])
        for got, want in zip(detection.stabilizer_screen(spec, padded),
                             detection.stabilizer_screen(spec, letters)):
            assert np.array_equal(got, want)
    for q in (2, 3):
        classes = [enumerate_weight(q, n, d) for d in range(min(n, 2) + 1)]
        for letters in detection._shares(classes, 64, [True] * len(classes)):
            padded = np.hstack([letters, np.full((len(letters), pad), (q * q - 1) * n)])
            assert np.array_equal(exponent_rows(q, n, padded), exponent_rows(q, n, letters))
            assert np.array_equal(letter_weights(q, n, padded), letter_weights(q, n, letters))


@SETTINGS
@given(code=kernel_codes(8), data=st.data())
def test_kernel_tensors_match_the_dense_products(code, data):
    """The kernel against products with the Kronecker-chain matrices, on a whole
    weight class in every dimension small_codes draws; in larger ones, on
    96 elements of the class drawn at random."""
    d = data.draw(st.integers(0, code.n))
    xs, zs = class_arrays(code.q, code.n, d)
    if code.dimension > SMALL_CODES_MAX_DIMENSION:
        rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(xs))
        xs, zs = xs[rows[:96]], zs[rows[:96]]
    want = np.array([error_block_tensor(
        code, kron_chain_oracle(PauliElement(code.q, code.n, x, z))) for x, z in zip(xs, zs)])
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


def placed(n, letters):
    """The n-qubit operator string with letter letters[j] on each qubit j listed."""
    return "".join(letters.get(j, "I") for j in range(n))


def z_rows_but(changed):
    """Z on each of 100 qubits, one row each, as 80 generators and 20
    classical operators, but row i holds placed(100, changed[i]) where given."""
    rows = tuple(placed(100, changed.get(i, {i: "Z"})) for i in range(100))
    return 100, rows[:80], rows[80:], (), ()


@settings(SETTINGS, max_examples=200)
@given(arguments=stabilizer_arguments(), budget=st.sampled_from([1, 7, 64, None]))
@example(arguments=(2, ("XX", "ZI"), (), (), ()), budget=None)
@example(arguments=(4, ("XIII", "IZII", "IIXI", "ZIIZ"), (), (), ()), budget=1)
@example(arguments=(2, ("XX", "ZI", "ZZ", "ZZ"), (), (), ()), budget=1)
@example(arguments=(100, tuple("I" * i + "ZZ" + "I" * (98 - i) for i in range(99)),
                    ("X" * 100,), (), ()), budget=7)
# Rows 70 and 72 clash with rows 90 and 95, all past the first 64 rows,
# and (70, 90) comes first.  Then (3, 90), across two blocks of 64 rows,
# comes before (70, 95).
@example(arguments=z_rows_but({90: {70: "X"}, 95: {70: "X", 72: "X"}}), budget=1)
@example(arguments=z_rows_but({90: {3: "X"}, 95: {70: "X"}}), budget=None)
# t = 64 and t = 128 rows exactly: flags fill one and two words.
@example(arguments=(65, tuple(placed(65, {j: "Z", j + 1: "Z"}) for j in range(60)),
                    tuple(placed(65, {j: "Z", j + 1: "Z"}) for j in range(60, 64)), (), ()),
         budget=None)
@example(arguments=(130, tuple(placed(130, {2 * j: p, 2 * j + 1: p})
                               for j in range(64) for p in "XZ"), (), (), ()), budget=7)
# Dependences past row 64: Z_3 Z_75 after 80 one-qubit Z rows, and Z_0 Z_99
# after the 99 rows Z_j Z_{j+1}.
@example(arguments=(100, tuple(placed(100, {j: "Z"}) for j in range(80))
                    + (placed(100, {3: "Z", 75: "Z"}),), (), (), ()), budget=None)
@example(arguments=(100, tuple(placed(100, {j: "Z", j + 1: "Z"}) for j in range(99)),
                    (placed(100, {0: "Z", 99: "Z"}),), (), ()), budget=1)
# An all-I row, which has no letters, among commuting rows and among clashing ones.
@example(arguments=(3, ("XXI", "III", "ZZI"), (), (), ()), budget=None)
@example(arguments=(3, ("XXI", "ZZI"), ("III",), (), ()), budget=None)
@example(arguments=(3, ("III", "XII", "ZII"), (), (), ()), budget=None)
# Letters read one byte each: a non-ASCII letter, "ß" (upper case "SS", one
# letter longer), a control byte, lower case, and whitespace and signs
# around the operators.
@example(arguments=(3, ("XIZ", "ZΩX"), (), (), ()), budget=None)
@example(arguments=(2, ("ZI", "ßZ"), (), (), ()), budget=None)
@example(arguments=(3, ("X\x01Z",), (), (), ()), budget=None)
# Bytes 0, 1 and 2, which a partial table would read as bits or as its own
# mark, and a non-ASCII letter, each in the second block of 64 rows.
@example(arguments=z_rows_but({70: {5: "\x01"}}), budget=None)
@example(arguments=z_rows_but({66: {66: "\x00"}, 80: {80: "\x02"}}), budget=1)
@example(arguments=z_rows_but({70: {70: "é"}}), budget=None)
@example(arguments=(3, ("xxi", "zzi"), ("iiy",), (), ()), budget=None)
@example(arguments=(2, ("\t-XX\n", " +zz "), (), (-1, 1), ()), budget=None)
# A bad letter before a wrong length, and after one; two bad letters, one
# in each block of 64 rows, named in row order.
@example(arguments=(2, ("XQ", "ZZZ"), (), (), ()), budget=None)
@example(arguments=(2, ("ZZZ", "XQ"), (), (), ()), budget=None)
@example(arguments=z_rows_but({3: {3: "Q"}, 70: {70: "Q"}}), budget=None)
def test_packed_constructor_matches_the_dense_one(arguments, budget):
    """StabilizerSpec's check_rows and _letter_words, or its refusal
    message, equal conftest.dense_stabilizer_tables': a clash is named in
    (i, j > i) order and before any dependence.  The examples reach past
    the first 64 rows, one word of flags.  Each budget is a CHUNK_ENTRIES,
    which the constructor does not read, so the answers do not move."""
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


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_ints_reads_rows_as_binary_numerals(data):
    """code_model._ints reads each row of 0s and 1s as int(row, 2), at
    widths that are multiples of 8 and widths that are not, and as 0 at
    width 0 (a screen's flags on a code with no classical operators)."""
    width = data.draw(st.sampled_from([0, 1, 7, 8, 9, 63, 65, 130]) | st.integers(1, 300))
    rows = data.draw(st.integers(0, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2, (rows, width), dtype=np.uint8)
    bits[:, : data.draw(st.integers(0, width))] = 0
    assert code_model._ints(bits) == [int("0" + "".join(map(str, row)), 2) for row in bits.tolist()]


@st.composite
def gf2_vector_lists(draw):
    """Up to 40 bit vectors of one width from 1 to 5000 bits, all sparse
    (two bits, perhaps the same one) or all dense, with zero vectors,
    repeats and XORs of earlier entries among them."""
    width = draw(st.sampled_from([1, 2, 63, 64, 65]) | st.integers(1, 5000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sparse = draw(st.booleans())
    vectors = []
    for kind in draw(st.lists(st.sampled_from("nnnzrx"), max_size=40)):
        if kind == "z" or (kind in "rx" and not vectors):
            vectors.append(0)
        elif kind == "r":
            vectors.append(rng.choice(vectors))
        elif kind == "x":
            vectors.append(functools.reduce(operator.xor, rng.sample(
                vectors, rng.randint(1, len(vectors)))))
        elif sparse:
            vectors.append(1 << rng.randrange(width) | 1 << rng.randrange(width))
        else:
            vectors.append(rng.getrandbits(width))
    return vectors


@settings(SETTINGS, max_examples=300)
@given(vectors=gf2_vector_lists())
@example(vectors=[])
@example(vectors=[0, 0])
@example(vectors=[0b110, 0b011, 0b101, 0b110, 0b1000])
@example(vectors=[1 << i | 1 << i + 1 for i in range(200)])
def test_gf2_basis_matches_the_resorting_reduction(vectors):
    """code_model._gf2_basis gives conftest.resorting_gf2_basis' vectors,
    in the same descending order, each keyed by its leading bit."""
    want = resorting_gf2_basis(vectors)
    assert list(code_model._gf2_basis(vectors).items()) == [
        (b.bit_length() - 1, b) for b in want]


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_coset_layout_matches_the_resorting_reduction(data):
    """_coset_layout's grid and coordinates equal those read off
    resorting_gf2_basis' list, with each pivot taken from its vector's
    bit length and the reps the indices with every pivot clear."""
    n = data.draw(st.integers(1, 8))
    x_parts = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=10))
    basis = resorting_gf2_basis(x_parts)
    pivots = [b.bit_length() - 1 for b in basis]
    index = np.arange(2**n, dtype=np.int64)
    offsets = np.zeros(1, dtype=np.int64)
    for b in basis:
        offsets = np.concatenate([offsets, offsets ^ b])
    grid = index[(index & sum(1 << p for p in pivots)) == 0][:, None] ^ offsets[None, :]
    got_grid, got_coords = code_model._coset_layout(x_parts, n)
    assert (got_grid.dtype, got_grid.shape) == (grid.dtype, grid.shape)
    assert np.array_equal(got_grid, grid)
    assert got_coords == [sum(1 << j for j, p in enumerate(pivots) if a >> p & 1)
                          for a in x_parts]


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
    """Read a StabilizerSpec's weight classes in detection.scan shares of
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


@settings(SETTINGS, max_examples=40)
@given(n=st.integers(1, 10), data=st.data())
def test_stabilizer_validate_and_simulate_match_the_frame_path(n, data):
    """validate and simulate_transmission on a conftest.random_stabilizer_spec,
    answered from its check rows, against the frame path on its
    from_stabilizer frames: the verdict (the spec's exact at tol 0), each
    outcome probability to 1e-12, the counts exactly and the post-state
    fidelity to 1e-12, on a basis state and a random state.  The errors are
    elements of <S, h> and, picked from random elements by their
    symplectic products with the rows, elements commuting with S and h
    (logicals, where K > 1), block flippers and elements anticommuting
    with S, each class that the spec has."""
    total = data.draw(st.integers(0, n))
    c = data.draw(st.integers(0, min(total, 3)))
    r = total - c
    spec = random_stabilizer_spec(n, r, c, seed=data.draw(st.integers(0, 2**32 - 1)))
    code, rng = from_stabilizer(spec), np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    exact = validate(spec, 0.0)
    assert (exact.ok, exact.max_gram_deviation, exact.max_cross_overlap, exact.issues) == (
        True, 0.0, 0.0, ())
    assert validate(spec).ok is validate(code).ok is True
    matrix = check_matrix(spec)
    candidates = rng.integers(0, 2, (4096, 2 * n))
    products = candidates @ np.roll(matrix, n, axis=1).T % 2
    kinds = [~products.any(axis=1), ~products[:, :r].any(axis=1) & products[:, r:].any(axis=1),
             products[:, :r].any(axis=1)]
    picked = [candidates[np.flatnonzero(kind)[:2]] for kind in kinds]
    rows = np.concatenate([rng.integers(0, 2, (2, len(matrix))) @ matrix % 2, *picked])
    for row in rows:
        err, m = PauliElement(2, n, row[:n], row[n:]), int(rng.integers(1, spec.m + 1))
        phi = rng.normal(size=spec.k) + 1j * rng.normal(size=spec.k)
        for state in (np.eye(spec.k)[rng.integers(spec.k)], phi / np.linalg.norm(phi)):
            seed = int(rng.integers(1000))
            got = simulate_transmission(spec, m, state, err, 1000, seed)
            want = simulate_transmission(code, m, state, err, 1000, seed)
            assert got.counts == want.counts
            assert got.probabilities.keys() == want.probabilities.keys()
            assert max_abs_diff(list(got.probabilities.values()),
                                list(want.probabilities.values())) < 1e-12
            assert set(got.probabilities.values()) <= {0.0, 1.0}
            assert (got.post_state_fidelity is None) is (want.post_state_fidelity is None)
            if got.post_state_fidelity is not None:
                assert abs(got.post_state_fidelity - want.post_state_fidelity) < 1e-12


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
    relative, at every max_weight within SCAN_GUARD with the classes read
    in slices of the default size, and on the widest of those scans, which
    crosses every class boundary, also in slices of one row and of seven;
    the counts' exact values are integers, the oracle's values rounded."""
    code, n = from_stabilizer(spec), spec.n
    sizes = np.cumsum([len(enumerate_weight(2, n, d)) for d in range(n + 1)])
    top = int(np.searchsorted(sizes, detection.SCAN_GUARD, side="right")) - 1
    if 32**n * spec.m**2 <= DENSE_ORACLE_WORK:
        want = dense_projector_distributions(code, top)
    else:
        want = {key: dist.values for key, dist in compute_distributions(code, max_weight=top).items()}
    widest = None if top == n else top
    for max_weight, size in [(widest, 1), (widest, 7)] + [
            (max_weight, None) for max_weight in ([None] if top == n else []) + list(range(top + 1))]:
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
    reads each as its row of letters."""
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
                spec, (3 * support + (2 * x + z - 1)[support])[None])
            if len(rows) and not member[0] and 1.0 > tol:
                got.append((i, detection._flip_verdict(flips[0], tol)))
        assert [row for row, _ in got] == [row for row, _ in want]
        for (_, verdict), (_, want_verdict) in zip(got, want):
            assert verdict[2] == want_verdict[2]
            assert max_abs_diff(verdict[:2], want_verdict[:2]) <= 1e-12


def _expect_same_outcome(text, strict):
    """parse_code_file and the entrywise oracle on json.loads: the same code
    or the same refusal, after which the cyclic collector is back on."""
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedDocumentError(f"not valid JSON: {exc}") from None
        want = entrywise_parse_blocks(doc, strict)
    except CodeFileError as exc:
        with pytest.raises(type(exc)) as got:
            parse_code_file(text, strict)
        assert str(got.value) == str(exc)
        assert gc.isenabled()
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


# The last five pass a length-2 test; numpy's float conversion reads "12"
# and {"1": 0, "2": 0} as [1.0, 2.0], and 10**400 overflows it.  The text
# of a vector holding [[1, 2], [3, 4]], 10**400 or the bare -1e-300 opens
# no value but numbers and lists, so the parse skips its type test there.
_BAD_ENTRIES = [[True, 0], [0, False], None, "1", 7, [[1, 0], 0], [1], [1, 0, 0],
                [float("nan"), 0], [0, float("inf")], [-float("inf"), 0], -float("inf"),
                -1e-300, "12", "ab", {"1": 0, "2": 0}, [[1, 2], [3, 4]], [10**400, 0]]

# Entries whose float() rounding, sign or subnormal a conversion could lose,
# and two whose text is in exponent form.
_EXACT_ENTRIES = [2**53 + 1, -(2**60) - 3, 10**29 + 7, -0.0, 5e-324, -5e-324, 0, -0.5,
                  1e-07, -2.5e+150]


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


@SETTINGS
@given(code=small_codes(), data=st.data())
def test_parse_converts_entries_bit_for_bit_like_the_oracle(code, data):
    """Non-strict, about half the entries replaced from _EXACT_ENTRIES: the
    frames equal the oracle's float() of each entry, bit for bit."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    doc = json.loads(serialize_code(code))
    for entry in itertools.chain.from_iterable(itertools.chain.from_iterable(doc["blocks"])):
        for i in np.flatnonzero(rng.random(2) < 0.5):
            entry[i] = _EXACT_ENTRIES[rng.integers(len(_EXACT_ENTRIES))]
    got, want = _expect_same_outcome(json.dumps(doc), False)
    assert np.array_equal(got.frames.view(np.int64), want.frames.view(np.int64))


# Values a vector, a block or the blocks list may be replaced by, and
# entries that are not finite floats.
_NOT_LISTS = [7, -0.5, "v", None, True, {"re": 1}]
_NON_FINITE_PAIRS = [[float("nan"), 0], [0, float("inf")], [-float("inf"), 1],
                     [1e308, 1e309], [10**400, 0], [0, -(10**400)]]


@settings(SETTINGS, max_examples=100)
@given(code=small_codes(), strict=st.booleans(), data=st.data())
def test_parse_reads_every_json_layout_like_the_oracle(code, strict, data):
    """The same document in another valid layout, with or without one bad
    vector, block, blocks list or entry: the frames of its default layout
    bit for bit, or the oracle's refusal."""
    doc = json.loads(serialize_code(code))
    b = data.draw(st.integers(0, code.m - 1))
    v = data.draw(st.integers(0, code.k - 1))
    e = data.draw(st.integers(0, code.dimension - 1))
    fault = data.draw(st.sampled_from([None, "vector", "block", "blocks", "entry"]))
    if fault == "vector":
        doc["blocks"][b][v] = data.draw(st.sampled_from(_NOT_LISTS))
    elif fault == "block":
        doc["blocks"][b] = data.draw(st.sampled_from(_NOT_LISTS))
    elif fault == "blocks":
        doc["blocks"] = data.draw(st.sampled_from(_NOT_LISTS))
    elif fault == "entry":
        doc["blocks"][b][v][e] = data.draw(st.sampled_from(_NON_FINITE_PAIRS))
    layout = data.draw(st.sampled_from(["indent", "compact", "blocks first",
                                        "duplicate blocks", "whitespace"]))
    if layout == "indent":
        text = json.dumps(doc, indent=data.draw(st.sampled_from([0, 1, 4, "\t"])))
    elif layout == "compact":
        text = json.dumps(doc, separators=(",", ":"))
    elif layout == "blocks first":
        order = ["blocks"] + data.draw(st.permutations(["q", "n", "K", "M"]))
        text = json.dumps({key: doc[key] for key in order})
    elif layout == "duplicate blocks":
        # json.loads keeps the last value, in the first key's place.
        decoy = data.draw(st.sampled_from([[[["x"]]], [[[[0, 0]] * 3]], 5, [[]]]))
        text = '{"blocks": ' + json.dumps(decoy) + ", " + json.dumps(doc)[1:]
    else:
        space = st.text(" \t\n\r", min_size=1, max_size=3)
        text = data.draw(space) + json.dumps(doc) + data.draw(space)
    got, want = _expect_same_outcome(text, strict)
    assert (got is None) == (fault is not None)
    if got is not None:
        default = parse_code_file(json.dumps(doc), strict)
        assert np.array_equal(got.frames.view(np.int64), default.frames.view(np.int64))
        assert codes_close(got, want, 1e-12)


@settings(SETTINGS, max_examples=100)
@given(code=small_codes(), data=st.data())
def test_parse_refuses_malformed_text_like_json_loads(code, data):
    """Text cut short, one character inserted or deleted in the blocks, a
    comma between members, blocks or vectors deleted, a member's colon
    deleted, a trailing comma in the top object, the blocks list, a block or
    a vector, a byte-order mark, trailing data, or the text as bytes, whole
    or cut: json.loads's refusal, or the oracle's frames bit for bit where
    the text still decodes.  Not strict, so an edited number cannot turn
    into an orthonormality refusal."""
    text = serialize_code(code)
    start = text.index('"blocks": ') + len('"blocks": ')
    kind = data.draw(st.sampled_from(["cut", "insert", "delete", "comma", "colon",
                                      "trailing comma", "bom", "trailing", "bytes"]))
    if kind == "colon":
        at = data.draw(st.sampled_from([m.start() for m in re.finditer(":", text)]))
        text = text[:at] + text[at + 1:]
    elif kind == "trailing comma":
        # Depth 1 is the top object, 2 the blocks list, 3 a block, 4 a vector.
        level, depth, closes = data.draw(st.integers(1, 4)), 0, []
        for at, char in enumerate(text):
            depth += (char in "[{") - (char in "]}")
            if char in "]}" and depth == level - 1:
                closes.append(at)
        at = data.draw(st.sampled_from(closes))
        text = text[:at] + "," + text[at:]
    elif kind == "bytes":
        cut = data.draw(st.sampled_from([len(text), len(text) - 1]))
        text = text[:cut].encode(data.draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16",
                                                            "utf-16-le", "utf-32-be"])))
    elif kind == "comma":
        commas = [m.start() for m in re.finditer(r',(?= ")|(?<=\]\]),(?= \[\[)', text)]
        at = data.draw(st.sampled_from(commas))
        text = text[:at] + text[at + 1:]
    elif kind == "cut":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif kind == "insert":
        at = data.draw(st.integers(start, len(text)))
        text = text[:at] + data.draw(st.sampled_from(list('[]{},:" 0-.ex'))) + text[at:]
    elif kind == "delete":
        at = data.draw(st.integers(start, len(text) - 1))
        text = text[:at] + text[at + 1:]
    elif kind == "bom":
        text = "\ufeff" + text
    else:
        text += data.draw(st.sampled_from([" x", "}", "]", " {}", ",", "0"]))
    got, want = _expect_same_outcome(text, False)
    if kind in ("cut", "comma", "colon", "trailing comma", "bom", "trailing"):
        assert got is None
    if got is not None:
        assert np.array_equal(got.frames.view(np.int64), want.frames.view(np.int64))


def _edits(text):
    """Every one-character cut, insert, delete and replace of text, over the
    characters JSON's syntax turns on, a newline and a byte-order mark."""
    chars = '[]{},:" 0-.ex\n\ufeff'
    yield from (text[:i] for i in range(len(text)))
    for i in range(len(text) + 1):
        yield from (text[:i] + char + text[i:] for char in chars)
    for i in range(len(text)):
        yield text[:i] + text[i + 1:]
        yield from (text[:i] + char + text[i + 1:] for char in chars)


def _parse_outcome(text):
    """The code parse_code_file returns, frames as bytes, or its refusal."""
    try:
        code = parse_code_file(text)
    except CodeFileError as exc:
        return type(exc), str(exc)
    return code if isinstance(code, StabilizerSpec) else (code.q, code.n, code.frames.tobytes())


def test_every_one_character_edit_parses_or_refuses_like_json_loads():
    """A frame and a stabilizer document, each compact, spaced and with its
    kind's key first on lines of their own, and every one-character edit of
    them: text json.loads refuses is refused with json.loads's message, and
    text it decodes parses as the decoded document does in json.dumps's
    layout, to the same code or the same refusal."""
    frames = {"q": 2, "n": 1, "K": 1, "M": 2,
              "blocks": [[[[0.6, 0], [0, 0.8]]], [[[0.8, 0], [0, -0.6]]]]}
    stabilizers = {"n": 2, "stabilizers": ["ZZ"], "classical_ops": ["ZI"], "signs": [-1]}
    texts = set()
    for doc, kind in ((frames, "blocks"), (stabilizers, "stabilizers")):
        texts |= {json.dumps(doc, separators=(",", ":")), f" {json.dumps(doc)}\n",
                  json.dumps({kind: doc[kind], **doc}, indent=1)}
    for text in set(itertools.chain.from_iterable(map(_edits, texts))):
        try:
            want = _parse_outcome(json.dumps(json.loads(text)))
        except json.JSONDecodeError as exc:
            want = MalformedDocumentError, f"not valid JSON: {exc}"
        assert _parse_outcome(text) == want, repr(text)


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
