"""Differential tests on random small codes: each engine against its reference.

Codes are drawn with q in {2, 3} and q^n <= 27.  The distribution pass is
compared with the definitional projector oracle, its max_violation column
with the weight scan, the vectorized detectability test with the
block-by-block loop in conftest, the correctability test with the
pair-by-pair loop, and the distance reported by the distance and
identities commands with each other.  The batched element kernel
(detection.block_tensors) is compared with the dense-matrix products, its
exponent arrays with the PauliElement enumeration, and its results at
other chunk sizes with those at the default one.  Stabilizer frames are
compared byte for byte with the dense Kronecker-product construction.
"""

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
    dense_stabilizer_code,
    loop_detectability,
    random_code,
    random_stabilizer_spec,
)

from hybridec import detection
from hybridec.cli import run
from hybridec.code_model import StabilizerSpec, from_stabilizer, projector, serialize_code
from hybridec.detection import (
    all_detectable_of_weight,
    block_tensors,
    detectability,
    error_block_tensor,
    is_correctable_set,
)
from hybridec.enumerators import compute_distributions, weights_a, weights_b
from hybridec.error_basis import PauliElement, compose_adjoint_left, enumerate_weight, realize
from hybridec.linalg import max_abs_diff

SETTINGS = settings(deadline=None, max_examples=25, derandomize=True)


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4 if q == 2 else 3))
    dim = q**n
    k = draw(st.integers(1, min(4, dim)))
    m = draw(st.integers(1, min(4, dim // k)))
    return random_code(q, n, k, m, seed=draw(st.integers(0, 2**32 - 1)))


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
        ps = [projector(b) for b in code.blocks]
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
@given(code=small_codes())
def test_distributions_match_the_projector_oracle(code):
    for weights in (weights_a, weights_b):
        fast = weights(code).values
        slow = weights(code, "definitional").values
        assert max(abs(x - y) for x, y in zip(fast, slow)) < 1e-9


@settings(SETTINGS, max_examples=60)
@given(code=small_codes(), data=st.data())
def test_max_violation_column_matches_the_weight_scan(code, data):
    worst = compute_distributions(code)["max_violation"]
    # A tolerance equal to one of the maxima sits exactly on the boundary.
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.5, *worst]))
    for d in range(code.n + 1):
        ok, _ = all_detectable_of_weight(code, d, tol, max_counterexamples=1)
        assert (worst[d] <= tol) == ok


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


@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_correctability_matches_the_pair_loop(data):
    code = data.draw(small_codes())
    q, n = code.q, code.n
    exponents = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    # Small exponent sets with repeats, so composed elements recur.
    errors = data.draw(st.lists(st.builds(lambda x, z: PauliElement(q, n, x, z),
                                          exponents, exponents), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        errors.insert(0, PauliElement.identity(q, n))
    tol = data.draw(st.sampled_from([1e-9, 0.3]))
    assert is_correctable_set(code, errors, tol) == loop_correctable(code, errors, tol)


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
@given(code=small_codes(), data=st.data())
def test_kernel_tensors_match_the_dense_products(code, data):
    d = data.draw(st.integers(0, code.n))
    elements = enumerate_weight(code.q, code.n, d)
    got = np.concatenate(list(block_tensors(code, *elements.arrays())))
    want = np.array([error_block_tensor(code, realize(e)) for e in elements])
    assert max_abs_diff(got, want) < 1e-12


def _scan_results(code, tol):
    dists = compute_distributions(code)
    scans = [all_detectable_of_weight(code, d, tol) for d in range(code.n + 1)]
    errors = [PauliElement.identity(code.q, code.n)] + list(enumerate_weight(code.q, code.n, 1))
    return dists, scans, is_correctable_set(code, errors, tol)


@SETTINGS
@given(code=small_codes(), per_chunk=st.sampled_from([1, 7]))
def test_chunk_boundaries_do_not_change_the_results(code, per_chunk):
    """Chunks of one element and of a prime count, so boundaries fall
    inside weight classes, give the default chunks' answers to rounding."""
    tol = 1e-9
    dists, scans, correctable = _scan_results(code, tol)
    default = detection.CHUNK_ENTRIES
    detection.CHUNK_ENTRIES = per_chunk * code.m * code.k * code.dimension
    try:
        again, rescans, recorrectable = _scan_results(code, tol)
        # The weight scan shares the chunks of the distribution pass, so
        # the two still agree exactly at a tolerance on the boundary.
        for d, worst in enumerate(again["max_violation"]):
            assert all_detectable_of_weight(code, d, worst, max_counterexamples=1)[0]
    finally:
        detection.CHUNK_ENTRIES = default
    for key in ("A", "B", "A_perp", "C"):
        assert max(abs(x - y) for x, y in zip(dists[key].values, again[key].values)) < 1e-12
    assert max(abs(x - y) for x, y in
               zip(dists["max_violation"], again["max_violation"])) < 1e-12
    for (ok, fails), (reok, refails) in zip(scans, rescans):
        assert ok == reok
        assert [(f.error, f.witness) for f in fails] == [(f.error, f.witness) for f in refails]
    assert recorrectable == correctable


@st.composite
def stabilizer_specs(draw):
    n = draw(st.integers(1, 7))
    total = draw(st.integers(0, n))
    c = draw(st.integers(0, min(total, 4)))
    return random_stabilizer_spec(n, total - c, c, seed=draw(st.integers(0, 2**32 - 1)))


@settings(SETTINGS, max_examples=60)
@given(spec=stabilizer_specs())
@example(spec=StabilizerSpec(4, ()))
@example(spec=StabilizerSpec(3, ("-YYI", "IYY"), ("-XXX",)))
@example(spec=StabilizerSpec(5, FIVE_QUBIT_GENERATORS[:3], (FIVE_QUBIT_GENERATORS[3], "ZZZZZ"),
                             (1, -1, 1), (-1, 1)))
def test_stabilizer_frames_match_the_dense_oracle(spec):
    """Signed permutations give the dense build's frames bit for bit,
    signs of zeros included."""
    built, dense = from_stabilizer(spec), dense_stabilizer_code(spec)
    assert (built.k, built.m) == (spec.k, spec.m)
    assert [b.frame.tobytes() for b in built.blocks] == [b.frame.tobytes() for b in dense.blocks]
