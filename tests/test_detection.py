"""Detectability, correctability, dimension counts, measurement, transmission."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    FIVE_QUBIT_GENERATORS,
    basis_state,
    check_matrix,
    kron_chain_oracle,
    max_abs_diff,
    random_code,
    random_stabilizer_spec,
)

from hybridec import code_model, detection
from hybridec.code_model import StabilizerSpec
from hybridec.detection import (
    DetectableDimensions,
    NotDetectableError,
    all_detectable_of_weight,
    block_tensors,
    detectability,
    detectable_column,
    detectable_dimension_formula,
    detectable_dimension_numeric,
    error_block_tensor,
    is_correctable_set,
    measure,
    operator_system_decompose,
    simulate_transmission,
)
from hybridec.enumerators import compute_distributions, detection_distance, equal_weights, sum_rules
from hybridec.error_basis import PauliElement, enumerate_weight, parse_element
from hybridec.linalg import DimensionMismatchError, GuardExceededError


def test_error_block_tensor_shape_and_agreement(t3):
    e = parse_element("XZ", 2)
    t_fast = error_block_tensor(t3, e)
    t_dense = error_block_tensor(t3, kron_chain_oracle(e))
    assert t_fast.shape == (2, 1, 2, 1)
    assert max_abs_diff(t_fast, t_dense) < 1e-12


def test_error_block_tensor_agreement_random():
    code = random_code(3, 2, 2, 3, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(5):
        elem = PauliElement(3, 2,
                            tuple(int(v) for v in rng.integers(0, 3, 2)),
                            tuple(int(v) for v in rng.integers(0, 3, 2)))
        assert max_abs_diff(
            error_block_tensor(code, elem),
            error_block_tensor(code, kron_chain_oracle(elem)),
        ) < 1e-12


def test_detectability_clock_on_one_qubit(t1):
    rep = detectability(t1, parse_element("Z", 2))
    assert rep.detectable
    assert rep.lambdas == (1 + 0j, -1 + 0j)
    assert rep.witness is None
    rep_id = detectability(t1, parse_element("I", 2))
    assert rep_id.detectable
    assert rep_id.lambdas == (1 + 0j, 1 + 0j)


def test_detectability_shift_fails_with_witness(t1):
    rep = detectability(t1, parse_element("X", 2))
    assert not rep.detectable
    assert rep.lambdas is None
    assert rep.witness == (2, 1)
    assert abs(rep.max_offdiag_violation - 1.0) < 1e-12


def test_detectability_two_qubit_cases(t3):
    assert detectability(t3, parse_element("ZI", 2)).lambdas == (1 + 0j, -1 + 0j)
    zx = detectability(t3, parse_element("ZX", 2))
    assert zx.detectable
    assert zx.lambdas == (0j, 0j)
    xx = detectability(t3, parse_element("XX", 2))
    assert not xx.detectable
    assert xx.witness == (2, 1)


def test_detectability_is_linear(t1):
    # Detectable operators form a vector space; check one combination.
    z = kron_chain_oracle(parse_element("Z", 2))
    combo = 0.3 * z + (0.7j) * np.eye(2)
    assert detectability(t1, combo).detectable


def test_detectability_ignores_global_phase(t3):
    e = kron_chain_oracle(parse_element("ZI", 2))
    for theta in (0.3, 1.2, 4.0):
        rep = detectability(t3, np.exp(1j * theta) * e)
        assert rep.detectable
    bad = kron_chain_oracle(parse_element("XX", 2))
    assert not detectability(t3, np.exp(0.5j) * bad).detectable


def test_weight_scans(t3, f5):
    ok, failures = all_detectable_of_weight(t3, 1)
    assert ok and failures == []
    ok, failures = all_detectable_of_weight(t3, 2)
    assert not ok
    assert failures[0].error == parse_element("XX", 2)
    for d in (0, 1, 2):
        ok, _ = all_detectable_of_weight(f5, d)
        assert ok
    ok, failures = all_detectable_of_weight(f5, 3, max_counterexamples=2)
    assert not ok
    assert len(failures) == 2


def test_weight_scan_refuses_a_counterexample_cap_below_one():
    spec = StabilizerSpec(3, ("ZZI", "IZZ"))
    for cap in (0, -5):
        with pytest.raises(ValueError, match="max_counterexamples must be at least 1"):
            all_detectable_of_weight(spec, 1, max_counterexamples=cap)
    ok, failures = all_detectable_of_weight(spec, 1, max_counterexamples=1)
    assert not ok and len(failures) == 1
    # Refused before the scan: a class past SCAN_GUARD would raise the guard.
    with pytest.raises(ValueError, match="max_counterexamples"):
        all_detectable_of_weight(StabilizerSpec(40, ()), 20, max_counterexamples=0)


def test_correctable_sets(t3):
    i2 = parse_element("II", 2)
    ok, witness = is_correctable_set(t3, [i2, parse_element("ZI", 2)])
    assert ok and witness is None
    ok, witness = is_correctable_set(t3, [i2, parse_element("XI", 2)])
    assert ok
    ok, witness = is_correctable_set(t3, [i2, parse_element("XX", 2)])
    assert not ok
    assert witness == (i2, parse_element("XX", 2))
    with pytest.raises(ValueError):
        is_correctable_set(t3, [])


def test_correctable_set_memory_follows_the_distinct_elements():
    # 600 errors make 360,000 ordered pairs but at most 4^6 distinct
    # composed elements; every one of them is detectable by a single
    # state, so no early exit hides the pairs.  Holding all pairs at once
    # took more than 50 MB.
    code = random_code(2, 6, 1, 1, seed=3)
    rng = np.random.default_rng(0)
    errors = [PauliElement(2, 6, rng.integers(0, 2, 6), rng.integers(0, 2, 6))
              for _ in range(600)]
    is_correctable_set(code, errors[:3])
    tracemalloc.start()
    try:
        ok, witness = is_correctable_set(code, errors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and witness is None
    assert peak < 16 * 2**20


def test_correctable_single_error_set_on_five_qubits(f5):
    errors = [parse_element("IIIII", 2),
              parse_element("XIIII", 2),
              parse_element("IZIII", 2),
              parse_element("IIYII", 2)]
    ok, witness = is_correctable_set(f5, errors)
    assert ok and witness is None


@pytest.mark.parametrize("call, message", [
    (lambda t3, spec: next(block_tensors(t3, [[0, 0, 0]], [[0, 0, 0]])),
     "exponent arrays must both have shape (N, 2)"),
    (lambda t3, spec: next(block_tensors(t3, [[0, 2]], [[0, 0]])), "exponents must lie in [0, 2)"),
    (lambda t3, spec: next(block_tensors(t3, [[0, 0]], [[0, -1]])), "exponents must lie in [0, 2)"),
    (lambda t3, spec: error_block_tensor(t3, PauliElement.identity(3, 2)),
     "element parameters do not match the code"),
    (lambda t3, spec: detectability(spec, PauliElement.identity(2, 3)),
     "a stabilizer code takes qubit elements on its n qubits"),
    (lambda t3, spec: detectability(spec, np.eye(4)),
     "a stabilizer code takes qubit elements on its n qubits"),
    (lambda t3, spec: is_correctable_set(t3, [PauliElement.identity(2, 3)]),
     "element parameters do not match the code"),
    (lambda t3, spec: is_correctable_set(spec, [PauliElement.identity(2, 2),
                                                PauliElement.identity(3, 2)]),
     "element parameters do not match the code"),
    # An element of q = 4, n = 1 acts on a space of the code's dimension, 4.
    (lambda t3, spec: detectability(t3, PauliElement(4, 1, (1,), (0,))),
     "element parameters do not match the code"),
    (lambda t3, spec: simulate_transmission(t3, 1, [1], PauliElement(4, 1, (1,), (0,)), 100, 0),
     "element parameters do not match the code"),
    (lambda t3, spec: operator_system_decompose(t3, PauliElement(4, 1, (1,), (0,))),
     "element parameters do not match the code"),
], ids=["block_tensors shape", "block_tensors range high", "block_tensors range low",
        "error_block_tensor", "spec detectability n", "spec detectability matrix",
        "is_correctable_set", "spec is_correctable_set q", "detectability q^n",
        "simulate_transmission q^n", "operator_system_decompose q^n"])
def test_elements_and_exponents_of_other_parameters_are_refused(t3, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(t3, StabilizerSpec(2, ("ZZ",)))


@pytest.mark.parametrize("call", [
    lambda code, op: error_block_tensor(code, op),
    lambda code, op: operator_system_decompose(code, op),
    lambda code, op: simulate_transmission(code, 1, [1], op, 1, 0),
], ids=["error_block_tensor", "operator_system_decompose", "simulate_transmission"])
def test_dense_operators_of_the_wrong_shape_are_refused(t3, call):
    for op in (np.eye(2), np.eye(8), np.ones((4, 2))):
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"operator must be 4 x 4, got {op.shape}")):
            call(t3, op)


def test_check_matrix_set_up_is_built_once_per_spec(monkeypatch):
    """A StabilizerSpec reduces its r + c check rows once, in its
    constructor, where it also packs its words, and keeps them read-only:
    a column scan per weight and a correctability test reduce and build
    nothing again."""
    reductions = []
    original = code_model._gf2_basis

    def counted(vectors):
        reductions.append(len(vectors))
        return original(vectors)

    monkeypatch.setattr(code_model, "_gf2_basis", counted)
    spec = random_stabilizer_spec(6, 3, 2, seed=5)
    assert reductions == [5]
    errors = [PauliElement.identity(2, 6), *enumerate_weight(2, 6, 1)]
    detectable_column(spec, 6)
    words, rows = spec._letter_words, spec.check_rows
    is_correctable_set(spec, errors)
    detectability(spec, errors[1])
    assert reductions == [5] and spec._letter_words is words and spec.check_rows is rows
    assert words.shape == (1, 19) and spec.check_rows.shape == (5, 2, 1)
    assert not (spec.check_rows.flags.writeable or words.flags.writeable)


def test_detectability_on_a_spec_tests_membership_once(monkeypatch):
    """detectability reads one stabilizer_screen result: an element of
    <S, h> takes one membership test (its coset), whose coefficients also
    give its phases, as does a logical outside it; an element
    anticommuting with S, or commuting with S and anticommuting with h,
    takes none."""
    spec = StabilizerSpec(5, FIVE_QUBIT_GENERATORS[:3], (FIVE_QUBIT_GENERATORS[3],))
    tested = []
    original = detection._cosets

    def counted(spec, beta, *letters):
        tested.append(len(beta))
        return original(spec, beta, *letters)

    monkeypatch.setattr(detection, "_cosets", counted)
    rep = detectability(spec, parse_element("ZXIXZ", 2))
    assert rep.detectable and rep.lambdas == (1, -1)
    assert tested == [1]
    tested.clear()
    rep = detectability(spec, parse_element("XXXXX", 2))
    assert (rep.detectable, rep.witness, tested) == (False, (1, 1), [1])
    tested.clear()
    rep = detectability(spec, parse_element("ZIIII", 2))
    assert (rep.detectable, rep.lambdas, tested) == (True, (0, 0), [])
    rep = detectability(spec, parse_element("XIIII", 2))
    assert (rep.detectable, rep.witness, tested) == (False, (2, 1), [])


def _symplectic_witness(spec, x, z):
    """The witness of the qubit element X^x Z^z on spec, by the symplectic
    rule written out with Python integers: None when it anticommutes with a
    generator or lies in <S, h> (its rows' GF(2) span), else (mask + 1, 1)."""
    n, r = spec.n, spec.num_generators
    rows = [(int("".join(map(str, row[:n])), 2), int("".join(map(str, row[n:])), 2))
            for row in check_matrix(spec).tolist()]
    ex, ez = int("".join(map(str, x)), 2), int("".join(map(str, z)), 2)
    anti = [bin(ex & rz).count("1") + bin(ez & rx).count("1") & 1 for rx, rz in rows]
    if any(anti[:r]):
        return None
    basis, e = [], ex << n | ez
    for v in [rx << n | rz for rx, rz in rows]:
        for b in basis:
            v = min(v, v ^ b)
        basis.append(v)
    for b in sorted(basis, reverse=True):
        e = min(e, e ^ b)
    return None if e == 0 else (int("0" + "".join(map(str, anti[r:])), 2) + 1, 1)


@pytest.mark.parametrize("n, first", [(70, 0), (130, 60)])
def test_specs_of_several_words_per_row_match_the_symplectic_rule(n, first):
    """Past 64 qubits a packed row takes several words, and 40 generators
    make 2(r + c) > 64 bits of letter words: detectability, the weight-1
    scan and correctability agree with the symplectic rule written out
    with Python integers.  The generators Z_i Z_(i+1) on qubits first..first
    + 40 and the classical operators Z and X on two qubits past them, each
    qubit's letters permuted at random, leave weight-1 logicals and flipped
    blocks among the elements.  The last error set is skewed: weight-1
    elements and one dense element, a group element times a logical."""
    rng = np.random.default_rng(n)
    ops = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(first, first + 40)]
    ops += ["I" * (first + 45) + "Z" + "I" * (n - first - 46),
            "I" * (first + 50) + "X" + "I" * (n - first - 51)]
    perms = [dict(zip("XYZ", rng.permutation(list("XYZ")))) | {"I": "I"} for _ in range(n)]
    ops = ["".join(perm[ch] for perm, ch in zip(perms, op)) for op in ops]
    spec = StabilizerSpec(n, tuple(ops[:40]), tuple(ops[40:]),
                          tuple(rng.choice([1, -1], 40).tolist()), (1, -1))
    group = rng.integers(0, 2, (6, 42)) @ check_matrix(spec) % 2
    sparse = rng.integers(0, 2, (6, 2 * n)) * (rng.random((6, 2 * n)) < 3 / n)
    rows = np.concatenate([group, sparse, (group[:4] + sparse[:4]) % 2])
    for err in (PauliElement(2, n, row[:n], row[n:]) for row in rows):
        assert detectability(spec, err).witness == _symplectic_witness(spec, err.xvec, err.zvec)
    want = [(e, w) for e in enumerate_weight(2, n, 1)
            if (w := _symplectic_witness(spec, e.xvec, e.zvec))]
    ok, fails = all_detectable_of_weight(spec, 1, max_counterexamples=len(want) + 1)
    assert len(want) > 40 and (ok, [(rep.error, rep.witness) for rep in fails]) == (False, want)
    detected = [e for e in enumerate_weight(2, n, 1) if e not in dict(want)]
    logical = np.array(want[0][0].xvec + want[0][0].zvec)
    dense = PauliElement(2, n, *np.split((group[0] + logical) % 2, 2))
    verdicts = []
    for errors in ([PauliElement.identity(2, n), *(e for e, _ in want[::20])],
                   [PauliElement.identity(2, n), *detected[::40]],
                   [PauliElement.identity(2, n), *detected[::40], dense]):
        pairs = [(f, e) for f in errors for e in errors if _symplectic_witness(
            spec, (np.array(e.xvec) + f.xvec) % 2, (np.array(e.zvec) + f.zvec) % 2)]
        verdicts.append(is_correctable_set(spec, errors))
        assert verdicts[-1] == ((False, pairs[0]) if pairs else (True, None))
    assert [ok for ok, _ in verdicts] == [False, True, False]
    assert verdicts[2][1] == (PauliElement.identity(2, n), dense)
    assert np.count_nonzero(np.add(dense.xvec, dense.zvec)) > 20


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_every_verdict_refuses_a_tolerance_outside_finite_nonnegative(f5, tol):
    """Both engines, and the distribution verdicts, refuse the same bad
    tol.  Unchecked, tol = -1 passed all 15 weight-1 elements of the
    five-qubit code on its check matrix and failed all 15 on its frames,
    and NaN passed every element on both."""
    spec = StabilizerSpec(5, FIVE_QUBIT_GENERATORS)
    errors = [PauliElement.identity(2, 5), *enumerate_weight(2, 5, 1)]
    for code in (spec, f5):
        for call in (lambda: detectability(code, errors[1], tol),
                     lambda: all_detectable_of_weight(code, 1, tol),
                     lambda: detectable_column(code, 2, tol),
                     lambda: is_correctable_set(code, errors, tol)):
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                call()
    dists = compute_distributions(f5)
    a, b = dists["A"], dists["B"]
    for call in (lambda: equal_weights(a, b, tol), lambda: detection_distance(a, b, tol),
                 lambda: sum_rules(f5, a, b, tol)):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            call()
    assert detectable_column(spec, 2, 0.0) == detectable_column(f5, 2, 0.0) == (True, True, True)
    assert equal_weights(a, b, 0.0)[:3] == (True, True, True)


def test_dimension_formula(t1, t3):
    assert detectable_dimension_formula(1, 1, 2, 2) == DetectableDimensions(2, 1)
    assert detectable_dimension_formula(2, 1, 2, 2) == DetectableDimensions(14, 13)
    got = detectable_dimension_formula(5, 2, 1, 2)
    assert got == DetectableDimensions(1024 - 4 + 1, 1024 - 4 + 1)
    with pytest.raises(ValueError):
        detectable_dimension_formula(1, 2, 2, 2)
    with pytest.raises(ValueError):
        detectable_dimension_formula(0, 1, 1, 2)


def test_dimension_formula_gap_is_block_count_minus_one():
    for n, k, m, q in [(2, 1, 3, 2), (2, 2, 2, 2), (1, 1, 3, 3), (2, 2, 4, 3)]:
        dims = detectable_dimension_formula(n, k, m, q)
        assert dims.hybrid - dims.quantum == m - 1


def test_dimension_numeric_matches_formula(t1, t3):
    assert detectable_dimension_numeric(t1) == 2
    assert detectable_dimension_numeric(t3) == 14
    for q, n, k, m, seed in [(2, 2, 2, 2, 2), (2, 3, 2, 3, 5), (3, 1, 1, 3, 7)]:
        code = random_code(q, n, k, m, seed)
        expect = detectable_dimension_formula(n, k, m, q).hybrid
        assert detectable_dimension_numeric(code) == expect


def test_dimension_numeric_guard(f5):
    with pytest.raises(GuardExceededError):
        detectable_dimension_numeric(f5)


def test_operator_decomposition_clock(t1):
    parts = operator_system_decompose(t1, parse_element("Z", 2))
    assert parts.coefficients == (1 + 0j, -1 + 0j, 1j, -1j)
    assert max_abs_diff(parts.operators[0], np.eye(2)) < 1e-12
    assert max_abs_diff(parts.operators[1], np.diag([0.0, 2.0])) < 1e-12
    assert max_abs_diff(parts.operators[2], np.zeros((2, 2))) < 1e-12
    assert max_abs_diff(parts.recombine(), kron_chain_oracle(parse_element("Z", 2))) < 1e-10


def test_operator_decomposition_five_qubit(f5):
    e = parse_element("XIIII", 2)
    parts = operator_system_decompose(f5, e)
    assert max_abs_diff(parts.recombine(), kron_chain_oracle(e)) < 1e-10
    for op in parts.operators:
        low = float(np.min(np.linalg.eigvalsh((op + op.conj().T) / 2)))
        assert low > -1e-9


def test_operator_decomposition_rejects_undetectable(t1):
    with pytest.raises(NotDetectableError):
        operator_system_decompose(t1, parse_element("X", 2))


def test_measure_superposition(t1):
    state = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
    outcomes = measure(t1, state)
    assert [o.label for o in outcomes] == [1, 2, "epsilon"]
    assert abs(outcomes[0].probability - 0.5) < 1e-12
    assert abs(outcomes[1].probability - 0.5) < 1e-12
    assert outcomes[2].probability < 1e-12
    assert max_abs_diff(outcomes[0].post_state, basis_state(2, 0)) < 1e-12
    assert outcomes[2].post_state is None


def test_measure_error_outcome(t3):
    outcomes = measure(t3, basis_state(4, 1))
    assert abs(outcomes[2].probability - 1.0) < 1e-12
    assert max_abs_diff(outcomes[2].post_state, basis_state(4, 1)) < 1e-12


def test_measure_probabilities_sum_to_one():
    code = random_code(2, 2, 1, 3, seed=21)
    rng = np.random.default_rng(22)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    outcomes = measure(code, v)
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12


def test_measure_input_checks(t1):
    with pytest.raises(ValueError):
        measure(t1, np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        measure(t1, np.array([1.0, 0.0, 0.0]))


def test_simulate_undetected_shift(t1):
    tally = simulate_transmission(t1, 1, [1], parse_element("X", 2), trials=50, seed=4)
    assert tally.counts == {1: 0, 2: 50, "epsilon": 0}
    assert tally.post_state_fidelity is None


def test_simulate_detected_error_keeps_message(t3):
    tally = simulate_transmission(t3, 2, [1], parse_element("ZI", 2), trials=200, seed=1)
    assert tally.counts[2] == 200
    assert tally.post_state_fidelity is not None
    assert tally.post_state_fidelity >= 1 - 1e-10


def test_simulate_error_outcome(t3):
    tally = simulate_transmission(t3, 1, [1], parse_element("XI", 2), trials=100, seed=9)
    assert tally.counts["epsilon"] == 100


def test_simulate_is_deterministic(f5):
    a = simulate_transmission(f5, 1, [1, 0], parse_element("ZIIII", 2), trials=300, seed=11)
    b = simulate_transmission(f5, 1, [1, 0], parse_element("ZIIII", 2), trials=300, seed=11)
    assert a.counts == b.counts


def test_simulate_input_checks(t1):
    with pytest.raises(ValueError):
        simulate_transmission(t1, 1, [1], parse_element("X", 2), trials=0, seed=0)
    with pytest.raises(ValueError):
        simulate_transmission(t1, 1, [1], np.zeros((2, 2)), trials=10, seed=0)
