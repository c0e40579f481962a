"""Weight distributions, the exact transform, and the identity checks."""

import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import FIVE_QUBIT_GENERATORS as FIVE_QUBIT
from conftest import random_code

from hybridec import code_model, detection, enumerators, error_basis
from hybridec.cli import run
from hybridec.code_model import StabilizerSpec, from_stabilizer, serialize_code
from hybridec.detection import all_detectable_of_weight, detectable_column
from hybridec.enumerators import (
    WeightDistribution,
    compute_distributions,
    detection_distance,
    equal_weights,
    macwilliams_of_a,
    snap_to_rationals,
    sum_rules,
    verify_identities,
    weights_a,
    weights_b,
)
from hybridec.linalg import GuardExceededError


def frac(*nums):
    return tuple(Fraction(x) for x in nums)


def test_one_qubit_distributions(t1):
    d = compute_distributions(t1)
    assert d["A"].values == (1.0, 1.0)
    assert d["B"].values == (1.0, 3.0)
    assert d["A_perp"].values == (1.0, 1.0)
    assert d["C"].values == (0.0, 2.0)
    assert d["A"].exact_values == frac(1, 1)
    assert d["B"].exact_values == frac(1, 3)


def test_two_qubit_distributions(t3):
    d = compute_distributions(t3)
    assert d["A"].values == (1.0, 2.0, 1.0)
    assert d["B"].values == (1.0, 2.0, 5.0)
    assert d["A_perp"].values == (1.0, 2.0, 1.0)
    assert d["C"].values == (0.0, 0.0, 4.0)
    assert d["C"].exact_values == frac(0, 0, 4)


def test_five_qubit_distributions(f5):
    d = compute_distributions(f5)
    assert d["A"].exact_values == frac(1, 0, 0, 0, 15, 0)
    assert d["B"].exact_values == frac(1, 0, 0, 30, 15, 18)
    assert d["A_perp"].exact_values == frac(1, 0, 0, 30, 15, 18)
    assert d["C"].values == (0.0,) * 6


@pytest.mark.parametrize("generators, classical, want", [
    # ((5, 2:1))_2, the five-qubit code.
    (FIVE_QUBIT, (), {"A": (1, 0, 0, 0, 15, 0), "B": (1, 0, 0, 30, 15, 18),
                      "A_perp": (1, 0, 0, 30, 15, 18), "C": (0,) * 6}),
    # ((5, 1:2))_2: Z^5 splits the five-qubit code's block in two.
    (FIVE_QUBIT, ("ZZZZZ",), {"A": (1, 0, 0, 10, 15, 6), "B": (1, 0, 0, 30, 15, 18),
                              "A_perp": (1, 0, 0, 10, 15, 6), "C": (0, 0, 0, 20, 0, 12)}),
    # ((5, 2:2))_2: the five-qubit code's last generator turned classical.
    (FIVE_QUBIT[:3], FIVE_QUBIT[3:], {"A": (1, 0, 0, 0, 15, 0), "B": (1, 1, 6, 46, 41, 33),
                                      "A_perp": (1, 0, 0, 30, 15, 18),
                                      "C": (0, 1, 6, 16, 26, 15)}),
])
def test_stabilizer_definitional_counts(generators, classical, want, monkeypatch):
    """The definitional distributions of a StabilizerSpec are counts from
    its check matrix, exact integers, with no frames built; capped ones
    are their prefixes, and the simplified engine on the frames agrees."""
    spec = StabilizerSpec(5, generators, classical)
    frames = compute_distributions(from_stabilizer(spec))
    monkeypatch.setattr(code_model, "from_stabilizer", lambda spec: pytest.fail("frames built"))
    got = enumerators.projector_distributions(spec)
    for key, values in want.items():
        assert got[key].exact_values == frac(*values)
        assert got[key].values == tuple(float(v) for v in values)
        assert frames[key].exact_values == frac(*values)
        capped = enumerators.projector_distributions(spec, max_weight=3)[key]
        assert capped.exact_values == frac(*values[:4])
    assert sum_rules(spec, got["A"], got["B"]).ok


def test_stabilizer_counts_with_more_than_63_classical_operators():
    """Weight 1 of Z_i on each of 66 qubits as classical operators: Z_i
    lies in <h>, and X_i and Y_i flip h_i, the last ones past bit 63 of
    any one-word block mask."""
    n = 66
    spec = StabilizerSpec(n, (), tuple("I" * i + "Z" + "I" * (n - 1 - i) for i in range(n)))
    got = enumerators.projector_distributions(spec, max_weight=1)
    want = {"A": (1, 66), "A_perp": (1, 66), "C": (0, 132), "B": (1, 198)}
    assert {key: dist.exact_values for key, dist in got.items()} == {
        key: frac(*values) for key, values in want.items()}


def test_distribution_properties(t3):
    d = weights_a(t3)
    assert d.kind == "A"
    assert d.complete
    assert d.total() == 4.0
    partial = weights_a(t3, max_weight=1)
    assert not partial.complete
    assert partial.values == d.values[:2]


def test_definitional_modes_agree(t1, t3, f5):
    codes = [t1, t3, f5, random_code(2, 2, 1, 2, seed=40), random_code(3, 1, 1, 2, seed=41)]
    for code in codes:
        a_s = weights_a(code)
        a_d = weights_a(code, "definitional")
        b_s = weights_b(code)
        b_d = weights_b(code, "definitional")
        assert max(abs(x - y) for x, y in zip(a_s.values, a_d.values)) < 1e-9
        assert max(abs(x - y) for x, y in zip(b_s.values, b_d.values)) < 1e-9
    with pytest.raises(ValueError):
        weights_a(t1, "nonsense")


def test_a_skewed_subset_term_parts_the_two_engines(monkeypatch, f5):
    """The definitional sums share nothing with the partial traces: a
    mutant that scales one subset's term moves the simplified B only."""
    def b_gap():
        want = enumerators.projector_distributions(f5)["B"].values
        got = compute_distributions(f5)["B"].values
        return max(abs(x - y) for x, y in zip(got, want)), sum(want)

    gap, mass = b_gap()
    assert gap <= 1e-12 * mass
    subset_terms = enumerators._subset_terms

    def skewed(frames, subsets):
        out = subset_terms(frames, subsets)
        out[[subset == (0,) for subset in subsets]] *= 1 + 1e-6
        return out

    monkeypatch.setattr(enumerators, "_subset_terms", skewed)
    gap, mass = b_gap()
    assert gap > 1e-12 * mass


def test_c_modes_agree(t3):
    # C is summed over the cross blocks directly; it must agree with the
    # difference B - A' without ever being computed from it.
    d = compute_distributions(t3)
    diff = [b - ap for b, ap in zip(d["B"].values, d["A_perp"].values)]
    assert max(abs(x - y) for x, y in zip(d["C"].values, diff)) < 1e-12


def test_single_block_codes_have_no_cross_part(f5):
    codes = [f5, random_code(2, 2, 3, 1, seed=50), random_code(3, 2, 4, 1, seed=51)]
    for code in codes:
        d = compute_distributions(code)
        # With one block the cross sum has no terms at all.
        assert d["C"].values == (0.0,) * (code.n + 1)
        assert max(abs(b - ap) for b, ap in
                   zip(d["B"].values, d["A_perp"].values)) < 1e-12


def test_nonnegativity_and_domination(t1, t3, f5):
    codes = [t1, t3, f5,
             random_code(2, 3, 2, 2, seed=60),
             random_code(3, 2, 2, 3, seed=61)]
    for code in codes:
        d = compute_distributions(code)
        for a_val, b_val in zip(d["A"].values, d["B"].values):
            assert a_val >= -1e-9
            assert b_val - a_val >= -1e-9


def transform_of_a(code):
    return macwilliams_of_a(weights_a(code), k=code.k, q=code.q)


def test_transform_reference_codes(t1, t3, f5):
    assert transform_of_a(t1).exact_values == frac(1, 1)
    assert transform_of_a(t3).exact_values == frac(1, 2, 1)
    out = transform_of_a(f5)
    assert out.exact_values == frac(1, 0, 0, 30, 15, 18)
    assert out.kind == "A_perp"


def test_transform_of_an_unsnapped_distribution():
    # Values without exact_values are converted exactly from binary.
    out = macwilliams_of_a(WeightDistribution("A", 1, (1.0, 1.0)), k=1, q=2)
    assert out.values == (1.0, 1.0)
    assert out.exact_values == frac(1, 1)
    with pytest.raises(ValueError):                     # weight-0 term must be 1
        macwilliams_of_a(WeightDistribution("A", 1, (2.0, 1.0)), k=1, q=2)


def test_transform_needs_full_distribution(t3):
    partial = weights_a(t3, max_weight=1)
    with pytest.raises(ValueError):
        macwilliams_of_a(partial, k=t3.k, q=t3.q)


def test_transform_matches_direct_on_random_codes():
    for q, n, k, m, seed in [(2, 2, 1, 2, 70), (2, 2, 2, 1, 71), (3, 1, 1, 3, 72)]:
        code = random_code(q, n, k, m, seed)
        direct = compute_distributions(code)["A_perp"]
        via_transform = transform_of_a(code)
        assert max(abs(x - y) for x, y in
                   zip(direct.values, via_transform.values)) < 1e-6


def distance_of(code, tol=1e-9):
    d = compute_distributions(code)
    return detection_distance(d["A"], d["B"], tol)


def test_detection_distance_of_reference_codes(t1, t3, f5):
    assert distance_of(t1) == 1
    assert distance_of(t3) == 2
    assert distance_of(f5) == 3


def test_detection_distance_when_everything_is_detectable():
    # A one dimensional code with a single block: every compression is a
    # scalar, so no weight ever separates the distributions.
    code = random_code(2, 1, 1, 1, seed=80)
    assert distance_of(code) == 2


def test_all_detectable_column(t1, t3, f5):
    # Weight 0 is the identity, always detectable.  X swaps the blocks of
    # t1 and XX those of t3; the five-qubit code detects everything below
    # weight 3 and, as A_4 = B_4 = 15, everything of weight 4.  Their
    # block tensors are exact, so every violation is 0 or at least 1.
    expect = {t1: (True, False), t3: (True, True, False),
              f5: (True, True, True, False, True, False)}
    for tol in (0.0, 1e-9, 0.5):
        for code, detectable in expect.items():
            assert detectable_column(code, code.n, tol) == detectable
    assert detectable_column(f5, 1) == (True, True)
    # At tol 2 even block-swapping errors pass.
    assert detectable_column(t1, 1, 2.0) == (True, True)


def test_only_the_column_scans_elements(code_files, monkeypatch):
    # Queries that read only A and B must not run the per-element scan;
    # enumerators and identities report the column, one scan of all the
    # weights, and scan elements only there (identities on a stabilizer
    # document also screens them for A' and C).
    calls, kernel_rows = [], []
    column, kernel = detection.detectable_column, detection.block_tensors

    def counted(code, max_d, *args, **kwargs):
        calls.append(max_d)
        return column(code, max_d, *args, **kwargs)

    def rows_counted(code, xs, zs):
        kernel_rows.append(len(xs))
        return kernel(code, xs, zs)

    monkeypatch.setattr(detection, "detectable_column", counted)
    monkeypatch.setattr(detection, "block_tensors", rows_counted)
    f5 = code_files["f5"]
    for argv in (["distance", f5], ["distance", f5, "--format", "json"]):
        assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    code = from_stabilizer(StabilizerSpec(2, ("ZZ",), ("ZI",)))
    distance_of(code)
    weights_b(code)
    transform_of_a(code)
    assert calls == kernel_rows == []
    for command in ("enumerators", "identities"):
        assert run([command, f5], stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert calls == [5]
        calls.clear()
    path = code_files["t3"]
    for command in ("enumerators", "identities"):
        assert run([command, path], stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert calls == [2] and 0 < sum(kernel_rows) <= 1 + 6 + 9
        calls.clear()
        kernel_rows.clear()


def test_detection_distance_skips_weight_zero():
    a = WeightDistribution("A", 2, (1.0, 0.0, 1.0))
    b = WeightDistribution("B", 2, (1.0 + 1e-15, 0.0, 3.0))
    assert detection_distance(a, b, 0.0) == 2
    assert detection_distance(a, b, 5.0) == 3
    with pytest.raises(ValueError):
        detection_distance(WeightDistribution("A", 2, (1.0, 0.0)), b, 0.0)


def test_equality_tracks_detectability(t3):
    codes = [t3, random_code(2, 2, 1, 3, seed=90), random_code(3, 1, 1, 2, seed=91)]
    for code in codes:
        d = compute_distributions(code)
        equal = equal_weights(d["A"], d["B"], 1e-9)
        for wt in range(code.n + 1):
            ok, _ = all_detectable_of_weight(code, wt, 1e-9, max_counterexamples=1)
            assert equal[wt] == ok


def test_a_equals_b_is_decided_once(monkeypatch, code_files, f5):
    """Every verdict that reads A_d = B_d reads equal_weights: flipping
    its weight-3 flag on the five-qubit code moves them all together."""
    def answers():
        out = {}
        for command in ("distance", "identities", "enumerators"):
            buf = io.StringIO()
            exit_code = run([command, code_files["f5"], "--format", "json"],
                            stdout=buf, stderr=io.StringIO())
            out[command] = exit_code, json.loads(buf.getvalue())["results"]
        report = verify_identities(f5)
        out["library"] = distance_of(f5), report.detection_distance, report.equal, report.ok
        return out

    before = answers()
    original = enumerators.equal_weights

    def flipped(a, b, tol):
        equal = list(original(a, b, tol))
        equal[3] = not equal[3]
        return tuple(equal)

    monkeypatch.setattr(enumerators, "equal_weights", flipped)
    after = answers()
    equal = {"before": (True, True, True, False, True, False),
             "after": (True, True, True, True, True, False)}
    for when, got, distance in (("before", before, 3), ("after", after, 5)):
        dist, ident, enum = (got[c][1] for c in ("distance", "identities", "enumerators"))
        assert tuple(r["equal"] for r in dist["table"]) == equal[when]
        assert tuple(r["equal"] for r in ident["table"]) == equal[when]
        assert dist["detection_distance"] == ident["detection_distance"] == distance
        assert enum["detection_distance"] == distance
        consistent = when == "before"
        assert ident["equivalence_consistent"] is ident["all_ok"] is consistent
        assert got["identities"][0] == (0 if consistent else 1)
        assert got["library"] == (distance, distance, equal[when], consistent)
    # The per-element column does not read equal_weights.
    assert ([r["all_detectable"] for r in after["identities"][1]["table"]]
            == [r["all_detectable"] for r in before["identities"][1]["table"]])


def test_equal_weights_compares_at_tol():
    a = WeightDistribution("A", 2, (1.0, 0.0, 1.0))
    b = WeightDistribution("B", 2, (1.0, 0.5, 3.0))
    assert equal_weights(a, b, 0.0) == (True, False, False)
    assert equal_weights(a, b, 0.5) == (True, True, False)
    # A capped distribution is compared over the weights it holds.
    assert equal_weights(WeightDistribution("A", 2, (1.0, 0.5)), b, 0.0) == (True, True)


def test_sum_rules(t1, t3, f5):
    codes = [t1, t3, f5,
             random_code(2, 3, 2, 3, seed=95),
             random_code(3, 2, 3, 2, seed=96)]
    for code in codes:
        d = compute_distributions(code)
        rules = sum_rules(code, d["A"], d["B"])
        assert rules.ok
        assert rules.a_expected == code.dimension / code.k
        assert rules.b_expected == code.dimension * code.k * code.m
        assert (rules.a_total, rules.b_total) == (d["A"].total(), d["B"].total())
    # t3's totals are exactly 4 and 8; each may miss by max(tol, 1e-9) (1 + target).
    d = compute_distributions(t3)
    a = WeightDistribution("A", 2, (1.0, 2.0, 1.0 + 4.9e-9))
    assert sum_rules(t3, a, d["B"], 0.0).ok
    a = WeightDistribution("A", 2, (1.0, 2.0, 1.0 + 5.1e-9))
    assert not sum_rules(t3, a, d["B"], 0.0).ok
    assert sum_rules(t3, a, d["B"], 1e-8).ok
    with pytest.raises(ValueError):
        sum_rules(t3, weights_a(t3, max_weight=1), d["B"])


def test_verify_identities_report(t3):
    report = verify_identities(t3)
    assert report.macwilliams_residual < 1e-12
    assert report.additivity_residual < 1e-12
    assert report.c_nonneg_ok
    assert report.equivalence_ok
    assert report.ok
    assert report.detection_distance == 2
    assert report.equal == report.all_detectable == (True, True, False)


def test_verify_identities_five_qubit(f5):
    report = verify_identities(f5)
    assert report.macwilliams_residual < 1e-9
    assert report.additivity_residual < 1e-9
    assert report.detection_distance == 3
    assert report.equivalence_ok


def test_snap_to_rationals():
    assert snap_to_rationals([0.5, 1.0], 2) == (Fraction(1, 2), Fraction(1))
    assert snap_to_rationals([0.5 + 1e-8], 2) == (Fraction(1, 2),)
    assert snap_to_rationals([0.5001], 2) is None


def test_random_code_values_do_not_snap():
    code = random_code(2, 2, 2, 1, seed=99)
    d = compute_distributions(code)
    assert d["A"].exact_values is None


def test_scan_is_bitwise_reproducible():
    code = random_code(2, 4, 1, 3, seed=7)
    first = compute_distributions(code)
    again = compute_distributions(code)
    for key in ("A", "B", "A_perp", "C"):
        assert first[key].values == again[key].values
    assert detectable_column(code, code.n) == detectable_column(code, code.n)


def test_enumeration_guard():
    code = random_code(2, 9, 1, 1, seed=12)
    with pytest.raises(GuardExceededError):
        compute_distributions(code)
    capped = compute_distributions(code, max_weight=1)
    assert len(capped["A"].values) == 2
    with pytest.raises(ValueError):
        compute_distributions(code, max_weight=10)


def test_span_guard_refuses_before_allocating():
    """2^(r + c) span elements past SCAN_GUARD are refused before the
    check rows are packed, even where the weights asked for are few."""
    n = 40
    spec = StabilizerSpec(n, tuple("I" * i + "Z" + "I" * (n - 1 - i) for i in range(17)))
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError,
                           match=f"2\\^17 elements.*guard is {detection.SCAN_GUARD}"):
            compute_distributions(spec, max_weight=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**14


def test_span_counts_are_sized_by_the_rows_support():
    """The group counts and the transform's inputs run to the weight of
    the rows' joint support, not to n.  With no rows at n = 10^7 they
    hold one entry each, where n + 1 counters and Fractions took 160 MB;
    where the support is narrower than max_weight, A is padded with
    zeros and every distribution matches the definitional counts."""
    spec = StabilizerSpec(10**7, ())
    tracemalloc.start()
    try:
        dists = compute_distributions(spec, max_weight=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert {key: d.exact_values for key, d in dists.items()} == {
        "A": (1,), "A_perp": frac(1), "C": frac(0), "B": frac(1)}
    narrow = StabilizerSpec(8, ("ZZIIIIII", "XXIIIIII"), ("IIZIIIII",))
    simplified = compute_distributions(narrow)
    assert simplified["A"].exact_values == (1, 1, 3, 3, 0, 0, 0, 0, 0)
    definitional = enumerators.projector_distributions(narrow)
    for key in ("A", "A_perp", "C", "B"):
        assert simplified[key].exact_values == definitional[key].exact_values


def test_weight_distribution_guard_against_bad_mode(t1):
    with pytest.raises(ValueError):
        weights_b(t1, "mystery")


def test_distributions_ignore_element_phases(t3, monkeypatch):
    # Dress every element with a pseudo-random extra phase.  The column
    # reads these phases, and so does A's DFT matrix for q >= 3 (partial
    # traces do not); the distributions are built from squared moduli,
    # and nothing may move.
    baseline = compute_distributions(t3)
    baseline_column = detectable_column(t3, t3.n)
    original = error_basis.permutation_actions

    def dressed(q, n, xs, zs):
        perm, phase = original(q, n, xs, zs)
        keys = np.hstack([xs, zs]) @ np.arange(1, 2 * n + 1) ** 3 % 97
        return perm, phase * np.exp(2j * np.pi * keys / 97)[:, None]

    monkeypatch.setattr(error_basis, "permutation_actions", dressed)
    dressed_dists = compute_distributions(t3)
    for key in ("A", "B", "A_perp", "C"):
        assert max(abs(x - y) for x, y in
                   zip(baseline[key].values, dressed_dists[key].values)) < 1e-9
    assert detectable_column(t3, t3.n) == baseline_column


def test_identities_compare_independent_engines(monkeypatch, tmp_path):
    # Skew one subset's partial-trace term: A' moves while A, from the
    # clock-exponent DFT, does not, so the transform row must fail.  Were
    # A and A' read from the same partial-trace norms, both would move.
    code = random_code(2, 3, 2, 2, seed=30)
    assert verify_identities(code).macwilliams_residual < 1e-9
    path = tmp_path / "code.json"
    path.write_text(serialize_code(code))
    original = enumerators._subset_terms

    def skewed(frames, subsets):
        terms = original(frames, subsets)
        terms[[subset == (1,) for subset in subsets]] *= 1.01
        return terms

    monkeypatch.setattr(enumerators, "_subset_terms", skewed)
    assert verify_identities(code).macwilliams_residual > 1e-6
    out = io.StringIO()
    assert run(["identities", str(path), "--format", "json"], stdout=out,
               stderr=io.StringIO()) == 1
    assert json.loads(out.getvalue())["results"]["all_ok"] is False


def test_scan_working_memory_is_bounded():
    # The pass holds one weight class's exponent arrays and one chunk of
    # gathered frames at a time; 2^20-entry chunks would exceed the bound.
    steane_hybrid = from_stabilizer(StabilizerSpec(
        7, ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"),
        ("XXXXXXX",)))
    for code, max_weight in ((random_code(2, 8, 2, 2, seed=21), 2), (steane_hybrid, None)):
        code.frame_stack
        tracemalloc.start()
        try:
            compute_distributions(code, max_weight=max_weight)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
