"""Weight distributions, the exact transform, and the identity checks."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_code

from hybridec import error_basis
from hybridec.code_model import StabilizerSpec, from_stabilizer
from hybridec.detection import all_detectable_of_weight
from hybridec.enumerators import (
    WeightDistribution,
    compute_distributions,
    detection_distance,
    macwilliams_of_a,
    min_detection_weight,
    snap_to_rationals,
    sum_rule_targets,
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


def test_transform_reference_codes(t1, t3, f5):
    assert macwilliams_of_a(t1).exact_values == frac(1, 1)
    assert macwilliams_of_a(t3).exact_values == frac(1, 2, 1)
    out = macwilliams_of_a(f5)
    assert out.exact_values == frac(1, 0, 0, 30, 15, 18)
    assert out.kind == "A_perp"


def test_transform_accepts_raw_values():
    out = macwilliams_of_a((1.0, 1.0), k=1, n=1, q=2)
    assert out.values == (1.0, 1.0)
    with pytest.raises(ValueError):
        macwilliams_of_a((1.0, 1.0), k=1, n=1)          # q missing
    with pytest.raises(ValueError):
        macwilliams_of_a((2.0, 1.0), k=1, n=1, q=2)     # weight-0 term must be 1


def test_transform_needs_full_distribution(t3):
    partial = weights_a(t3, max_weight=1)
    with pytest.raises(ValueError):
        macwilliams_of_a(partial, k=t3.k, q=t3.q)


def test_transform_matches_direct_on_random_codes():
    for q, n, k, m, seed in [(2, 2, 1, 2, 70), (2, 2, 2, 1, 71), (3, 1, 1, 3, 72)]:
        code = random_code(q, n, k, m, seed)
        direct = compute_distributions(code)["A_perp"]
        via_transform = macwilliams_of_a(code)
        assert max(abs(x - y) for x, y in
                   zip(direct.values, via_transform.values)) < 1e-6


def test_min_detection_weight(t1, t3, f5):
    assert min_detection_weight(t1) == 1
    assert min_detection_weight(t3) == 2
    assert min_detection_weight(f5) == 3


def test_min_detection_weight_when_everything_is_detectable():
    # A one dimensional code with a single block: every compression is a
    # scalar, so no weight ever separates the distributions.
    code = random_code(2, 1, 1, 1, seed=80)
    assert min_detection_weight(code) == 2


def test_max_violation_column(t1, t3, f5):
    # Weight 0 is the identity, always detectable.  X swaps the blocks of
    # t1 and XX those of t3; the five-qubit code detects everything below
    # weight 3 and, as A_4 = B_4 = 15, everything of weight 4.
    expect = {t1: [True, False], t3: [True, True, False],
              f5: [True, True, True, False, True, False]}
    for code, detectable in expect.items():
        worst = compute_distributions(code)["max_violation"]
        assert [w <= 1e-9 for w in worst] == detectable
    capped = compute_distributions(f5, max_weight=1)
    assert len(capped["max_violation"]) == 2


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
        for wt in range(code.n + 1):
            equal = abs(d["A"].values[wt] - d["B"].values[wt]) <= 1e-9
            ok, _ = all_detectable_of_weight(code, wt, 1e-9, max_counterexamples=1)
            assert equal == ok


def test_sum_rules(t1, t3, f5):
    codes = [t1, t3, f5,
             random_code(2, 3, 2, 3, seed=95),
             random_code(3, 2, 3, 2, seed=96)]
    for code in codes:
        d = compute_distributions(code)
        a_target, b_target = sum_rule_targets(code)
        assert abs(d["A"].total() - a_target) < 1e-9 * (1 + a_target)
        assert abs(d["B"].total() - b_target) < 1e-9 * (1 + b_target)


def test_verify_identities_report(t3):
    report = verify_identities(t3)
    assert report.macwilliams_residual < 1e-12
    assert report.additivity_residual < 1e-12
    assert report.c_nonneg_ok
    assert report.equivalence_ok
    assert report.detection_distance == 2
    assert [r.d for r in report.rows] == [0, 1, 2]
    assert report.rows[1].equal and report.rows[1].all_detectable
    assert not report.rows[2].equal and not report.rows[2].all_detectable


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
    assert first["max_violation"] == again["max_violation"]


def test_enumeration_guard():
    code = random_code(2, 9, 1, 1, seed=12)
    with pytest.raises(GuardExceededError):
        compute_distributions(code)
    capped = compute_distributions(code, max_weight=1)
    assert len(capped["A"].values) == 2
    with pytest.raises(ValueError):
        compute_distributions(code, max_weight=10)


def test_weight_distribution_guard_against_bad_mode(t1):
    with pytest.raises(ValueError):
        weights_b(t1, "mystery")


def test_distributions_ignore_element_phases(t3, monkeypatch):
    # Dress every element with a pseudo-random extra phase; all four
    # distributions are built from squared moduli and must not move.
    baseline = compute_distributions(t3)
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
