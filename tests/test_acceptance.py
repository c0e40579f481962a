"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Each test gathers its violations into a list and reports once, so
a failure still prints its line before the assert fires.
"""

import io
import json
import time

from conftest import dense_projector_distributions, make_f5, make_t1, make_t3, random_code

from hybridec.cli import run
from hybridec.detection import (
    all_detectable_of_weight,
    detectability,
    detectable_dimension_formula,
    detectable_dimension_numeric,
    simulate_transmission,
)
from hybridec.enumerators import (
    compute_distributions,
    detection_distance,
    macwilliams_of_a,
    sum_rules,
    weights_a,
    weights_b,
)
from hybridec.error_basis import enumerate_weight, parse_element

TOL = 1e-9

# 25 qubit codes (n <= 3) and 25 qutrit codes (n <= 2), K and M varied.
POOL_SHAPES = [
    (2, 1, 1, 1), (2, 1, 1, 2), (2, 1, 2, 1),
    (2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 1, 4),
    (2, 2, 4, 1), (2, 2, 3, 1), (2, 2, 1, 3),
    (2, 3, 1, 1), (2, 3, 1, 2), (2, 3, 2, 2), (2, 3, 2, 4), (2, 3, 4, 2),
    (2, 3, 1, 8), (2, 3, 8, 1), (2, 3, 3, 2), (2, 3, 2, 3), (2, 3, 5, 1),
    (2, 3, 1, 5), (2, 3, 6, 1), (2, 3, 4, 1), (2, 3, 1, 4),
    (3, 1, 1, 1), (3, 1, 1, 2), (3, 1, 1, 3), (3, 1, 3, 1), (3, 1, 2, 1),
    (3, 2, 1, 1), (3, 2, 1, 2), (3, 2, 2, 2), (3, 2, 3, 3), (3, 2, 1, 9),
    (3, 2, 9, 1), (3, 2, 4, 2), (3, 2, 2, 4), (3, 2, 3, 1), (3, 2, 1, 3),
    (3, 2, 2, 3), (3, 2, 3, 2), (3, 2, 5, 1), (3, 2, 1, 5), (3, 2, 8, 1),
    (3, 2, 1, 8), (3, 2, 4, 1), (3, 2, 1, 4), (3, 2, 2, 1), (3, 2, 6, 1),
]

_pool_cache = None
_dist_cache = {}


def pool():
    global _pool_cache
    if _pool_cache is None:
        _pool_cache = [
            random_code(q, n, k, m, seed=1000 + i)
            for i, (q, n, k, m) in enumerate(POOL_SHAPES)
        ]
    return _pool_cache


def dists_of(idx, code):
    if idx not in _dist_cache:
        _dist_cache[idx] = compute_distributions(code)
    return _dist_cache[idx]


def fixtures():
    return [("t1", make_t1()), ("t3", make_t3()), ("f5", make_f5())]


def report(num, desc, problems, elapsed=None):
    status = "PASS" if not problems else "FAIL"
    suffix = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    line = f"[criterion {num:2d}] {status} {desc}{suffix}"
    print(line)
    assert not problems, line + " :: " + "; ".join(problems[:5])


def test_criterion_01_dimension_counts():
    problems = []
    start = time.perf_counter()
    cases = [("t1", make_t1(), 2, 1), ("t3", make_t3(), 14, 13)]
    for name, code, want_h, want_q in cases:
        dims = detectable_dimension_formula(code.n, code.k, code.m, code.q)
        if (dims.hybrid, dims.quantum) != (want_h, want_q):
            problems.append(f"{name} formula gave {dims}")
        if detectable_dimension_numeric(code) != want_h:
            problems.append(f"{name} numeric rank disagrees with {want_h}")
    shapes = [(2, 1, 1, 2), (2, 2, 2, 2), (2, 2, 1, 4), (2, 3, 2, 3),
              (2, 3, 1, 8), (2, 3, 4, 2), (3, 1, 1, 3), (3, 1, 3, 1),
              (2, 3, 8, 1), (2, 2, 3, 1)]
    for i, (q, n, k, m) in enumerate(shapes):
        code = random_code(q, n, k, m, seed=200 + i)
        dims = detectable_dimension_formula(n, k, m, q)
        numeric = detectable_dimension_numeric(code)
        if numeric != dims.hybrid:
            problems.append(
                f"random {(q, n, k, m)}: numeric {numeric} != formula {dims.hybrid}")
        if dims.hybrid - dims.quantum != m - 1:
            problems.append(f"random {(q, n, k, m)}: gap is not M-1")
    elapsed = time.perf_counter() - start
    if elapsed > 10:
        problems.append(f"took {elapsed:.1f} s, bound is 10 s")
    report(1, "detectable dimension: closed form = numeric rank, gap = M-1",
           problems, elapsed)


def test_criterion_02_domination():
    problems = []
    start = time.perf_counter()
    for idx, code in enumerate(pool()):
        d = dists_of(idx, code)
        name = f"(({code.n}, {code.k}:{code.m}))_{code.q}"
        for wt, (a_val, b_val) in enumerate(zip(d["A"].values, d["B"].values)):
            if a_val < -TOL:
                problems.append(
                    f"code {idx} {name}: A_{wt} = {a_val}")
            if b_val - a_val < -TOL:
                problems.append(
                    f"code {idx} {name}: B_{wt} < A_{wt}")
    elapsed = time.perf_counter() - start
    if elapsed > 60:
        problems.append(f"took {elapsed:.1f} s, bound is 60 s")
    report(2, "B_d >= A_d >= 0 across 50 random codes", problems, elapsed)


def test_criterion_03_equality_is_detectability():
    problems = []
    start = time.perf_counter()
    named = fixtures() + [
        (f"pool[{i}]", code) for i, code in enumerate(pool())
    ]
    for name, code in named:
        if name.startswith("pool"):
            idx = int(name[5:-1])
            d = dists_of(idx, code)
        else:
            d = compute_distributions(code)
        for wt in range(code.n + 1):
            equal = abs(d["A"].values[wt] - d["B"].values[wt]) <= TOL
            ok, _ = all_detectable_of_weight(code, wt, TOL, max_counterexamples=1)
            if equal != ok:
                problems.append(
                    f"{name} weight {wt}: A=B is {equal} but scan says {ok}")
    elapsed = time.perf_counter() - start
    report(3, "A_d = B_d exactly when every weight-d error is detectable",
           problems, elapsed)


def test_criterion_04_projector_and_frame_forms_agree():
    problems = []
    start = time.perf_counter()
    shapes = [(2, 2, 1, 2), (2, 2, 2, 2), (2, 3, 1, 2), (3, 1, 1, 2),
              (3, 2, 2, 2), (2, 3, 2, 2), (3, 2, 1, 3), (2, 2, 4, 1),
              (3, 1, 2, 1), (2, 3, 1, 4)]
    named = fixtures() + [
        (f"random{i}", random_code(q, n, k, m, seed=400 + i))
        for i, (q, n, k, m) in enumerate(shapes)
    ]
    for name, code in named:
        # The paper's projector form, with dense matrices, pins the definitional one.
        dense = dense_projector_distributions(code)
        for key, weights in (("A", weights_a), ("B", weights_b)):
            simplified, definitional = weights(code).values, weights(code, "definitional").values
            for forms, got, want in (("frame and definitional", simplified, definitional),
                                     ("definitional and projector", definitional, dense[key])):
                diff = max(abs(x - y) for x, y in zip(got, want))
                if diff > TOL:
                    problems.append(f"{name}: {key} {forms} forms differ by {diff:.2e}")
    elapsed = time.perf_counter() - start
    report(4, "projector, definitional and frame-block evaluations agree to 1e-9",
           problems, elapsed)


def test_criterion_05_transform_and_additivity():
    problems = []
    start = time.perf_counter()
    named = fixtures() + [
        (f"pool[{i}]", code) for i, code in enumerate(pool())
    ]
    for name, code in named:
        if name.startswith("pool"):
            d = dists_of(int(name[5:-1]), code)
        else:
            d = compute_distributions(code)
        transform = macwilliams_of_a(d["A"], k=code.k, q=code.q)
        mac = max(abs(x - y) for x, y in
                  zip(transform.values, d["A_perp"].values))
        if mac > 1e-6:
            problems.append(f"{name}: transform residual {mac:.2e}")
        add = max(abs(b - (ap + c)) for b, ap, c in
                  zip(d["B"].values, d["A_perp"].values, d["C"].values))
        if add > TOL:
            problems.append(f"{name}: B - (A' + C) residual {add:.2e}")
        distance = code.n + 1
        for wt in range(1, code.n + 1):
            if abs(d["A"].values[wt] - d["B"].values[wt]) > TOL:
                distance = wt
                break
        for wt, c_val in enumerate(d["C"].values):
            if c_val < -TOL:
                problems.append(f"{name}: C_{wt} = {c_val} is negative")
            if wt < distance and c_val > TOL:
                problems.append(
                    f"{name}: C_{wt} = {c_val} below distance {distance}")
    elapsed = time.perf_counter() - start
    report(5, "transform of A reproduces A', B = A' + C, C vanishes below "
              "the detection distance", problems, elapsed)


def test_criterion_06_five_qubit_enumeration():
    problems = []
    start = time.perf_counter()
    code = make_f5()
    d = compute_distributions(code)
    expect = {
        "A": (1, 0, 0, 0, 15, 0),
        "B": (1, 0, 0, 30, 15, 18),
        "A_perp": (1, 0, 0, 30, 15, 18),
        "C": (0, 0, 0, 0, 0, 0),
    }
    for key, want in expect.items():
        got = d[key].exact_values
        if got is None or tuple(int(f) for f in got) != want:
            problems.append(f"{key} came out as {d[key].values}")
    if detection_distance(d["A"], d["B"], TOL) != 3:
        problems.append("detection distance is not 3")
    elapsed = time.perf_counter() - start
    if elapsed > 30:
        problems.append(f"took {elapsed:.1f} s, bound is 30 s")
    report(6, "five-qubit code enumerates to its exact distributions",
           problems, elapsed)


def test_criterion_07_sum_rules():
    problems = []
    start = time.perf_counter()
    named = fixtures() + [
        (f"pool[{i}]", code) for i, code in enumerate(pool())
    ]
    for name, code in named:
        if name.startswith("pool"):
            d = dists_of(int(name[5:-1]), code)
        else:
            d = compute_distributions(code)
        rules = sum_rules(code, d["A"], d["B"], TOL)
        if not rules.ok:
            problems.append(f"{name}: sum A = {rules.a_total}, want {rules.a_expected}; "
                            f"sum B = {rules.b_total}, want {rules.b_expected}")
    elapsed = time.perf_counter() - start
    report(7, "sum A_d = q^n / K and sum B_d = q^n K M", problems, elapsed)


def test_criterion_08_transmission_protocol():
    problems = []
    start = time.perf_counter()
    cases = [("t3", make_t3(), [1]), ("f5", make_f5(), [1, 0])]
    for name, code, phi in cases:
        elements = list(enumerate_weight(code.q, code.n, 0))
        elements += list(enumerate_weight(code.q, code.n, 1))
        for e in elements:
            if not detectability(code, e, TOL).detectable:
                continue
            for msg in range(1, code.m + 1):
                tally = simulate_transmission(code, msg, phi, e,
                                              trials=1000, seed=500 + msg)
                wrong = sum(c for label, c in tally.counts.items()
                            if label not in (msg, "epsilon"))
                if wrong:
                    problems.append(
                        f"{name} {e} message {msg}: {wrong} wrong outcomes")
                if (tally.post_state_fidelity is not None
                        and tally.post_state_fidelity < 1 - 1e-10):
                    problems.append(
                        f"{name} {e} message {msg}: fidelity "
                        f"{tally.post_state_fidelity}")
    # Undetectable counterexample: the shift converts message 1 into
    # message 2 with certainty.
    tally = simulate_transmission(make_t1(), 1, [1], parse_element("X", 2),
                                  trials=1000, seed=77)
    if tally.counts != {1: 0, 2: 1000, "epsilon": 0}:
        problems.append(f"shift counterexample tallied {tally.counts}")
    elapsed = time.perf_counter() - start
    report(8, "detectable errors never deliver a wrong message over 1000 "
              "trials; an undetectable one always does", problems, elapsed)


def test_criterion_09_single_block_specialization():
    problems = []
    start = time.perf_counter()
    shapes = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 2, 4),
              (2, 3, 2), (2, 3, 8), (3, 1, 3), (3, 2, 9), (3, 2, 4)]
    named = [("f5", make_f5())] + [
        (f"random{i}", random_code(q, n, k, 1, seed=600 + i))
        for i, (q, n, k) in enumerate(shapes)
    ]
    for name, code in named:
        d = compute_distributions(code)
        if any(abs(v) > TOL for v in d["C"].values):
            problems.append(f"{name}: C is not identically zero")
        gap = max(abs(b - ap) for b, ap in
                  zip(d["B"].values, d["A_perp"].values))
        if gap > TOL:
            problems.append(f"{name}: B and A' differ by {gap:.2e}")
    elapsed = time.perf_counter() - start
    report(9, "single-block codes: C = 0 and B = A'", problems, elapsed)


def test_criterion_10_cli_determinism(code_files):
    problems = []
    start = time.perf_counter()
    outputs = []
    for jobs in ("1", "8", "1"):
        buf = io.StringIO()
        rc = run(["enumerators", code_files["f5"], "--format", "json",
                  "--jobs", jobs], stdout=buf, stderr=io.StringIO())
        if rc != 0:
            problems.append(f"exit code {rc} with --jobs {jobs}")
        outputs.append(buf.getvalue())
    if len(set(outputs)) != 1:
        problems.append("outputs differ between runs or job counts")
    try:
        json.loads(outputs[0])
    except json.JSONDecodeError:
        problems.append("output is not valid JSON")
    elapsed = time.perf_counter() - start
    report(10, "CLI output is byte-identical across repeats and --jobs",
           problems, elapsed)
