"""Self-tests of the benchmark's generator, checker and metric names.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import io
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import generate  # noqa: E402
import models  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z][A-Za-z0-9_.-]{0,63}")


def _generated(out, seed):
    generate.generate("stabilizer-queries", seed, str(out))
    return {p.name: p.read_bytes().replace(str(out).encode(), b"")
            for p in sorted(out.iterdir())}


def test_generator_deterministic_per_seed_and_varies_across_seeds(tmp_path):
    a = _generated(tmp_path / "a", 3)
    assert a == _generated(tmp_path / "b", 3)
    assert a != _generated(tmp_path / "c", 4)


@pytest.fixture(scope="module")
def answered(tmp_path_factory):
    """scan-frames requests of one seed with the program's responses."""
    from hybridec import cli

    out = str(tmp_path_factory.mktemp("scan"))
    reqs = generate.generate("scan-frames", 5, out)
    responses = []
    for req in reqs:
        if req["expect"]["parameters"]["n"] <= 5:
            buf = io.StringIO()
            responses.append((req, cli.run(req["argv"], stdout=buf), buf.getvalue()))
    return responses


def test_checker_accepts_program_output(answered):
    for req, rc, out in answered:
        assert check.check(req, rc, out) == [], req["argv"]


def _tampered(out, edit):
    report = json.loads(out)
    edit(report["results"])
    return json.dumps(report)


def test_checker_flags_flipped_detection_distance(answered):
    req, rc, out = next(a for a in answered if a[0]["command"] == "distance")

    def flip(res):
        res["detection_distance"] += 1

    assert check.check(req, rc, _tampered(out, flip))


def test_checker_flags_perturbed_a_coefficient(answered):
    for req, rc, out in answered:
        if req["command"] != "enumerators":
            continue

        def perturb(res):
            res["distributions"]["A"]["values"][1] += 1e-6

        assert check.check(req, rc, _tampered(out, perturb)), req["argv"]


def test_checker_flags_wrong_exit_code(answered):
    req, _, out = answered[0]
    assert check.check(req, 1, out)


def test_five_qubit_stored_answers():
    five = generate.load_expected()["five_qubit"]
    assert five["A"] == [1, 0, 0, 0, 15, 0]
    assert five["B"] == [1, 0, 0, 30, 15, 18]
    code = {"params": generate.params(2, 5, 2, 1),
            "model": generate.stabilizer_spec(5, generate.FIVE_QUBIT, ())}
    assert generate.scan_expect(code, five)["distance"] == 3


@pytest.mark.parametrize("name", sorted(generate.NAMED))
def test_reference_engine_reproduces_stored_answers(name):
    n, gens, cls = generate.NAMED[name]
    frames = generate.stabilizer_frames(np.random.default_rng(0), n, gens, cls, [1] * len(gens))
    ref = models.reference_distributions(frames, 2, n)
    for key, want in generate.load_expected()[name].items():
        assert ref[key] == pytest.approx(want, abs=1e-9)


def test_random_stabilizer_rows_commute_and_are_independent():
    gens, cls = generate.random_stabilizer(np.random.default_rng(1), 9, 4, 2)
    rows = [models.pauli_bits(p) for p in gens + cls]
    assert all(models.symplectic_inner(a, b, 9) == 0 for a in rows for b in rows)
    models.StabilizerModel(9, gens, cls)  # raises on dependent rows


def test_metric_names_and_counts():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.E2E_UNITS)
    assert layers == list(run.per_layer_units())
    assert len(e2e) <= 16 and len(layers) <= 128
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert all(NAME.fullmatch(n) for n in e2e + layers)
    assert [w["name"] for w in bench["workloads"]] == list(generate.WORKLOADS)
