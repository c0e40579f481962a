"""Command line behavior: exit codes, payload shapes, determinism."""

import io
import json
import time
import warnings

import numpy as np
import pytest

from conftest import basis_state, random_code

from hybridec import cli
from hybridec.cli import dumps_report, run
from hybridec.code_model import HybridCode, serialize_code


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv + ["--format", "json"])
    payload = json.loads(out) if out else None
    return code, payload, err


def test_validate_good_file(code_files):
    code, payload, _ = run_json(["validate", code_files["t1"]])
    assert code == 0
    assert payload["command"] == "validate"
    assert payload["results"]["valid"] is True
    assert payload["results"]["parameters"] == {"q": 2, "n": 1, "K": 1, "M": 2}
    assert payload["inputs"]["file"] == code_files["t1"]
    assert "jobs" not in payload["inputs"]
    assert "format" not in payload["inputs"]


def test_validate_flags_overlap(tmp_path):
    e0, e1 = basis_state(2, 0), basis_state(2, 1)
    tilted = (e0 + e1) / np.sqrt(2)
    bad = HybridCode(2, 1, [[e0], [tilted]])
    path = tmp_path / "bad.json"
    path.write_text(serialize_code(bad))
    code, payload, _ = run_json(["validate", str(path)])
    assert code == 1
    assert payload["results"]["valid"] is False
    assert payload["results"]["issues"][0]["kind"] == "cross_overlap"


def test_validate_structure_error(tmp_path):
    path = tmp_path / "anticommute.json"
    path.write_text(json.dumps({"n": 2, "stabilizers": ["XX", "ZI"]}))
    code, payload, _ = run_json(["validate", str(path)])
    assert code == 1
    assert payload["results"]["valid"] is False
    assert payload["results"]["issues"][0]["kind"] == "structure"


@pytest.mark.parametrize("entry", [[1e308, 1e308], [1e200, 0], [10**400, 0]])
def test_validate_refuses_frames_whose_gram_overflows(tmp_path, entry):
    # The Gram is nan for the first entry and inf for the second; the
    # third is an integer too large for a float, read as non-finite.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"q": 2, "n": 1, "K": 1, "M": 1, "blocks": [[[entry, [0, 0]]]]}))
    code, payload, err = run_json(["validate", str(path)])
    assert code == 1
    assert payload["results"]["valid"] is False
    assert payload["results"]["issues"][0]["kind"] == "structure"
    assert "Traceback" not in err
    for argv in (["detect", "--error", "X"], ["dimension"]):
        code, out, err = run_cli([argv[0], str(path), *argv[1:], "--format", "json"])
        assert code == 2
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("entry", [[1e308, 0], [1e308, 1e308], [1e200, 0]])
def test_strict_parse_names_a_non_finite_squared_norm(tmp_path, entry):
    # The squared norm is checked before the Gram is formed, so numpy
    # never overflows and the refusal names the cause.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"q": 2, "n": 1, "K": 1, "M": 1, "blocks": [[[entry, [0, 0]]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["detect", str(path), "--error", "X", "--format", "json"])
    assert code == 2
    assert out == ""
    assert err == "error: frame entries and their squared norm must be finite\n"


def test_one_parser_serves_every_request(code_files, capsys, monkeypatch):
    # argparse writes its own errors to sys.stderr, so capsys reads them.
    requests = [
        ["detect", code_files["f5"], "--weight", "x"],
        ["detect", code_files["f5"], "--error", "XZZXI", "--format", "json"],
        ["detect", code_files["f5"], "--weight", "1", "--format", "json"],
        ["enumerators", code_files["t3"], "--max-weight", "1", "--format", "json"],
    ]

    def answers():
        out = []
        for argv in requests:
            code = run(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    cached = answers()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == answers()
    assert [c for c, _, _ in cached] == [2, 0, 0, 0]


def test_frame_documents_with_boolean_entries_are_bad_input(tmp_path):
    path = tmp_path / "bool_entry.json"
    path.write_text(json.dumps({"q": 2, "n": 2, "K": 1, "M": 1,
                                "blocks": [[[[True, 0], [0, 0], [0, 0], [0, 0]]]]}))
    for argv in (["validate"], ["dimension"], ["detect", "--error", "XI"]):
        code, out, err = run_cli([argv[0], str(path), *argv[1:], "--format", "json"])
        assert code == 2
        assert out == ""
        assert "[re, im] pair" in err


def test_frame_documents_with_huge_n_are_bad_input(tmp_path):
    path = tmp_path / "huge_n.json"
    path.write_text(json.dumps({"q": 2, "n": 10**9, "K": 1, "M": 1,
                                "blocks": [[[[1, 0], [0, 0]]]]}))
    for command in ("validate", "dimension"):
        code, out, err = run_cli([command, str(path), "--format", "json"])
        assert code == 2
        assert out == ""
        assert "cannot be listed" in err


def test_stabilizer_document_without_generators_builds(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 4, "stabilizers": []}))
    code, payload, _ = run_json(["validate", str(path)])
    assert code == 0
    assert payload["results"]["valid"] is True
    assert payload["results"]["parameters"] == {"q": 2, "n": 4, "K": 16, "M": 1}


def test_malformed_file_is_bad_input(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, out, err = run_cli(["validate", str(path)])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_file_is_bad_input():
    code, _, err = run_cli(["distance", "/no/such/file.json"])
    assert code == 2
    assert "error:" in err


def test_no_command_is_bad_input(capsys):
    assert run([], stderr=io.StringIO()) == 2
    capsys.readouterr()


def test_enumerators_two_qubit(code_files):
    code, payload, _ = run_json(["enumerators", code_files["t3"]])
    assert code == 0
    dists = payload["results"]["distributions"]
    assert dists["A"]["values"] == [1.0, 2.0, 1.0]
    assert dists["A"]["exact"] == ["1", "2", "1"]
    assert dists["B"]["exact"] == ["1", "2", "5"]
    assert dists["C"]["exact"] == ["0", "0", "4"]
    assert payload["results"]["sum_rules"]["ok"] is True
    assert payload["results"]["detection_distance"] == 2
    weights = payload["results"]["weights"]
    assert weights[1]["all_detectable"] is True
    assert weights[2]["all_detectable"] is False


def _without_floats(node):
    if isinstance(node, dict):
        return {key: _without_floats(val) for key, val in node.items()}
    if isinstance(node, list):
        return [_without_floats(val) for val in node]
    return None if isinstance(node, float) else node


def test_enumerators_definitional_mode(code_files):
    code, payload, _ = run_json(
        ["enumerators", code_files["t1"], "--mode", "definitional"])
    assert code == 0
    assert payload["inputs"]["mode"] == "definitional"
    assert payload["results"]["distributions"]["A"]["values"] == [1.0, 1.0]
    assert payload["results"]["distributions"]["B"]["values"] == [1.0, 3.0]
    # On the five-qubit code every field but the floats and the mode
    # matches the simplified mode's.
    runs = {}
    for mode in ("simplified", "definitional"):
        code, payload, err = run_json(["enumerators", code_files["f5"], "--mode", mode])
        del payload["inputs"]["mode"], payload["results"]["mode"]
        runs[mode] = (code, _without_floats(payload), err)
    assert runs["definitional"] == runs["simplified"]
    assert runs["definitional"][0] == 0


def test_enumerators_max_weight(code_files):
    code, payload, _ = run_json(
        ["enumerators", code_files["f5"], "--max-weight", "1"])
    assert code == 0
    dists = payload["results"]["distributions"]
    assert dists["A"]["values"] == [1.0, 0.0]
    assert payload["results"]["sum_rules"] is None
    assert payload["results"]["detection_distance"] is None


def test_enumerators_jobs_do_not_change_output(code_files):
    _, out1, _ = run_cli(["enumerators", code_files["f5"], "--format", "json",
                          "--jobs", "1"])
    _, out8, _ = run_cli(["enumerators", code_files["f5"], "--format", "json",
                          "--jobs", "8"])
    assert out1 == out8


def test_distance(code_files):
    code, payload, _ = run_json(["distance", code_files["t3"]])
    assert code == 0
    assert payload["results"]["detection_distance"] == 2
    table = payload["results"]["table"]
    assert table[1]["equal"] is True
    assert table[2]["equal"] is False


def test_distance_json_floats_are_full_precision(code_files):
    _, out, _ = run_cli(["distance", code_files["t3"], "--format", "json"])
    assert "1.0000000000000000e+00" in out
    assert "elapsed" not in out


def test_detect_single_error(code_files):
    code, payload, _ = run_json(["detect", code_files["t1"], "--error", "Z"])
    assert code == 0
    r = payload["results"]
    assert r["detectable"] is True
    assert r["lambdas"] == [[1.0, 0.0], [-1.0, 0.0]]
    assert r["witness"] is None

    code, payload, _ = run_json(["detect", code_files["t1"], "--error", "X"])
    assert code == 0
    r = payload["results"]
    assert r["detectable"] is False
    assert r["lambdas"] is None
    assert r["witness"] == [2, 1]


def test_detect_weight_scan(code_files):
    code, payload, _ = run_json(["detect", code_files["t3"], "--weight", "2"])
    assert code == 0
    r = payload["results"]
    assert r["count"] == 9
    assert r["all_detectable"] is False
    assert r["counterexamples"][0]["error"] == "XX"


def test_detect_argument_errors(code_files):
    code, _, err = run_cli(["detect", code_files["t3"], "--weight", "7"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["detect", code_files["t3"], "--error", "QQ"])
    assert code == 2 and "error:" in err


def test_correctable(code_files):
    code, payload, _ = run_json(
        ["correctable", code_files["t3"], "--errors", "II,ZI"])
    assert code == 0
    assert payload["results"]["correctable"] is True
    assert payload["results"]["witness"] is None

    code, payload, _ = run_json(
        ["correctable", code_files["t3"], "--errors", "II,XX"])
    assert code == 0
    assert payload["results"]["correctable"] is False
    assert payload["results"]["witness"] == ["II", "XX"]


def test_correctable_warns_without_identity(code_files):
    code, payload, _ = run_json(
        ["correctable", code_files["t3"], "--errors", "ZI"])
    assert code == 0
    assert payload["warnings"]
    _, text_out, _ = run_cli(["correctable", code_files["t3"], "--errors", "ZI"])
    assert "warning:" in text_out


def test_dimension(code_files):
    code, payload, _ = run_json(["dimension", code_files["t1"]])
    assert code == 0
    r = payload["results"]
    assert (r["hybrid_dimension"], r["quantum_dimension"], r["difference"]) == (2, 1, 1)
    assert r["numeric_dimension"] is None

    code, payload, _ = run_json(["dimension", code_files["t1"], "--numeric"])
    assert code == 0
    assert payload["results"]["numeric_dimension"] == 2
    assert payload["results"]["matches_formula"] is True


def test_dimension_numeric_guard(code_files):
    code, out, err = run_cli(["dimension", code_files["f5"], "--numeric"])
    assert code == 3
    assert out == ""
    assert "guard" in err


def test_oversized_stabilizer_documents_are_refused_before_building(tmp_path):
    for n in (20, 40):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "stabilizers": ["Z" * n],
                                    "classical_ops": ["X" * n]}))
        for argv in (["detect", "--weight", "1"], ["validate"], ["dimension", "--numeric"]):
            code, out, err = run_cli([argv[0], str(path), *argv[1:], "--format", "json"])
            assert code == 3
            assert out == ""
            assert "guard" in err and "Traceback" not in err
        # The closed form needs no frames, so plain dimension still answers.
        code, payload, _ = run_json(["dimension", str(path)])
        assert code == 0
        assert payload["results"]["parameters"] == {"q": 2, "n": n, "K": 2 ** (n - 2), "M": 2}
        assert payload["results"]["difference"] == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_dimension_refuses_unprintable_stabilizer_documents(tmp_path, fmt, monkeypatch):
    # q^(2n) = 2^40000 has 12042 digits, past the 4300 that str() prints by
    # default; n = 10^9 must be refused before 2^n is formed, also when
    # the limit is lifted (0), which leaves the default as the bound.
    for n, limit in ((20000, None), (10**9, None), (10**9, 0)):
        if limit is not None:
            monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: limit)
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "stabilizers": []}))
        start = time.perf_counter()
        code, out, err = run_cli(["dimension", str(path), "--format", fmt])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "guard" in err and "Traceback" not in err
    path = tmp_path / "n40.json"
    path.write_text(json.dumps({"n": 40, "stabilizers": ["Z" * 40]}))
    code, out, _ = run_cli(["dimension", str(path), "--format", fmt])
    assert code == 0
    assert str(4**40 - 4**39 + 1) in out


def test_simulate(code_files):
    code, payload, _ = run_json(
        ["simulate", code_files["t1"], "--message", "1", "--error", "X",
         "--trials", "50", "--seed", "4"])
    assert code == 0
    r = payload["results"]
    assert r["counts"] == {"1": 0, "2": 50, "epsilon": 0}
    assert r["wrong_message_count"] == 50
    assert r["post_state_fidelity"] is None


def test_simulate_detected_error(code_files):
    code, payload, _ = run_json(
        ["simulate", code_files["t3"], "--message", "2", "--error", "ZI",
         "--trials", "100", "--seed", "1"])
    assert code == 0
    r = payload["results"]
    assert r["wrong_message_count"] == 0
    assert r["counts"]["2"] == 100
    assert r["post_state_fidelity"] >= 1 - 1e-10


def test_simulate_repeats_identically(code_files):
    argv = ["simulate", code_files["f5"], "--message", "1", "--error", "XIIII",
            "--trials", "200", "--seed", "7", "--format", "json"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2


def test_simulate_argument_errors(code_files):
    code, _, err = run_cli(
        ["simulate", code_files["t3"], "--message", "9", "--error", "ZI"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        ["simulate", code_files["f5"], "--message", "1", "--error", "ZIIII",
         "--state", "basis:5"])
    assert code == 2 and "error:" in err


def test_simulate_draws_any_trial_count_in_constant_memory(tmp_path):
    # One multinomial draw: 10^12 trials take no array of that length.
    path = tmp_path / "random.json"
    path.write_text(serialize_code(random_code(2, 2, 1, 2, seed=3)))
    argv = ["simulate", str(path), "--message", "1", "--error", "XI"]
    start = time.perf_counter()
    code, payload, _ = run_json(argv + ["--trials", str(10**12)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    counts = payload["results"]["counts"]
    assert sum(counts.values()) == 10**12
    assert sum(c > 0 for c in counts.values()) == 3
    code, out, err = run_cli(argv + ["--trials", str(2**63)])
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_simulate_explicit_state(code_files):
    state = json.dumps([[0.6, 0], [0.8, 0]])
    code, payload, _ = run_json(
        ["simulate", code_files["f5"], "--message", "1", "--error", "IIIII",
         "--state", state, "--trials", "20", "--seed", "0"])
    assert code == 0
    assert payload["results"]["counts"]["1"] == 20


@pytest.mark.parametrize("state", ["[[true, false]]", "[[1, false]]", "[[1.0, true]]"])
def test_simulate_refuses_boolean_state_entries(code_files, state):
    # JSON true and false load as bool, a subclass of int; they are not numbers.
    code, out, err = run_cli(
        ["simulate", code_files["t1"], "--message", "1", "--error", "I",
         "--state", state, "--format", "json"])
    assert code == 2
    assert out == ""
    assert err == "error: state entry 0 must be a [re, im] pair\n"


def test_identities(code_files):
    code, payload, _ = run_json(["identities", code_files["t3"]])
    assert code == 0
    r = payload["results"]
    assert r["all_ok"] is True
    assert r["detection_distance"] == 2
    assert r["macwilliams_residual"] == 0.0
    assert r["distributions"]["A_perp_transform"]["exact"] == ["1", "2", "1"]


def test_tolerance_environment_variable(code_files, monkeypatch):
    monkeypatch.setenv("HYBRIDEC_TOL", "10")
    code, payload, _ = run_json(["distance", code_files["t3"]])
    assert payload["inputs"]["tol"] == 10.0
    assert payload["results"]["detection_distance"] == 3

    # An explicit flag wins over the environment.
    code, payload, _ = run_json(["distance", code_files["t3"], "--tol", "1e-9"])
    assert payload["results"]["detection_distance"] == 2

    # Not a number, or not finite and >= 0: a nan tolerance would call
    # every error detectable and print invalid JSON.
    for value in ("not-a-number", "nan", "inf", "-1"):
        monkeypatch.setenv("HYBRIDEC_TOL", value)
        code, out, err = run_cli(["distance", code_files["t3"], "--format", "json"])
        assert code == 2 and out == "" and "HYBRIDEC_TOL" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_tolerance_flag_must_be_finite_and_nonnegative(code_files, value):
    # nan or inf would call every error detectable, -1 none.
    for command in ("distance", "detect"):
        argv = [command, code_files["t3"], f"--tol={value}", "--format", "json"]
        if command == "detect":
            argv += ["--weight", "1"]
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "--tol" in err


def test_json_refuses_non_finite_floats():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            dumps_report({"results": {"values": [1.0, bad]}})


def test_stabilizer_document_rejects_boolean_n(tmp_path):
    path = tmp_path / "bool_n.json"
    path.write_text(json.dumps({"n": True, "stabilizers": []}))
    for command in ("validate", "dimension"):
        code, out, err = run_cli([command, str(path), "--format", "json"])
        assert code == 2
        assert out == ""
        assert "n must be a positive integer" in err


def test_text_format(code_files):
    code, out, _ = run_cli(["distance", code_files["t3"]])
    assert code == 0
    assert "detection distance: 2" in out
    assert "elapsed:" in out
    code, out, _ = run_cli(["enumerators", code_files["t3"]])
    assert "A exact: 1, 2, 1" in out
    assert "sum rules:" in out


def test_bad_jobs_value(code_files):
    code, _, err = run_cli(["distance", code_files["t3"], "--jobs", "0"])
    assert code == 2 and "jobs" in err


def test_identities_at_zero_tolerance_never_reports_distance_zero(tmp_path):
    # Weight 0 is the identity.  On random frames A_0 and B_0 differ in
    # the last bits, which at --tol 0 must not make 0 the distance.
    for seed in range(10):
        path = tmp_path / f"r{seed}.json"
        path.write_text(serialize_code(random_code(2, 3, 2, 2, seed=seed)))
        code, dist, _ = run_json(["distance", str(path), "--tol", "0"])
        assert code == 0 and dist["inputs"]["tol"] == 0.0
        _, ident, _ = run_json(["identities", str(path), "--tol", "0"])
        distance = dist["results"]["detection_distance"]
        assert distance >= 1
        assert ident["results"]["detection_distance"] == distance
