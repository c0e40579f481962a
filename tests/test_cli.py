"""Command line behavior: exit codes, payload shapes, determinism."""

import io
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import FIVE_QUBIT_GENERATORS, basis_state, random_code

from hybridec import cli, code_model, detection, linalg
from hybridec.cli import dumps_report, run
from hybridec.code_model import HybridCode, from_stabilizer, parse_code_file, serialize_code
from hybridec.enumerators import compute_distributions, projector_distributions
from hybridec.error_basis import PauliElement, enumerate_weight, format_element, parse_element


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


def test_stabilizer_document_with_unmatched_signs_is_bad_input(tmp_path):
    path = tmp_path / "signs.json"
    path.write_text(json.dumps({"n": 2, "stabilizers": ["ZZ"], "signs": [1, -1]}))
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: signs must match stabilizers one for one")


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


def test_distance_json_floats_are_full_precision(code_files, tmp_path):
    # Every float in the JSON reads back to the exact double computed.
    path = tmp_path / "random.json"
    path.write_text(serialize_code(random_code(2, 3, 2, 2, seed=5)))
    for file in (code_files["t3"], str(path)):
        _, out, _ = run_cli(["distance", file, "--format", "json"])
        assert "elapsed" not in out
        payload = json.loads(out)
        with open(file, encoding="utf-8") as fh:
            dists = compute_distributions(parse_code_file(fh.read()))
        for key in ("A", "B"):
            printed = [row[key] for row in payload["results"]["table"]]
            assert all(type(v) is float for v in printed)
            assert printed == [float(v) for v in dists[key].values]
        assert payload["inputs"]["tol"] == linalg.ENTRY_TOL


def test_block_scalars_print_no_negative_zero(tmp_path):
    # The -i block scalar of Y is complex(-0.0, -1.0); both formats print 0.
    path = tmp_path / "y.json"
    path.write_text(json.dumps({"n": 1, "stabilizers": ["Y"]}))
    code, out, _ = run_cli(["detect", str(path), "--error", "Y", "--format", "json"])
    assert code == 0
    lambdas = json.loads(out)["results"]["lambdas"]
    assert lambdas == [[0.0, -1.0]] and math.copysign(1.0, lambdas[0][0]) == 1.0
    code, out, _ = run_cli(["detect", str(path), "--error", "Y", "--format", "text"])
    assert code == 0
    assert "block scalars: 0-1j\n" in out


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
    """Commands that need frames are refused at n = 20 and 40; detect and
    correctable answer from the check matrix, within SCAN_GUARD."""
    for n in (20, 40):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "stabilizers": ["Z" * n],
                                    "classical_ops": ["X" * n]}))
        for argv in (["validate"], ["dimension", "--numeric"]):
            code, out, err = run_cli([argv[0], str(path), *argv[1:], "--format", "json"])
            assert code == 3
            assert out == ""
            assert "guard" in err and "Traceback" not in err
        # Z_i keeps Z^n and flips X^n, so it moves block 1 to block 2;
        # X_i and Y_i leave the code; X^n acts as +1 and -1 on the blocks.
        single_z = ["I" * i + "Z" + "I" * (n - 1 - i) for i in range(10)]
        start = time.perf_counter()
        code, payload, _ = run_json(["detect", str(path), "--weight", "1"])
        assert code == 0
        assert payload["results"]["count"] == 3 * n
        assert payload["results"]["counterexamples"] == [
            {"error": z, "witness": [2, 1]} for z in single_z]
        code, payload, _ = run_json(["detect", str(path), "--error", "X" * n])
        assert code == 0
        assert payload["results"]["lambdas"] == [[1.0, 0.0], [-1.0, 0.0]]
        code, payload, _ = run_json(["correctable", str(path), "--errors",
                                     ",".join(["I" * n, "X" + "I" * (n - 1), single_z[0]])])
        assert code == 0
        assert payload["results"]["witness"] == ["I" * n, single_z[0]]
        assert time.perf_counter() - start < 1.0
        # The closed form needs no frames, so plain dimension still answers.
        code, payload, _ = run_json(["dimension", str(path)])
        assert code == 0
        assert payload["results"]["parameters"] == {"q": 2, "n": n, "K": 2 ** (n - 2), "M": 2}
        assert payload["results"]["difference"] == 1
    # SCAN_GUARD still bounds a weight class: C(40, 3) 3^3 = 266760 > 4^8.
    code, out, err = run_cli(["detect", str(tmp_path / "n40.json"), "--weight", "3"])
    assert (code, out) == (3, "")
    assert "guard" in err
    # A member's answer lists its 2^12 block scalars, past the guard.
    path = tmp_path / "m4096.json"
    path.write_text(json.dumps({"n": 12, "stabilizers": [], "classical_ops": [
        "I" * i + "Z" + "I" * (11 - i) for i in range(12)]}))
    code, out, err = run_cli(["detect", str(path), "--error", "Z" + "I" * 11])
    assert (code, out) == (3, "")
    assert "guard" in err


class FrameBuild(Exception):
    """Raised by a from_stabilizer stand-in."""


def test_detect_and_correctable_build_no_frames(code_files, monkeypatch):
    """detect, correctable, dimension, distance, identities and
    enumerators in both modes answer a stabilizer document without
    from_stabilizer, with the frame kernel's verdicts and distributions.
    validate, simulate and dimension --numeric reach from_stabilizer
    through code_model.frames_of, which looks it up when called."""
    path = code_files["f5"]
    with open(path, encoding="utf-8") as fh:
        frames = from_stabilizer(parse_code_file(fh.read()))
    errors = [PauliElement.identity(2, 5), *enumerate_weight(2, 5, 1), parse_element("XXIII", 2)]
    want_detect = detection.detectability(frames, parse_element("ZXIXZ", 2))
    want_scan = detection.all_detectable_of_weight(frames, 2)
    want_correct = detection.is_correctable_set(frames, errors)
    want_dists = projector_distributions(frames)

    def refuse(spec):
        raise FrameBuild

    monkeypatch.setattr(code_model, "from_stabilizer", refuse)
    code, payload, _ = run_json(["detect", path, "--error", "ZXIXZ"])
    assert code == 0
    got = payload["results"]
    assert (got["detectable"], got["witness"]) == (want_detect.detectable, None)
    assert np.allclose([complex(*l) for l in got["lambdas"]], want_detect.lambdas,
                       rtol=0, atol=1e-12)
    code, payload, _ = run_json(["detect", path, "--weight", "2"])
    assert code == 0
    assert payload["results"]["all_detectable"] is want_scan[0]
    assert payload["results"]["counterexamples"] == [
        {"error": format_element(f.error), "witness": list(f.witness)} for f in want_scan[1]]
    code, payload, _ = run_json(["correctable", path, "--errors",
                                 ",".join(format_element(e) for e in errors)])
    assert code == 0
    assert payload["results"]["correctable"] is want_correct[0]
    assert payload["results"]["witness"] == [format_element(e) for e in want_correct[1]]
    code, payload, _ = run_json(["dimension", path])
    assert (code, payload["results"]["hybrid_dimension"]) == (0, 1024 - 4 + 1)
    for mode in ("definitional", "simplified"):
        code, payload, _ = run_json(["enumerators", path, "--mode", mode])
        assert code == 0
        for key, dist in want_dists.items():
            assert payload["results"]["distributions"][key]["exact"] == [
                str(v) for v in dist.exact_values]
    code, payload, _ = run_json(["distance", path])
    assert (code, payload["results"]["detection_distance"]) == (0, 3)
    code, payload, _ = run_json(["identities", path])
    assert (code, payload["results"]["all_ok"]) == (0, True)
    for key, dist in want_dists.items():
        assert payload["results"]["distributions"][key]["exact"] == [
            str(v) for v in dist.exact_values]
    for argv in (["validate"], ["simulate", "--message", "1", "--error", "XIIII"],
                 ["dimension", "--numeric"]):
        with pytest.raises(FrameBuild):
            run_cli([argv[0], path, *argv[1:]])


def test_scan_guard_refuses_stabilizer_documents_before_any_frame_is_built(
        tmp_path, monkeypatch):
    """distance, enumerators in both modes and identities count the
    elements of their scan before building frames: on n = 9, with
    from_stabilizer refused, each exits 3 at SCAN_GUARD.  At n = 12,
    where from_stabilizer would refuse too, stderr names the scan guard."""
    for n in (9, 12):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "stabilizers": []}))
    monkeypatch.setattr(code_model, "from_stabilizer", lambda spec: pytest.fail("frames built"))
    for n in (9, 12):
        for argv in (["distance"], ["enumerators"], ["enumerators", "--mode", "definitional"],
                     ["identities"]):
            code, out, err = run_cli([argv[0], str(tmp_path / f"n{n}.json"), *argv[1:]])
            assert (code, out) == (3, "")
            assert f"guard is {detection.SCAN_GUARD}" in err


@pytest.mark.parametrize("n, weight", [(40, 20), (20000, 10000)])
def test_scans_past_the_guard_exit_3_at_any_n(tmp_path, n, weight):
    """A weight class past sys.maxsize meets the scan guard: its size is
    never taken with len(), and no count past the integer printing limit
    is formatted.  Each refusal is immediate."""
    path = tmp_path / f"n{n}.json"
    path.write_text(json.dumps({"n": n, "stabilizers": []}))
    for argv in (["distance"], ["identities"], ["enumerators"],
                 ["enumerators", "--mode", "definitional"], ["detect", "--weight", str(weight)]):
        start = time.perf_counter()
        code, out, err = run_cli([argv[0], str(path), *argv[1:]])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and f"guard is {detection.SCAN_GUARD}" in err


def test_capped_counts_of_stabilizer_documents_need_no_frames(tmp_path):
    """Capped simplified enumerators counts a stabilizer document's span,
    so 40 qubits are no obstacle: with the one generator ZZI...I, weights
    0 and 1 are exact and equal the definitional counts.  Seventeen
    generators span 2^17 elements, past SCAN_GUARD, and are refused at
    once."""
    n = 40
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": n, "stabilizers": ["ZZ" + "I" * (n - 2)]}))
    want = {"A": ["1", "0"], "B": ["1", "116"], "A_perp": ["1", "116"], "C": ["0", "0"]}
    for mode in ("simplified", "definitional"):
        code, payload, err = run_json(["enumerators", str(path), "--mode", mode,
                                       "--max-weight", "1"])
        assert (code, err) == (0, "")
        got = payload["results"]["distributions"]
        assert {key: dist["exact"] for key, dist in got.items()} == want
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"n": n, "stabilizers": [
        "I" * i + "Z" + "I" * (n - 1 - i) for i in range(17)]}))
    start = time.perf_counter()
    code, out, err = run_cli(["enumerators", str(path), "--max-weight", "1"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and f"guard is {detection.SCAN_GUARD}" in err


def test_scan_columns_of_stabilizer_documents_come_from_the_check_matrix(
        code_files, tmp_path, monkeypatch):
    """enumerators, in both modes, and identities scan a stabilizer
    document's column through its StabilizerSpec and an explicit-frame
    document's through its frames.  The stabilizer document's responses
    equal those for its from_stabilizer frames given explicitly, which
    the frame kernel answers."""
    with open(code_files["f5"], encoding="utf-8") as fh:
        frames = from_stabilizer(parse_code_file(fh.read()))
    explicit = tmp_path / "f5_frames.json"
    explicit.write_text(serialize_code(frames))
    scanned = []
    original = detection.all_detectable_of_weight

    def recorded(code, *args, **kwargs):
        scanned.append(type(code))
        return original(code, *args, **kwargs)

    def payload_of(path, argv):
        scanned.clear()
        code, payload, _ = run_json([argv[0], str(path), *argv[1:]])
        assert code == 0
        payload["inputs"]["file"] = None
        return payload, list(scanned)

    monkeypatch.setattr(detection, "all_detectable_of_weight", recorded)
    for argv in (["enumerators"], ["enumerators", "--mode", "definitional"], ["identities"]):
        got, kinds = payload_of(code_files["f5"], argv)
        assert kinds == [code_model.StabilizerSpec] * 6
        want, kinds = payload_of(explicit, argv)
        assert kinds == [HybridCode] * 6
        assert got == want
        _, kinds = payload_of(code_files["t3"], argv)
        assert kinds == [HybridCode] * 3


def _symplectic_rule(n, generators, classical):
    """The witness the stabilizer code gives a qubit error string, by the
    symplectic rule on Python integers: None when it detects the error,
    else [mask + 1, 1], mask over the classical operators it anticommutes
    with, the first one most significant (0 for a non-scalar logical)."""
    def bits(text):
        """X bits above Z bits, in one integer."""
        return (sum(1 << i for i, ch in enumerate(text) if ch in "XY") << n
                | sum(1 << i for i, ch in enumerate(text) if ch in "ZY"))

    def anticommute(a, b):
        return bin((a >> n) & b ^ a & (b >> n)).count("1") % 2

    def reduce(v):
        for lead in sorted(pivots, reverse=True):
            if v >> lead & 1:
                v ^= pivots[lead]
        return v

    gens = [bits(g) for g in generators]
    flips = [bits(h) for h in classical]
    pivots = {}
    for row in gens + flips:
        row = reduce(row)
        pivots[row.bit_length() - 1] = row

    def witness(err):
        err = bits(err) if isinstance(err, str) else err
        if any(anticommute(err, g) for g in gens) or not reduce(err):
            return None
        return [sum(anticommute(err, h) << i for i, h in enumerate(reversed(flips))) + 1, 1]

    return witness, bits


def _symplectic_correctable(n, generators, classical, errors):
    """The first ordered pair (f, e) whose f^dagger e the stabilizer code
    does not detect, by the symplectic rule; None when every pair passes."""
    witness, bits = _symplectic_rule(n, generators, classical)
    for f in errors:
        for e in errors:
            if witness(bits(f) ^ bits(e)) is not None:
                return [f, e]
    return None


def _on(letters, n=40):
    """An n-qubit string with the given letters at the given qubits, I elsewhere."""
    return "".join(letters.get(i, "I") for i in range(n))


# Two n = 40 generators mixing X, Y and Z on qubits 0, 2 and 13; each
# test adds single-qubit Z generators.
FORTY_QUBIT_GENERATORS = [_on({0: "X", 2: "Z", 13: "Z"}), _on({0: "Z", 2: "Y", 13: "Z"})]


def _forty_qubit_document(tmp_path, generators, classical):
    path = tmp_path / "n40.json"
    path.write_text(json.dumps({"n": 40, "stabilizers": generators, "classical_ops": classical}))
    return str(path)


def test_correctable_on_forty_qubits_keeps_every_composed_element(tmp_path):
    """Composed elements differing only in X on the first qubits are kept
    apart.  An integer key q^n x + z wraps in int64 at n = 40 and files
    Y_0 X_13, which fails, under Z_0, which passes, so the witness is lost."""
    generators = FORTY_QUBIT_GENERATORS + [_on({i: "Z"}) for i in range(40) if i not in (0, 2, 13)]
    classical = [_on({13: "Z"})]
    path = _forty_qubit_document(tmp_path, generators, classical)
    errors = ["I" * 40] + [format_element(e) for e in enumerate_weight(2, 40, 1)]
    want = _symplectic_correctable(40, generators, classical, errors)
    assert want == [_on({0: "Y"}), _on({13: "X"})]
    code, payload, _ = run_json(["correctable", path, "--errors", ",".join(errors)])
    assert code == 0
    assert payload["results"]["correctable"] is False
    assert payload["results"]["witness"] == want


def test_weight_scan_on_forty_qubits_follows_the_symplectic_rule(tmp_path):
    """detect --weight 2 at n = 40 screens all 7020 elements, within
    SCAN_GUARD, with the rule's verdict and first ten counterexamples.
    Only qubits 0, 2, 13 and 20-39 carry generators, so K = 2^16; the
    classical operators X_1 X_3 and Z_1 Z_3 give M = 4, and the first ten
    counterexamples take all four witnesses."""
    generators = FORTY_QUBIT_GENERATORS + [_on({i: "Z"}) for i in range(20, 40)]
    classical = [_on({1: "X", 3: "X"}), _on({1: "Z", 3: "Z"})]
    path = _forty_qubit_document(tmp_path, generators, classical)
    witness, _ = _symplectic_rule(40, generators, classical)
    elements = [format_element(e) for e in enumerate_weight(2, 40, 2)]
    failures = [{"error": e, "witness": w} for e in elements if (w := witness(e)) is not None]
    assert len(elements) == 7020
    assert {tuple(f["witness"]) for f in failures[:10]} == {(1, 1), (2, 1), (3, 1), (4, 1)}
    code, payload, _ = run_json(["detect", path, "--weight", "2"])
    assert code == 0
    assert payload["results"]["all_detectable"] is False
    assert payload["results"]["counterexamples"] == failures[:10]


@pytest.mark.parametrize("n", [12, 66])
def test_many_block_documents_answer_every_verdict(tmp_path, n):
    """Classical Z on each of n qubits, no generators: M = 2^n blocks, past
    the 2^11 guard.  The weight scan, the correctability test and detect
    --error on a non-member list no block scalars, so they answer, with the
    symplectic rule's witnesses; at n = 66, X on the first qubit flips the
    most significant operator, witness [2^65 + 1, 1].  A member's answer
    lists M block scalars and is refused."""
    classical = ["I" * i + "Z" + "I" * (n - 1 - i) for i in range(n)]
    path = tmp_path / f"m{n}.json"
    path.write_text(json.dumps({"n": n, "stabilizers": [], "classical_ops": classical}))
    witness, _ = _symplectic_rule(n, [], classical)
    spec = parse_code_file(path.read_text())
    elements = list(enumerate_weight(2, n, 1))
    failures = [{"error": format_element(e), "witness": w}
                for e in elements if (w := witness(format_element(e))) is not None]
    assert len(failures) == 2 * n
    ok, reports = detection.all_detectable_of_weight(spec, 1, max_counterexamples=len(elements))
    assert not ok
    assert [{"error": format_element(r.error), "witness": list(r.witness)}
            for r in reports] == failures
    code, payload, _ = run_json(["detect", str(path), "--weight", "1"])
    assert code == 0
    assert payload["results"]["count"] == 3 * n
    assert payload["results"]["counterexamples"] == failures[:10]
    errors = ["I" * n] + [e for e in map(format_element, elements) if "X" in e]
    code, payload, _ = run_json(["correctable", str(path), "--errors", ",".join(errors)])
    assert code == 0
    assert payload["results"]["witness"] == _symplectic_correctable(n, [], classical, errors)
    for err in ("X" + "I" * (n - 1), "X" * n, "IY" + "Z" * (n - 2)):
        code, payload, _ = run_json(["detect", str(path), "--error", err])
        assert code == 0
        assert payload["results"]["witness"] == witness(err)
        assert payload["results"]["lambdas"] is None
    assert witness("X" + "I" * (n - 1)) == [2 ** (n - 1) + 1, 1]
    code, out, err = run_cli(["detect", str(path), "--error", "Z" + "I" * (n - 1)])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "guard" in err
    if n == 12:
        code, payload, _ = run_json(["enumerators", str(path), "--mode", "definitional",
                                     "--max-weight", "1"])
        assert code == 0
        dists = payload["results"]["distributions"]
        assert (dists["A"]["exact"], dists["C"]["exact"]) == (["1", "12"], ["0", "24"])
        assert [w["all_detectable"] for w in payload["results"]["weights"]] == [True, False]


# Products of Hermitian letters: XY = iZ and its cyclic shifts, as a power of i.
_LETTER_TIMES = {("X", "Y"): (1, "Z"), ("Y", "Z"): (1, "X"), ("Z", "X"): (1, "Y"),
                 ("Y", "X"): (3, "Z"), ("Z", "Y"): (3, "X"), ("X", "Z"): (3, "Y")}


def _sign_rule(operators, c):
    """The element string of a product of signed check operators and its
    block scalars, by a sign rule on Python letters and integers.

    operators lists (sign, letters, j), j the classical operator's index
    or None for a generator.  Their Hermitian letters are multiplied
    qubit by qubit to i^power times one letter string.  The element that
    string names, X^x Z^z on each qubit, is (-i)^(#Y) times its letters.
    On block a each signed generator acts as 1 and signed classical
    operator j as -1 when bit j of a is set, the first operator most
    significant."""
    power, sign, letters = 0, 1, ["I"] * len(operators[0][1])
    for s, text, _ in operators:
        sign *= s
        for pos, b in enumerate(text):
            a = letters[pos]
            if "I" in (a, b) or a == b:
                letters[pos] = b if a == "I" else "I" if a == b else a
            else:
                step, letters[pos] = _LETTER_TIMES[a, b]
                power += step
    element = "".join(letters)
    lambdas = []
    for a in range(2**c):
        flips = sum(a >> (c - 1 - j) & 1 for _, _, j in operators if j is not None)
        lambdas.append(1j ** ((-element.count("Y") - power) % 4) * sign * (-1) ** flips)
    return element, lambdas


def test_detect_on_forty_qubits_reports_the_sign_rules_block_scalars(tmp_path):
    """detect --error at n = 40 gives a signed generator, a signed
    classical operator with Y letters, their product, and a product
    whose letters overlap, the block scalars of a sign rule on letters.
    At --tol 2 an element that flips blocks and a logical one outside
    <S, h> pass, but still report their violation of 1."""
    g0, g1 = FORTY_QUBIT_GENERATORS
    generators = [g0, "-" + g1] + [_on({i: "Z"}) for i in range(20, 40)]
    x13, y13 = _on({1: "X", 3: "X"}), _on({1: "Y", 3: "Y"})
    path = _forty_qubit_document(tmp_path, generators, [x13, "-" + y13])
    seen = set()
    for ops in ([(-1, g1, None)], [(-1, y13, 1)], [(-1, g1, None), (-1, y13, 1)],
                [(1, g0, None), (-1, g1, None), (1, x13, 0), (-1, y13, 1)]):
        element, lambdas = _sign_rule(ops, 2)
        code, payload, _ = run_json(["detect", path, "--error", element])
        got = payload["results"]
        assert code == 0 and (got["detectable"], got["witness"]) == (True, None)
        assert [complex(*pair) for pair in got["lambdas"]] == lambdas
        seen.update(lambdas)
    assert seen == {1, 1j, -1, -1j}
    for element, diag, off in ((_on({1: "X"}), 0.0, 1.0), (_on({5: "X"}), 1.0, 0.0)):
        code, payload, _ = run_json(["detect", path, "--error", element, "--tol", "2"])
        got = payload["results"]
        assert code == 0 and (got["detectable"], got["witness"]) == (True, None)
        assert got["lambdas"] == [[0.0, 0.0]] * 4
        assert (got["max_diag_violation"], got["max_offdiag_violation"]) == (diag, off)


def test_weight_scans_hold_one_slice_at_large_n(tmp_path):
    # 6000 weight-1 elements on 2000 qubits: the whole class as exponent
    # arrays takes 183 MiB, a slice a few kilobytes.
    path = tmp_path / "n2000.json"
    path.write_text(json.dumps({"n": 2000, "stabilizers": []}))
    for argv in (["detect", "--weight", "1"], ["enumerators", "--mode", "definitional",
                                              "--max-weight", "1"]):
        tracemalloc.start()
        try:
            code, payload, _ = run_json([argv[0], str(path), *argv[1:]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20
    # Every slice is counted: all 6000 elements commute with the empty S.
    assert {key: payload["results"]["weights"][1][key] for key in ("A", "B", "all_detectable")} == {
        "A": 0.0, "B": 6000.0, "all_detectable": False}


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unprintable_k_exits_3(tmp_path, fmt):
    # K = 2^n has 4300 digits at n = 14284, the most str() prints by
    # default, and 4301 at n = 14285.  A weight-0 scan is one element, so
    # the refusal comes from the printing limit, not from the scan.
    for n in (14284, 14285, 20000):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "stabilizers": []}))
        start = time.perf_counter()
        code, out, err = run_cli(["enumerators", str(path), "--mode", "definitional",
                                  "--max-weight", "0", "--format", fmt])
        assert time.perf_counter() - start < 1.0
        if n == 14284:
            assert code == 0
            continue
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "integer printing limit" in err
        assert "Traceback" not in err
    # The simplified counts at weight 1 take one span element; K is refused
    # before the column would screen the 60,000 weight-1 elements.
    start = time.perf_counter()
    code, out, err = run_cli(["enumerators", str(tmp_path / "n20000.json"),
                              "--max-weight", "1", "--format", fmt])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "integer printing limit" in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--message", "0", "--error", "XIIII"], "message index 0 outside 1..2"),
    (["simulate", "--message", "3", "--error", "XIIII"], "message index 3 outside 1..2"),
    (["simulate", "--message", "1", "--error", "XIIII", "--trials", "0"],
     "trials must be at least 1"),
    (["detect", "--weight", "-1"], "weight must lie in [0, 5], got -1"),
    (["detect", "--weight", "6"], "weight must lie in [0, 5], got 6"),
    (["correctable", "--errors", ","], "error set must be nonempty"),
    (["detect", "--error", " "], "empty error string"),
    (["detect", "--error", "x:1,0"], "malformed element 'x:1,0'; expected x:...;z:..."),
    (["detect", "--error", "x:1;z:0"], "element 'x:1;z:0' does not have 5 digits"),
])
def test_range_refusals_come_from_the_library(tmp_path, argv, message):
    # A ((5, 2:2))_2 stabilizer code: the library refuses each range with exit 2.
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({"n": 5, "stabilizers": list(FIVE_QUBIT_GENERATORS[:3]),
                                "classical_ops": [FIVE_QUBIT_GENERATORS[3]]}))
    code, out, err = run_cli([argv[0], str(path), *argv[1:]])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("entry, message", [
    ("1" + "0" * 400, "state entry 0 is too large for a float"),
    ("NaN", "state entry 0 must be finite"),
    ("-Infinity", "state entry 0 must be finite"),
    ("1e200", "state vector must be unit length, norm is inf"),
], ids=["400-digit integer", "NaN", "-Infinity", "1e200"])
def test_simulate_refuses_huge_and_non_finite_state_entries(code_files, entry, message):
    code, out, err = run_cli(
        ["simulate", code_files["t1"], "--message", "1", "--error", "I",
         "--state", f"[[{entry}, 0]]", "--format", "json"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("state, message", [
    ("basis:x", "malformed state 'basis:x'"),
    ("[[1, 0]", "state '[[1, 0]' is neither basis:i nor a JSON vector"),
    ("[[1, 0], [0, 0], [0, 0]]", "state vector must have 2 entries"),
], ids=["basis index", "not JSON", "three entries"])
def test_simulate_refuses_malformed_states(code_files, state, message):
    code, out, err = run_cli(
        ["simulate", code_files["f5"], "--message", "1", "--error", "IIIII", "--state", state])
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


# One text answer line per subcommand, built from the JSON answer to the
# same request.
TEXT_ANSWERS = [
    (["validate", "t3"], lambda r: f"valid: {'yes' if r['valid'] else 'no'}"),
    (["enumerators", "t3"], lambda r: f"detection distance: {r['detection_distance']}"),
    (["distance", "f5"], lambda r: f"detection distance: {r['detection_distance']}"),
    (["detect", "h5", "--error", FIVE_QUBIT_GENERATORS[0]],
     lambda r: "block scalars: 1+0j, 1+0j" if r["lambdas"] == [[1.0, 0.0]] * 2 else None),
    (["correctable", "t3", "--errors", "II,XI,IX"],
     lambda r: "witness pair: ({}, {})".format(*r["witness"])),
    (["dimension", "t3"], lambda r: f"detectable dimension (hybrid): {r['hybrid_dimension']}"),
    (["simulate", "t3", "--message", "1", "--error", "XX"],
     lambda r: f"wrong-message outcomes: {r['wrong_message_count']}"),
    (["identities", "t3"], lambda r: "equality matches detectability: "
                                     + ("yes" if r["equivalence_consistent"] else "no")),
]


@pytest.mark.parametrize("argv, answer", TEXT_ANSWERS, ids=[a[0] for a, _ in TEXT_ANSWERS])
def test_text_output_of_every_subcommand_agrees_with_json(code_files, tmp_path, argv, answer):
    assert [a[0] for a, _ in TEXT_ANSWERS] == list(cli._HANDLERS)
    # Five-qubit generators split into three stabilizers and one classical
    # operator: M = 2, and a generator's block scalars are 1 on both blocks.
    h5 = tmp_path / "h5.json"
    h5.write_text(json.dumps({"n": 5, "stabilizers": list(FIVE_QUBIT_GENERATORS[:3]),
                              "classical_ops": [FIVE_QUBIT_GENERATORS[3]]}))
    argv = [argv[0], str(h5) if argv[1] == "h5" else code_files[argv[1]], *argv[2:]]
    code, payload, _ = run_json(argv)
    text_code, out, _ = run_cli(argv)
    assert text_code == code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("elapsed: ")
    assert answer(payload["results"]) in lines


# Text lines that only some answers print, each run of them built from the
# JSON answer to the same request: a weight scan's counterexamples, a
# witness, a violation, the numeric dimension and a post-state fidelity.
OPTIONAL_TEXT_LINES = [
    (["detect", "t3", "--weight", "2"], lambda r: [
        f"weight: 2 ({r['count']} elements)", "all detectable: no",
        *("counterexample: {} (witness ({}, {}))".format(c["error"], *c["witness"])
          for c in r["counterexamples"])]),
    (["detect", "t1", "--error", "X"],
     lambda r: ["witness block pair (b, a): ({}, {})".format(*r["witness"])]),
    (["validate", "tilted"], lambda r: [f"violation: {i['message']}" for i in r["issues"]]),
    (["dimension", "t3", "--numeric"], lambda r: [
        f"numeric dimension: {r['numeric_dimension']}",
        f"matches formula: {'yes' if r['matches_formula'] else 'no'}"]),
    (["simulate", "t3", "--message", "2", "--error", "ZI", "--seed", "1"],
     lambda r: [f"post-state fidelity: {r['post_state_fidelity']:.12g}"]),
]


@pytest.mark.parametrize("argv, answer", OPTIONAL_TEXT_LINES,
                         ids=["weight scan", "witness", "violation", "numeric", "fidelity"])
def test_optional_text_lines_agree_with_json(code_files, tmp_path, argv, answer):
    # Block 2 of "tilted" overlaps block 1 by 1/sqrt(2): one violation line.
    tilted = tmp_path / "tilted.json"
    e0, e1 = basis_state(2, 0), basis_state(2, 1)
    tilted.write_text(serialize_code(HybridCode(2, 1, [[e0], [(e0 + e1) / np.sqrt(2)]])))
    argv = [argv[0], str(tilted) if argv[1] == "tilted" else code_files[argv[1]], *argv[2:]]
    code, payload, _ = run_json(argv)
    text_code, out, _ = run_cli(argv)
    lines = answer(payload["results"])
    assert text_code == code and lines and all(lines)
    assert "\n" + "\n".join(lines) + "\n" in "\n" + out


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
