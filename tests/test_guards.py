"""Every cost guard in one table: its limit, a request at the limit that
is answered, and one just past it that exits 3 with its refusal line (a
guard only the library meets raises it, with the same text).

Re-pricing a guard changes its row here.  All guards refuse through
linalg.require_within, and every weight-class count goes through
detection.require_scan; the last tests pin that.
"""

import io
import json
import pathlib
import sys
from typing import Callable, NamedTuple

import pytest

from conftest import FIVE_QUBIT_GENERATORS

import hybridec
from hybridec import cli, code_model, detection, linalg


def z_at(n, i):
    return "I" * i + "Z" + "I" * (n - i - 1)


def stabilizers(n, rows=(), classical=()):
    doc = {"n": n, "stabilizers": list(rows)}
    if classical:
        doc["classical_ops"] = list(classical)
    return doc


def printing_limit():
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


class Guard(NamedTuple):
    limit: Callable[[], int]  # the program's limit, read at test time
    pinned: int
    answered: tuple | None  # (arguments, document) at the limit
    refused: tuple | Callable  # (arguments, document) just past it, or a library call
    refusal: str  # the stderr line of the refusal


GUARDS = {
    # q^n = 16 is answered (frame-queries asks this of f4_2_2), 32 refused;
    # a stabilizer document's q^n = 2^n is priced by n, before any frame.
    "NUMERIC_DIMENSION_GUARD, q^n": Guard(
        lambda: detection.NUMERIC_DIMENSION_GUARD, 16,
        (["dimension", "--numeric"], stabilizers(4, ["ZZII", "IIZZ"])),
        (["dimension", "--numeric"], stabilizers(5, FIVE_QUBIT_GENERATORS)),
        "error: q^n = 2^5 exceeds the numeric dimension guard (16)"),
    # The M block scalars of a detectable error: 2^11 blocks, then 2^12.
    "STABILIZER_DIMENSION_GUARD, M": Guard(
        lambda: code_model.STABILIZER_DIMENSION_GUARD, 2048,
        (["detect", "--error", z_at(11, 0)],
         stabilizers(11, classical=[z_at(11, i) for i in range(11)])),
        (["detect", "--error", z_at(12, 0)],
         stabilizers(12, classical=[z_at(12, i) for i in range(12)])),
        "error: M = 4096 block scalars exceed the guard of 2048"),
    # The M outcome counts of simulate: 2^11 blocks, then 2^12.
    "STABILIZER_DIMENSION_GUARD, outcomes": Guard(
        lambda: code_model.STABILIZER_DIMENSION_GUARD, 2048,
        (["simulate", "--message", "2048", "--error", z_at(11, 0)],
         stabilizers(11, classical=[z_at(11, i) for i in range(11)])),
        (["simulate", "--message", "1", "--error", z_at(12, 0)],
         stabilizers(12, classical=[z_at(12, i) for i in range(12)])),
        "error: M = 2^12 outcome counts exceed the guard of 2048"),
    # The K entries of simulate's block state: 2^11, then 2^12.
    "STABILIZER_DIMENSION_GUARD, state entries": Guard(
        lambda: code_model.STABILIZER_DIMENSION_GUARD, 2048,
        (["simulate", "--message", "1", "--error", "X" * 11, "--state", "basis:2048"],
         stabilizers(11)),
        (["simulate", "--message", "1", "--error", "X" * 12], stabilizers(12)),
        "error: a block state of K = 2^12 entries exceeds the guard of 2048"),
    # Frames in dimension 2^n, which only detectable_dimension_numeric builds,
    # within its own guard of 4 qubits: only a library call meets this one.
    "STABILIZER_DIMENSION_GUARD, from_stabilizer qubits": Guard(
        lambda: code_model.STABILIZER_DIMENSION_GUARD.bit_length() - 1, 11,
        None,
        lambda: code_model.from_stabilizer(code_model.StabilizerSpec(12, ())),
        "error: stabilizer code on 12 qubits needs frames in dimension 2^12; guard is 2048"),
    # The span of t check rows holds 2^t elements: 16 rows, then 17.
    "SCAN_GUARD, span rows": Guard(
        lambda: detection.SCAN_GUARD.bit_length() - 1, 16,
        (["enumerators", "--max-weight", "1"], stabilizers(17, [z_at(17, i) for i in range(16)])),
        (["enumerators", "--max-weight", "1"], stabilizers(17, [z_at(17, i) for i in range(17)])),
        "error: span of 17 check rows has 2^17 elements, more than 65536; guard is 65536"),
    # A full scan reads sum_d C(n, d) 3^d = 4^n elements: n = 8, then 9.
    "SCAN_GUARD, all weights": Guard(
        lambda: detection.SCAN_GUARD, 4**8,
        (["distance"], stabilizers(8)),
        (["distance"], stabilizers(9)),
        "error: scan would enumerate more than 65536 elements, guard is 65536; "
        "restrict max_weight"),
    # One class at n = 40: weight 2 holds 7020 elements, weight 3 266,760.
    "SCAN_GUARD, one weight class": Guard(
        lambda: detection.SCAN_GUARD, 4**8,
        (["detect", "--weight", "2"], stabilizers(40)),
        (["detect", "--weight", "3"], stabilizers(40)),
        "error: weight class has more than 65536 elements, guard is 65536"),
    # K = 2^n has 4300 digits at n = 14284 and 4301 at n = 14285.
    "integer printing limit, K": Guard(
        printing_limit, 4300,
        (["enumerators", "--mode", "definitional", "--max-weight", "0"], stabilizers(14284)),
        (["enumerators", "--mode", "definitional", "--max-weight", "0"], stabilizers(14285)),
        "error: K = 2^14285 has more than 4300 digits; guard is the integer printing limit"),
    # q^(2n) = 2^14284 has 4300 digits, 2^14286 has 4301.
    "integer printing limit, q^(2n)": Guard(
        printing_limit, 4300,
        (["dimension"], stabilizers(7142)),
        (["dimension"], stabilizers(7143)),
        "error: q^(2n) = 2^14286 has more than 4300 digits; guard is the integer printing limit"),
}


def run_request(tmp_path, request):
    if callable(request):
        # A guard the CLI never reaches: the refusal run would print for it.
        with pytest.raises(linalg.GuardExceededError) as refusal:
            request()
        return cli.EXIT_GUARD, "", f"error: {refusal.value}\n"
    args, doc = request
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([args[0], str(path), *args[1:]], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_limit_and_boundary(name, tmp_path):
    guard = GUARDS[name]
    assert guard.limit() == guard.pinned
    if guard.answered is not None:
        code, out, err = run_request(tmp_path, guard.answered)
        assert (code, err) == (0, "") and out
    assert run_request(tmp_path, guard.refused) == (cli.EXIT_GUARD, "", guard.refusal + "\n")


def test_require_within_refuses_only_past_the_limit():
    linalg.require_within(5, 5, "unused")
    with pytest.raises(linalg.GuardExceededError, match="^six is past five$"):
        linalg.require_within(6, 5, "six is past five")


def source_lines_with(text):
    src = pathlib.Path(hybridec.__file__).parent
    return [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if text in line]


def test_one_refusal_site_and_one_class_count_walk():
    assert source_lines_with("GuardExceededError(") == [
        ("linalg.py", "class GuardExceededError(RuntimeError):"),
        ("linalg.py", "raise GuardExceededError(refusal)"),
    ]
    assert source_lines_with("count_up_to(") == [
        ("detection.py", "total += elements.count_up_to(SCAN_GUARD)"),
        ("error_basis.py", "def count_up_to(self, cap: int) -> int:"),
    ]
