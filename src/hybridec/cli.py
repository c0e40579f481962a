"""Command line interface.

Subcommands: validate, enumerators, distance, detect, correctable,
dimension, simulate, identities.  Every command reads a code document
(explicit blocks or stabilizer form), takes --format json|text and
--tol, and exits 0 on success, 1 when an analysis found a violation,
2 on bad input, 3 when a cost guard refused the computation.  --jobs is
still accepted (it must be at least 1) but has no effect: every scan
runs in one thread.

Each handler parses its arguments, checks that the parameters it
reports can be printed, calls the library and serializes the answer.
The CLI decides only argument syntax and what can be printed (an integer
within sys.get_int_max_str_digits, else exit 3); the library refuses
every out-of-range value, which run reports with exit 2.

The CLI builds no frames: on a stabilizer document only
detection.detectable_dimension_numeric does, past its guard.

JSON output is the machine form, written by json.dumps: floats print as
their repr (the shortest text that reads back to the same double), keys
appear in a fixed order, nothing run-dependent (timing) is included, and
non-finite floats are refused, so identical inputs give identical bytes
of valid JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import detection, enumerators, error_basis, linalg
from .code_model import (
    STABILIZER_DIMENSION_GUARD,
    HybridCode,
    InvariantError,
    StabilizerSpec,
    pair_rows,
    parse_code_file,
    validate,
)
from .linalg import GuardExceededError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_GUARD = 3

TOL_ENV_VAR = "HYBRIDEC_TOL"


class CliError(Exception):
    """Unusable input detected at the command line layer."""


def dumps_report(report: dict) -> str:
    return json.dumps(report, separators=(",", ":"), allow_nan=False)


def _pair(z: complex) -> list[float]:
    # + 0.0 turns a negative zero (as in -1j) into 0.0.
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _g(x: float) -> str:
    return format(x, ".12g")


def _require_printable(what: str, base: int, exponent: int) -> None:
    """Refuse base^exponent, before forming it, when str() could not print it."""
    # With no limit set, the default limit still bounds the work.
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    linalg.require_within(int(exponent * math.log10(base)) + 1, digits,
                          f"{what} = {base}^{exponent} has more than {digits} digits; "
                          f"guard is the integer printing limit")


def _params(code: HybridCode | StabilizerSpec) -> dict:
    # An explicit-frame K counts frames, so only a spec's K can be unprintable.
    if isinstance(code, StabilizerSpec):
        _require_printable("K", 2, code.n - code.num_generators - code.num_classical)
    return {"q": code.q, "n": code.n, "K": code.k, "M": code.m}


def _code_line(p: dict) -> str:
    return f"code: (({p['n']}, {p['K']}:{p['M']}))_{p['q']}"


def _resolve_tol(args) -> float:
    """--tol, else HYBRIDEC_TOL, else the default; finite and >= 0."""
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get(TOL_ENV_VAR)
        if env is None:
            return linalg.ENTRY_TOL
        try:
            tol, source = float(env), TOL_ENV_VAR
        except ValueError:
            raise CliError(f"{TOL_ENV_VAR} is not a number: {env!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise CliError(f"{source} must be a finite number >= 0, got {tol!r}")
    return tol


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _parse_state_arg(spec: str, k: int) -> np.ndarray:
    s = spec.strip()
    if s.lower().startswith("basis:"):
        try:
            idx = int(s[6:])
        except ValueError:
            raise CliError(f"malformed state {spec!r}") from None
        if not 1 <= idx <= k:
            raise CliError(f"basis index {idx} outside 1..{k}")
        phi = np.zeros(k, dtype=complex)
        phi[idx - 1] = 1.0
        return phi
    try:
        data = json.loads(s)
    except json.JSONDecodeError:
        raise CliError(f"state {spec!r} is neither basis:i nor a JSON vector") from None
    except RecursionError:
        raise CliError("state JSON nests too deeply to parse") from None
    if not (isinstance(data, list) and len(data) == k):
        raise CliError(f"state vector must have {k} entries")
    phi = pair_rows(data, k, "state vector").view(complex).ravel()
    # Finite entries near the float limit overflow the norm to inf, which
    # the unit-length test then refuses.
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(phi))
    if abs(nrm - 1.0) > 1e-6:
        raise CliError(f"state vector must be unit length, norm is {nrm!r}")
    return phi / nrm


def _dist_payload(dist: enumerators.WeightDistribution) -> dict:
    return {
        "values": [float(v) for v in dist.values],
        "exact": [str(f) for f in dist.exact_values] if dist.exact_values else None,
    }


def _check_mark(flag: bool) -> str:
    return "✓" if flag else "✗"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return lines


# --- command handlers ----------------------------------------------------

def cmd_validate(args, tol):
    try:
        code = parse_code_file(_read_file(args.file), strict=False)
    except InvariantError as exc:
        results = {
            "valid": False,
            "parameters": None,
            "max_gram_deviation": None,
            "max_cross_overlap": None,
            "issues": [{"kind": "structure", "where": [], "magnitude": None,
                        "message": str(exc)}],
        }
        return EXIT_VIOLATION, results, []
    params = _params(code)
    report = validate(code, tol)
    results = {
        "valid": report.ok,
        "parameters": params,
        "max_gram_deviation": report.max_gram_deviation,
        "max_cross_overlap": report.max_cross_overlap,
        "issues": [dataclasses.asdict(issue) for issue in report.issues],
    }
    return (EXIT_OK if report.ok else EXIT_VIOLATION), results, []


def _render_validate(results, lines):
    if results["parameters"]:
        lines.append(_code_line(results["parameters"]))
    lines.append(f"valid: {'yes' if results['valid'] else 'no'}")
    if results["max_gram_deviation"] is not None:
        lines.append(f"max frame deviation: {_g(results['max_gram_deviation'])}")
        lines.append(f"max cross-block overlap: {_g(results['max_cross_overlap'])}")
    for issue in results["issues"]:
        lines.append(f"violation: {issue['message']}")


def cmd_enumerators(args, tol):
    code = parse_code_file(_read_file(args.file))
    params = _params(code)
    warnings: list[str] = []
    dists = enumerators.distributions(code, args.mode, args.max_weight)
    column = detection.detectable_column(code, len(dists["A"].values) - 1, tol)
    a, b = dists["A"], dists["B"]
    aperp, c = dists["A_perp"], dists["C"]
    for name, dist in (("A", a), ("B", b)):
        if dist.exact_values is None:
            warnings.append(f"{name} did not snap to exact rationals")
    table = [{"d": d, "A": a.values[d], "B": b.values[d], "A_perp": aperp.values[d],
              "C": c.values[d], "all_detectable": column[d]} for d in range(len(a.values))]
    rules = distance = None
    if a.complete:
        rules = enumerators.sum_rules(code, a, b, tol)
        distance = enumerators.detection_distance(a, b, tol)
    results = {
        "parameters": params,
        "mode": args.mode,
        "max_weight": args.max_weight,
        "distributions": {
            "A": _dist_payload(a),
            "B": _dist_payload(b),
            "A_perp": _dist_payload(aperp),
            "C": _dist_payload(c),
        },
        "weights": table,
        "sum_rules": dataclasses.asdict(rules) if rules else None,
        "detection_distance": distance,
    }
    return (EXIT_VIOLATION if rules and not rules.ok else EXIT_OK), results, warnings


def _render_enumerators(results, lines):
    lines.append(_code_line(results["parameters"]))
    lines.append(f"mode: {results['mode']}")
    rows = [
        [str(w["d"]), _g(w["A"]), _g(w["B"]), _g(w["A_perp"]), _g(w["C"]),
         _check_mark(w["all_detectable"])]
        for w in results["weights"]
    ]
    lines.extend(_table(["d", "A", "B", "A'", "C", "detectable"], rows))
    for name in ("A", "B", "A_perp", "C"):
        exact = results["distributions"][name]["exact"]
        if exact:
            lines.append(f"{name} exact: {', '.join(exact)}")
    if results["sum_rules"]:
        s = results["sum_rules"]
        lines.append(
            f"sum rules: sum A = {_g(s['a_total'])} (expected {_g(s['a_expected'])}), "
            f"sum B = {_g(s['b_total'])} (expected {_g(s['b_expected'])}) "
            f"{_check_mark(s['ok'])}"
        )
    if results["detection_distance"] is not None:
        lines.append(f"detection distance: {results['detection_distance']}")


def cmd_distance(args, tol):
    code = parse_code_file(_read_file(args.file))
    params = _params(code)
    dists = enumerators.compute_distributions(code)
    a, b = dists["A"], dists["B"]
    equal = enumerators.equal_weights(a, b, tol)
    table = [{"d": d, "A": a.values[d], "B": b.values[d], "equal": equal[d]}
             for d in range(code.n + 1)]
    results = {
        "parameters": params,
        "detection_distance": enumerators.detection_distance(a, b, tol),
        "table": table,
    }
    return EXIT_OK, results, []


def _render_distance(results, lines):
    lines.append(_code_line(results["parameters"]))
    rows = [
        [str(r["d"]), _g(r["A"]), _g(r["B"]), _check_mark(r["equal"])]
        for r in results["table"]
    ]
    lines.extend(_table(["d", "A", "B", "A=B"], rows))
    lines.append(f"detection distance: {results['detection_distance']}")


def cmd_detect(args, tol):
    code = parse_code_file(_read_file(args.file))
    if args.error is not None:
        e = error_basis.parse_element(args.error, code.q, code.n)
        rep = detection.detectability(code, e, tol)
        results = {
            "error": error_basis.format_element(e),
            "detectable": rep.detectable,
            "lambdas": [_pair(l) for l in rep.lambdas] if rep.lambdas else None,
            "max_diag_violation": rep.max_diag_violation,
            "max_offdiag_violation": rep.max_offdiag_violation,
            "witness": list(rep.witness) if rep.witness else None,
        }
        return EXIT_OK, results, []
    all_ok, failures = detection.all_detectable_of_weight(code, args.weight, tol)
    results = {
        "weight": args.weight,
        "count": len(error_basis.enumerate_weight(code.q, code.n, args.weight)),
        "all_detectable": all_ok,
        "counterexamples": [
            {"error": error_basis.format_element(f.error), "witness": list(f.witness)}
            for f in failures
        ],
    }
    return EXIT_OK, results, []


def _render_detect(results, lines):
    if "error" in results:
        lines.append(f"error: {results['error']}")
        lines.append(f"detectable: {'yes' if results['detectable'] else 'no'}")
        if results["lambdas"] is not None:
            rendered = ", ".join(
                f"{_g(re)}{'+' if im >= 0 else ''}{_g(im)}j" for re, im in results["lambdas"]
            )
            lines.append(f"block scalars: {rendered}")
        if results["witness"]:
            b, a = results["witness"]
            lines.append(f"witness block pair (b, a): ({b}, {a})")
        lines.append(f"max diagonal violation: {_g(results['max_diag_violation'])}")
        lines.append(f"max off-diagonal violation: {_g(results['max_offdiag_violation'])}")
    else:
        lines.append(f"weight: {results['weight']} ({results['count']} elements)")
        lines.append(f"all detectable: {'yes' if results['all_detectable'] else 'no'}")
        for ce in results["counterexamples"]:
            b, a = ce["witness"]
            lines.append(f"counterexample: {ce['error']} (witness ({b}, {a}))")


def cmd_correctable(args, tol):
    code = parse_code_file(_read_file(args.file))
    elems = [error_basis.parse_element(t, code.q, code.n)
             for t in args.errors.split(",") if t.strip()]
    warnings = []
    if not any(e.is_identity for e in elems):
        warnings.append(
            "error set does not contain the identity; the correctability "
            "criterion is stated for sets that do"
        )
    ok, witness = detection.is_correctable_set(code, elems, tol)
    results = {
        "errors": [error_basis.format_element(e) for e in elems],
        "correctable": ok,
        "witness": (
            [error_basis.format_element(witness[0]), error_basis.format_element(witness[1])]
            if witness else None
        ),
    }
    return EXIT_OK, results, warnings


def _render_correctable(results, lines):
    lines.append(f"errors: {', '.join(results['errors'])}")
    lines.append(f"correctable: {'yes' if results['correctable'] else 'no'}")
    if results["witness"]:
        f, e = results["witness"]
        lines.append(f"witness pair: ({f}, {e})")


def cmd_dimension(args, tol):
    code = parse_code_file(_read_file(args.file))
    _require_printable("q^(2n)", code.q, 2 * code.n)
    params = _params(code)
    dims = detection.detectable_dimension_formula(code.n, code.k, code.m, code.q)
    numeric = None
    matches = None
    exit_code = EXIT_OK
    if args.numeric:
        numeric = detection.detectable_dimension_numeric(code)
        matches = numeric == dims.hybrid
        if not matches:
            exit_code = EXIT_VIOLATION
    results = {
        "parameters": params,
        "hybrid_dimension": dims.hybrid,
        "quantum_dimension": dims.quantum,
        "difference": dims.hybrid - dims.quantum,
        "numeric_dimension": numeric,
        "matches_formula": matches,
    }
    return exit_code, results, []


def _render_dimension(results, lines):
    lines.append(_code_line(results["parameters"]))
    lines.append(f"detectable dimension (hybrid): {results['hybrid_dimension']}")
    lines.append(f"detectable dimension (quantum comparison): {results['quantum_dimension']}")
    lines.append(f"difference: {results['difference']}")
    if results["numeric_dimension"] is not None:
        lines.append(f"numeric dimension: {results['numeric_dimension']}")
        lines.append(f"matches formula: {'yes' if results['matches_formula'] else 'no'}")


def cmd_simulate(args, tol):
    code = parse_code_file(_read_file(args.file))
    params = _params(code)
    if isinstance(code, StabilizerSpec):
        e = code.n - code.num_generators - code.num_classical
        linalg.require_within(e, STABILIZER_DIMENSION_GUARD.bit_length() - 1,
                              f"a block state of K = 2^{e} entries exceeds the guard of "
                              f"{STABILIZER_DIMENSION_GUARD}")
    phi = _parse_state_arg(args.state, code.k)
    err = error_basis.parse_element(args.error, code.q, code.n)
    tally = detection.simulate_transmission(
        code, args.message, phi, err, args.trials, args.seed
    )
    wrong = sum(
        c for label, c in tally.counts.items()
        if label not in (args.message, detection.EPSILON_LABEL)
    )
    results = {
        "parameters": params,
        "message": args.message,
        "state": args.state,
        "error": error_basis.format_element(err),
        "trials": args.trials,
        "seed": args.seed,
        "counts": {str(k): v for k, v in tally.counts.items()},
        "probabilities": {str(k): v for k, v in tally.probabilities.items()},
        "wrong_message_count": wrong,
        "post_state_fidelity": tally.post_state_fidelity,
    }
    return EXIT_OK, results, []


def _render_simulate(results, lines):
    lines.append(
        f"message {results['message']}, error {results['error']}, "
        f"{results['trials']} trials, seed {results['seed']}"
    )
    rows = [
        [label, str(results["counts"][label]), _g(results["probabilities"][label])]
        for label in results["counts"]
    ]
    lines.extend(_table(["outcome", "count", "probability"], rows))
    lines.append(f"wrong-message outcomes: {results['wrong_message_count']}")
    if results["post_state_fidelity"] is not None:
        lines.append(f"post-state fidelity: {_g(results['post_state_fidelity'])}")


def cmd_identities(args, tol):
    code = parse_code_file(_read_file(args.file))
    params = _params(code)
    report = enumerators.verify_identities(code, tol)
    results = {
        "parameters": params,
        "macwilliams_residual": report.macwilliams_residual,
        "additivity_residual": report.additivity_residual,
        "c_nonnegative": report.c_nonneg_ok,
        "equivalence_consistent": report.equivalence_ok,
        "detection_distance": report.detection_distance,
        "all_ok": report.ok,
        "table": [
            {"d": d, "A": report.a.values[d], "B": report.b.values[d],
             "A_perp": report.a_perp.values[d],
             "A_perp_transform": report.a_perp_transform.values[d], "C": report.c.values[d],
             "equal": report.equal[d], "all_detectable": report.all_detectable[d]}
            for d in range(code.n + 1)
        ],
        "distributions": {
            "A": _dist_payload(report.a),
            "B": _dist_payload(report.b),
            "A_perp": _dist_payload(report.a_perp),
            "A_perp_transform": _dist_payload(report.a_perp_transform),
            "C": _dist_payload(report.c),
        },
    }
    return (EXIT_OK if report.ok else EXIT_VIOLATION), results, []


def _render_identities(results, lines):
    lines.append(_code_line(results["parameters"]))
    rows = [
        [str(r["d"]), _g(r["A"]), _g(r["B"]), _g(r["A_perp"]),
         _g(r["A_perp_transform"]), _g(r["C"]),
         _check_mark(r["equal"]), _check_mark(r["all_detectable"])]
        for r in results["table"]
    ]
    lines.extend(_table(
        ["d", "A", "B", "A'", "A' (transform)", "C", "A=B", "detectable"], rows
    ))
    lines.append(f"transform residual: {_g(results['macwilliams_residual'])}")
    lines.append(f"additivity residual: {_g(results['additivity_residual'])}")
    lines.append(f"C nonnegative: {'yes' if results['c_nonnegative'] else 'no'}")
    lines.append(
        f"equality matches detectability: "
        f"{'yes' if results['equivalence_consistent'] else 'no'}"
    )
    lines.append(f"detection distance: {results['detection_distance']}")
    lines.append(f"all identities hold: {'yes' if results['all_ok'] else 'no'}")


_HANDLERS = {
    "validate": (cmd_validate, _render_validate),
    "enumerators": (cmd_enumerators, _render_enumerators),
    "distance": (cmd_distance, _render_distance),
    "detect": (cmd_detect, _render_detect),
    "correctable": (cmd_correctable, _render_correctable),
    "dimension": (cmd_dimension, _render_dimension),
    "simulate": (cmd_simulate, _render_simulate),
    "identities": (cmd_identities, _render_identities),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridec",
        description="Analyze hybrid classical-quantum codes.",
        fromfile_prefix_chars="@",  # --errors @FILE, one argument a line
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default text)")
    common.add_argument("--tol", type=float, default=None,
                        help=f"absolute tolerance, finite and >= 0 (default "
                             f"{linalg.ENTRY_TOL}, or the {TOL_ENV_VAR} environment "
                             f"variable)")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common],
                   help="check the frames of a code document")

    p = sub.add_parser("enumerators", parents=[common],
                       help="weight distributions A, B, A', C")
    p.add_argument("--mode", choices=("simplified", "definitional"),
                   default="simplified")
    p.add_argument("--max-weight", type=int, default=None,
                   help="compute weights 0..D only")

    sub.add_parser("distance", parents=[common], help="detection distance")

    p = sub.add_parser("detect", parents=[common],
                       help="detectability of one error or a whole weight class")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--error", help="element, e.g. XIZ or x:1,0;z:0,2")
    g.add_argument("--weight", type=int, help="scan all elements of this weight")

    p = sub.add_parser("correctable", parents=[common],
                       help="correctability of an error set")
    p.add_argument("--errors", required=True,
                   help="comma-separated elements, e.g. II,XI,IX")

    p = sub.add_parser("dimension", parents=[common],
                       help="dimension of the detectable operator space")
    p.add_argument("--numeric", action="store_true",
                   help="cross-check the formula against a rank computation")

    p = sub.add_parser("simulate", parents=[common],
                       help="sample the measurement after a transmission error")
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--state", default="basis:1",
                   help='block state: "basis:i" or a JSON list of K [re, im] pairs')
    p.add_argument("--error", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("identities", parents=[common],
                   help="verify the distribution identities on one code")

    # Each command's own parser, by name, for _parse_args.
    parser.commands = sub.choices
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv): the same namespace, or the same output and exit.

    An argv that opens with a command name and has no @file argument (only
    the top parser reads those) goes straight to that command's parser,
    as the top parser would hand it on, at about half the cost; its
    leftover words are refused through the top parser's error, as
    parse_args refuses them.  Every other argv goes to the top parser.
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is None or any(arg.startswith("@") for arg in argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


# Namespace entries that every subcommand has and that inputs does not echo.
_COMMON_DESTS = ("command", "format", "jobs")

# Parsing keeps no state in the parser, so one per process serves every
# request; the first request builds it.
_parser = functools.cache(build_parser)


def run(argv=None, stdout=None, stderr=None) -> int:
    out = sys.stdout if stdout is None else stdout
    err_out = sys.stderr if stderr is None else stderr
    try:
        args = _parse_args(_parser(), sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=err_out)
        return EXIT_BAD_INPUT
    handler, renderer = _HANDLERS[args.command]
    start = time.perf_counter()
    try:
        tol = _resolve_tol(args)
        exit_code, results, warnings = handler(args, tol)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=err_out)
        return EXIT_GUARD
    except (CliError, ValueError) as exc:
        # Every library refusal of input is a ValueError, CodeFileError included.
        print(f"error: {exc}", file=err_out)
        return EXIT_BAD_INPUT
    elapsed = time.perf_counter() - start
    # The file, the resolved tolerance, then the subcommand's own arguments
    # in parser order, which is the order argparse fills the namespace.
    inputs = {"file": args.file, "tol": tol}
    inputs.update((key, value) for key, value in vars(args).items()
                  if key not in _COMMON_DESTS and key not in inputs)
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
    }
    if args.format == "json":
        out.write(dumps_report(report) + "\n")
    else:
        lines: list[str] = []
        renderer(results, lines)
        for w in warnings:
            lines.append(f"warning: {w}")
        lines.append(f"elapsed: {elapsed:.3f} s")
        out.write("\n".join(lines) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(run())
