"""Command line interface.

Subcommands: validate, enumerators, distance, detect, correctable,
dimension, simulate, identities.  Every command reads a code document
(explicit blocks or stabilizer form), takes --format json|text and
--tol, and exits 0 on success, 1 when an analysis found a violation,
2 on bad input, 3 when a cost guard refused the computation.  --jobs is
still accepted (it must be at least 1) but has no effect: every scan
runs in one thread.

JSON output is the machine form: floats are printed with 17 significant
digits, keys appear in a fixed order, nothing run-dependent (timing) is
included, and non-finite floats are refused, so identical inputs give
identical bytes of valid JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import detection, enumerators, error_basis, linalg
from .code_model import (
    HybridCode,
    InvariantError,
    StabilizerSpec,
    from_stabilizer,
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


def _fmt_float(x: float) -> str:
    # 17 significant digits: enough to round-trip a double exactly.
    return format(x + 0.0, ".16e")


def _json_fragment(value, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        parts.append(_fmt_float(value))
    elif isinstance(value, dict):
        parts.append("{")
        for i, (key, val) in enumerate(value.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _json_fragment(val, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(value):
            if i:
                parts.append(",")
            _json_fragment(val, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict) -> str:
    parts: list[str] = []
    _json_fragment(report, parts)
    return "".join(parts)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _g(x: float) -> str:
    return format(x, ".12g")


def _params(code: HybridCode | StabilizerSpec) -> dict:
    return {"q": code.q, "n": code.n, "K": code.k, "M": code.m}


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


def _load_code(path: str) -> HybridCode:
    parsed = parse_code_file(_read_file(path))
    if isinstance(parsed, StabilizerSpec):
        return from_stabilizer(parsed)
    return parsed


def _parse_error_arg(text: str, code: HybridCode) -> error_basis.PauliElement:
    try:
        return error_basis.parse_element(text, code.q, code.n)
    except ValueError as exc:
        raise CliError(str(exc)) from None


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
    if not (isinstance(data, list) and len(data) == k):
        raise CliError(f"state vector must have {k} entries")
    phi = np.empty(k, dtype=complex)
    for i, entry in enumerate(data):
        # An exact type test: JSON true and false load as bool, an int subclass.
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(x) in (float, int) for x in entry)):
            raise CliError(f"state entry {i} must be a [re, im] pair")
        phi[i] = complex(entry[0], entry[1])
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
    text = _read_file(args.file)
    warnings: list[str] = []
    issues_payload: list[dict] = []
    try:
        parsed = parse_code_file(text, strict=False)
        code = from_stabilizer(parsed) if isinstance(parsed, StabilizerSpec) else parsed
    except InvariantError as exc:
        results = {
            "valid": False,
            "parameters": None,
            "max_gram_deviation": None,
            "max_cross_overlap": None,
            "issues": [{"kind": "structure", "where": [], "magnitude": None,
                        "message": str(exc)}],
        }
        return EXIT_VIOLATION, results, warnings
    report = validate(code, tol)
    for issue in report.issues:
        issues_payload.append({
            "kind": issue.kind,
            "where": list(issue.where),
            "magnitude": issue.magnitude,
            "message": issue.message,
        })
    results = {
        "valid": report.ok,
        "parameters": _params(code),
        "max_gram_deviation": report.max_gram_deviation,
        "max_cross_overlap": report.max_cross_overlap,
        "issues": issues_payload,
    }
    return (EXIT_OK if report.ok else EXIT_VIOLATION), results, warnings


def _render_validate(results, lines):
    if results["parameters"]:
        p = results["parameters"]
        lines.append(f"code: (({p['n']}, {p['K']}:{p['M']}))_{p['q']}")
    lines.append(f"valid: {'yes' if results['valid'] else 'no'}")
    if results["max_gram_deviation"] is not None:
        lines.append(f"max frame deviation: {_g(results['max_gram_deviation'])}")
        lines.append(f"max cross-block overlap: {_g(results['max_cross_overlap'])}")
    for issue in results["issues"]:
        lines.append(f"violation: {issue['message']}")


def cmd_enumerators(args, tol):
    code = _load_code(args.file)
    warnings: list[str] = []
    engine = (enumerators.projector_distributions if args.mode == "definitional"
              else enumerators.compute_distributions)
    dists = engine(code, max_weight=args.max_weight)
    column = detection.detectable_column(code, len(dists["A"].values) - 1, tol)
    a, b = dists["A"], dists["B"]
    aperp, c = dists["A_perp"], dists["C"]
    for name, dist in (("A", a), ("B", b)):
        if dist.exact_values is None:
            warnings.append(f"{name} did not snap to exact rationals")
    table = []
    for d in range(len(a.values)):
        table.append({
            "d": d,
            "A": a.values[d],
            "B": b.values[d],
            "A_perp": aperp.values[d],
            "C": c.values[d],
            "all_detectable": column[d],
        })
    exit_code = EXIT_OK
    sum_rules = None
    distance = None
    if a.complete:
        a_target, b_target = enumerators.sum_rule_targets(code)
        a_total, b_total = a.total(), b.total()
        rule_tol = max(tol, 1e-9)
        ok = (abs(a_total - a_target) <= rule_tol * (1 + a_target)
              and abs(b_total - b_target) <= rule_tol * (1 + b_target))
        sum_rules = {
            "a_total": a_total, "a_expected": a_target,
            "b_total": b_total, "b_expected": b_target,
            "ok": ok,
        }
        if not ok:
            exit_code = EXIT_VIOLATION
        distance = enumerators.detection_distance(a, b, tol)
    results = {
        "parameters": _params(code),
        "mode": args.mode,
        "max_weight": args.max_weight,
        "distributions": {
            "A": _dist_payload(a),
            "B": _dist_payload(b),
            "A_perp": _dist_payload(aperp),
            "C": _dist_payload(c),
        },
        "weights": table,
        "sum_rules": sum_rules,
        "detection_distance": distance,
    }
    return exit_code, results, warnings


def _render_enumerators(results, lines):
    p = results["parameters"]
    lines.append(f"code: (({p['n']}, {p['K']}:{p['M']}))_{p['q']}")
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
    code = _load_code(args.file)
    dists = enumerators.compute_distributions(code)
    a, b = dists["A"], dists["B"]
    table = [
        {"d": d, "A": a.values[d], "B": b.values[d],
         "equal": abs(a.values[d] - b.values[d]) <= tol}
        for d in range(code.n + 1)
    ]
    results = {
        "parameters": _params(code),
        "detection_distance": enumerators.detection_distance(a, b, tol),
        "table": table,
    }
    return EXIT_OK, results, []


def _render_distance(results, lines):
    p = results["parameters"]
    lines.append(f"code: (({p['n']}, {p['K']}:{p['M']}))_{p['q']}")
    rows = [
        [str(r["d"]), _g(r["A"]), _g(r["B"]), _check_mark(r["equal"])]
        for r in results["table"]
    ]
    lines.extend(_table(["d", "A", "B", "A=B"], rows))
    lines.append(f"detection distance: {results['detection_distance']}")


def cmd_detect(args, tol):
    code = _load_code(args.file)
    if args.error is not None:
        e = _parse_error_arg(args.error, code)
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
    d = args.weight
    if not 0 <= d <= code.n:
        raise CliError(f"weight must lie in [0, {code.n}]")
    all_ok, failures = detection.all_detectable_of_weight(code, d, tol)
    results = {
        "weight": d,
        "count": len(error_basis.enumerate_weight(code.q, code.n, d)),
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
    code = _load_code(args.file)
    names = [t for t in args.errors.split(",") if t.strip()]
    if not names:
        raise CliError("--errors must list at least one element")
    elems = [_parse_error_arg(t, code) for t in names]
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
    # The closed form needs only q, n, K and M, which a stabilizer
    # document gives without frames; only --numeric builds them.
    code = parse_code_file(_read_file(args.file))
    # q^(2n) has floor(2n log10 q) + 1 digits; refuse before forming any
    # power of q when it could not be printed.  With no limit set, the
    # default limit still bounds the work.
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if 2 * code.n * math.log10(code.q) >= digits:
        raise GuardExceededError(
            f"q^(2n) = {code.q}^{2 * code.n} has more than {digits} digits; "
            f"guard is the integer printing limit")
    if args.numeric and isinstance(code, StabilizerSpec):
        code = from_stabilizer(code)
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
        "parameters": _params(code),
        "hybrid_dimension": dims.hybrid,
        "quantum_dimension": dims.quantum,
        "difference": dims.hybrid - dims.quantum,
        "numeric_dimension": numeric,
        "matches_formula": matches,
    }
    return exit_code, results, []


def _render_dimension(results, lines):
    p = results["parameters"]
    lines.append(f"code: (({p['n']}, {p['K']}:{p['M']}))_{p['q']}")
    lines.append(f"detectable dimension (hybrid): {results['hybrid_dimension']}")
    lines.append(f"detectable dimension (quantum comparison): {results['quantum_dimension']}")
    lines.append(f"difference: {results['difference']}")
    if results["numeric_dimension"] is not None:
        lines.append(f"numeric dimension: {results['numeric_dimension']}")
        lines.append(f"matches formula: {'yes' if results['matches_formula'] else 'no'}")


def cmd_simulate(args, tol):
    code = _load_code(args.file)
    if not 1 <= args.message <= code.m:
        raise CliError(f"message must lie in 1..{code.m}")
    phi = _parse_state_arg(args.state, code.k)
    err = _parse_error_arg(args.error, code)
    if args.trials < 1:
        raise CliError("trials must be at least 1")
    tally = detection.simulate_transmission(
        code, args.message, phi, err, args.trials, args.seed
    )
    wrong = sum(
        c for label, c in tally.counts.items()
        if label not in (args.message, detection.EPSILON_LABEL)
    )
    results = {
        "parameters": _params(code),
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
    code = _load_code(args.file)
    report = enumerators.verify_identities(code, tol)
    mac_ok = report.macwilliams_residual <= 1e-6
    add_ok = report.additivity_residual <= tol
    ok = mac_ok and add_ok and report.c_nonneg_ok and report.equivalence_ok
    results = {
        "parameters": _params(code),
        "macwilliams_residual": report.macwilliams_residual,
        "additivity_residual": report.additivity_residual,
        "c_nonnegative": report.c_nonneg_ok,
        "equivalence_consistent": report.equivalence_ok,
        "detection_distance": report.detection_distance,
        "all_ok": ok,
        "table": [
            {
                "d": r.d, "A": r.a, "B": r.b, "A_perp": r.a_perp,
                "A_perp_transform": r.a_perp_transform, "C": r.c,
                "equal": r.equal, "all_detectable": r.all_detectable,
            }
            for r in report.rows
        ],
        "distributions": {
            "A": _dist_payload(report.a),
            "B": _dist_payload(report.b),
            "A_perp": _dist_payload(report.a_perp),
            "A_perp_transform": _dist_payload(report.a_perp_transform),
            "C": _dist_payload(report.c),
        },
    }
    return (EXIT_OK if ok else EXIT_VIOLATION), results, []


def _render_identities(results, lines):
    p = results["parameters"]
    lines.append(f"code: (({p['n']}, {p['K']}:{p['M']}))_{p['q']}")
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the frames of a code document")
    p.add_argument("file")

    p = sub.add_parser("enumerators", parents=[common],
                       help="weight distributions A, B, A', C")
    p.add_argument("file")
    p.add_argument("--mode", choices=("simplified", "definitional"),
                   default="simplified")
    p.add_argument("--max-weight", type=int, default=None,
                   help="compute weights 0..D only")

    p = sub.add_parser("distance", parents=[common], help="detection distance")
    p.add_argument("file")

    p = sub.add_parser("detect", parents=[common],
                       help="detectability of one error or a whole weight class")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--error", help="element, e.g. XIZ or x:1,0;z:0,2")
    g.add_argument("--weight", type=int, help="scan all elements of this weight")

    p = sub.add_parser("correctable", parents=[common],
                       help="correctability of an error set")
    p.add_argument("file")
    p.add_argument("--errors", required=True,
                   help="comma-separated elements, e.g. II,XI,IX")

    p = sub.add_parser("dimension", parents=[common],
                       help="dimension of the detectable operator space")
    p.add_argument("file")
    p.add_argument("--numeric", action="store_true",
                   help="cross-check the formula against a rank computation")

    p = sub.add_parser("simulate", parents=[common],
                       help="sample the measurement after a transmission error")
    p.add_argument("file")
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--state", default="basis:1",
                   help='block state: "basis:i" or a JSON list of K [re, im] pairs')
    p.add_argument("--error", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("identities", parents=[common],
                       help="verify the distribution identities on one code")
    p.add_argument("file")

    return parser


# Namespace entries that every subcommand has and that inputs does not echo.
_COMMON_DESTS = ("command", "format", "jobs")

# Parsing keeps no state in the parser, so one per process serves every
# request; the first request builds it.
_parser = functools.cache(build_parser)


def run(argv=None, stdout=None, stderr=None) -> int:
    out = sys.stdout if stdout is None else stdout
    err_out = sys.stderr if stderr is None else stderr
    parser = _parser()
    try:
        args = parser.parse_args(argv)
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
        # CodeFileError, every refusal of a code document, is a ValueError.
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


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
