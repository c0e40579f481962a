"""Checks one CLI response against the answer the generator expects.

check(request, exit_code, stdout) returns a list of problems; an empty
list means the response is correct.  Discrete fields must match exactly.
Floats must lie within FLOAT_RTOL of the distribution's total mass of
the reference value: that admits the ~1e-13 differences between
correct engines and rejects a coefficient off by 1e-6.  Sum rules and
the identity verdicts are checked as invariants of every answer.
"""

from __future__ import annotations

import json

import models

FLOAT_RTOL = 1e-10
PROB_ATOL = 1e-9
FRAME_TOL = 1e-9
DIST_KEYS = ("A", "B", "A_perp", "C")


def check(request: dict, exit_code: int, stdout: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if report.get("command") != request["command"]:
        return [f"command {report.get('command')!r}, expected {request['command']!r}"]
    problems: list[str] = []
    _CHECKS[request["command"]](request["expect"], report["results"], problems)
    return problems


def _eq(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _close(problems, what, got, want, tol):
    if not isinstance(got, (int, float)) or abs(got - want) > tol:
        problems.append(f"{what}: got {got!r}, expected {want!r} within {tol:.1e}")


def _dist_tol(ref: list[float]) -> float:
    return FLOAT_RTOL * max(1.0, sum(abs(v) for v in ref))


def _check_values(problems, what, got, ref):
    if not isinstance(got, list) or len(got) != len(ref):
        problems.append(f"{what}: got {got!r}, expected {len(ref)} values")
        return
    tol = _dist_tol(ref)
    for d, (g, r) in enumerate(zip(got, ref)):
        _close(problems, f"{what}[{d}]", g, r, tol)


def _check_sum_rules(problems, exp, a_vals, b_vals):
    a_target, b_target = exp["sum_targets"]
    _close(problems, "sum of A", sum(a_vals), a_target, FLOAT_RTOL * a_target)
    _close(problems, "sum of B", sum(b_vals), b_target, FLOAT_RTOL * b_target)


def _check_enumerators(exp, res, problems):
    _eq(problems, "parameters", res["parameters"], exp["parameters"])
    dists = exp["distributions"]
    for key in DIST_KEYS:
        _check_values(problems, key, res["distributions"][key]["values"], dists[key])
    rows = res["weights"]
    _eq(problems, "weights rows", [r["d"] for r in rows], list(range(len(dists["A"]))))
    for r in rows:
        for key in DIST_KEYS:
            _eq(problems, f"weights[{r['d']}].{key}", r[key],
                res["distributions"][key]["values"][r["d"]])
    _eq(problems, "all_detectable", [r["all_detectable"] for r in rows], exp["detectable"])
    _eq(problems, "detection_distance", res["detection_distance"], exp["distance"])
    if exp["distance"] is None:
        _eq(problems, "sum_rules", res["sum_rules"], None)
    else:
        _check_sum_rules(problems, exp, res["distributions"]["A"]["values"],
                         res["distributions"]["B"]["values"])
        _eq(problems, "sum_rules.ok", (res["sum_rules"] or {}).get("ok"), True)


def _check_distance(exp, res, problems):
    _eq(problems, "parameters", res["parameters"], exp["parameters"])
    table = res["table"]
    dists = exp["distributions"]
    _check_values(problems, "A", [r["A"] for r in table], dists["A"])
    _check_values(problems, "B", [r["B"] for r in table], dists["B"])
    # A_d = B_d exactly when every weight-d error is detectable.
    _eq(problems, "equal", [r["equal"] for r in table], exp["detectable"])
    _eq(problems, "detection_distance", res["detection_distance"], exp["distance"])
    _check_sum_rules(problems, exp, [r["A"] for r in table], [r["B"] for r in table])


def _check_identities(exp, res, problems):
    _eq(problems, "parameters", res["parameters"], exp["parameters"])
    table = res["table"]
    dists = exp["distributions"]
    for key in DIST_KEYS:
        _check_values(problems, key, [r[key] for r in table], dists[key])
    _check_values(problems, "A_perp_transform", [r["A_perp_transform"] for r in table],
                  dists["A_perp"])
    _eq(problems, "equal", [r["equal"] for r in table], exp["detectable"])
    _eq(problems, "all_detectable", [r["all_detectable"] for r in table], exp["detectable"])
    _eq(problems, "detection_distance", res["detection_distance"], exp["distance"])
    for flag in ("c_nonnegative", "equivalence_consistent", "all_ok"):
        _eq(problems, flag, res[flag], True)
    _check_sum_rules(problems, exp, [r["A"] for r in table], [r["B"] for r in table])


def _check_detect(exp, res, problems):
    if "error" in exp:
        _eq(problems, "error", res["error"], exp["error"])
        _eq(problems, "detectable", res["detectable"], exp["detectable"])
        _eq(problems, "witness", res["witness"], exp["witness"])
        if exp["detectable"]:
            lams = res["lambdas"] or []
            _eq(problems, "lambda count", len(lams), exp["blocks"])
            for i, (re, im) in enumerate(lams):
                _close(problems, f"|lambda[{i}]|", (re * re + im * im) ** 0.5,
                       exp["lambda_modulus"], FRAME_TOL)
        return
    _eq(problems, "weight", res["weight"], exp["weight"])
    _eq(problems, "count", res["count"], exp["count"])
    _eq(problems, "all_detectable", res["all_detectable"], exp["all_detectable"])
    ces = res["counterexamples"]
    _eq(problems, "counterexample count", len(ces), exp["counterexamples"])
    model = models.model_from_spec(exp["model"])
    errors = [ce["error"] for ce in ces]
    if len(set(errors)) != len(errors):
        problems.append("counterexamples repeat an element")
    for ce in ces:
        err = ce["error"]
        if len(err) - err.count("I") != exp["weight"]:
            problems.append(f"counterexample {err} does not have weight {exp['weight']}")
            continue
        ok, witness = model.verdict(err)
        _eq(problems, f"counterexample {err}", [ok, ce["witness"]],
            [False, list(witness) if witness else None])


def _check_correctable(exp, res, problems):
    _eq(problems, "errors", res["errors"], exp["errors"])
    _eq(problems, "correctable", res["correctable"], exp["correctable"])
    _eq(problems, "witness", res["witness"], exp["witness"])


def _check_dimension(exp, res, problems):
    _eq(problems, "parameters", res["parameters"], exp["parameters"])
    _eq(problems, "hybrid_dimension", res["hybrid_dimension"], exp["hybrid"])
    _eq(problems, "quantum_dimension", res["quantum_dimension"], exp["quantum"])
    _eq(problems, "difference", res["difference"], exp["hybrid"] - exp["quantum"])
    _eq(problems, "numeric_dimension", res["numeric_dimension"], exp["numeric"])
    _eq(problems, "matches_formula", res["matches_formula"],
        None if exp["numeric"] is None else True)


def _check_validate(exp, res, problems):
    _eq(problems, "valid", res["valid"], True)
    _eq(problems, "parameters", res["parameters"], exp["parameters"])
    _eq(problems, "issues", res["issues"], [])
    for key in ("max_gram_deviation", "max_cross_overlap"):
        _close(problems, key, res[key], 0.0, FRAME_TOL)


def _check_simulate(exp, res, problems):
    for key in ("parameters", "message", "error", "trials"):
        _eq(problems, key, res[key], exp[key])
    m = exp["parameters"]["M"]
    labels = [str(a) for a in range(1, m + 1)] + ["epsilon"]
    _eq(problems, "outcomes", list(res["probabilities"]), labels)
    _eq(problems, "count labels", list(res["counts"]), labels)
    if problems:
        return
    for label, want in zip(labels, exp["probabilities"]):
        _close(problems, f"probability[{label}]", res["probabilities"][label], want, PROB_ATOL)
        if want < 1e-12 and res["counts"][label]:
            problems.append(f"outcome {label} has probability 0 but was sampled")
    _eq(problems, "count total", sum(res["counts"].values()), exp["trials"])
    wrong = sum(c for label, c in res["counts"].items()
                if label not in (str(exp["message"]), "epsilon"))
    _eq(problems, "wrong_message_count", res["wrong_message_count"], wrong)


_CHECKS = {
    "enumerators": _check_enumerators,
    "distance": _check_distance,
    "identities": _check_identities,
    "detect": _check_detect,
    "correctable": _check_correctable,
    "dimension": _check_dimension,
    "validate": _check_validate,
    "simulate": _check_simulate,
}
