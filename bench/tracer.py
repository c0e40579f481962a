"""Per-layer tracing of hybridec from outside the program.

Tracer.install replaces each public function named in TARGETS with a
timing wrapper, under every name a hybridec module binds it to (a
``from ... import`` copies the reference, so cli.parse_code_file and
code_model.parse_code_file are both rebound).  Each call records its
self time, the wrapper's duration minus its wrapped children, against
the current request.  HOT functions run tens of thousands of times per
request, so they only add to per-request counts and self time; every
other call also leaves a span (name, start, end, parent span, request).
Spans stay in memory until dump().
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TARGETS = {
    "cli": ("run", "dumps_report"),
    "code_model": ("parse_code_file", "from_stabilizer", "validate", "encode"),
    "linalg": ("orthonormalize", "numeric_rank", "poly_substitute_macwilliams"),
    "error_basis": ("enumerate_weight", "permutation_action"),
    "detection": ("error_block_tensor", "detectability", "all_detectable_of_weight",
                  "is_correctable_set", "detectable_dimension_numeric",
                  "simulate_transmission", "measure"),
    "enumerators": ("compute_distributions", "verify_identities", "macwilliams_of_a",
                    "weights_a", "weights_b"),
}
HOT = {"detection.error_block_tensor", "detection.detectability",
       "error_basis.permutation_action"}
MODULES = tuple(TARGETS)


def _observe_counts(name: str, args, result, counts: dict) -> None:
    """Work counters taken at the layer boundary."""
    if name == "code_model.parse_code_file":
        counts["code_model.parse_code_file.bytes"] += len(args[0])
    elif name == "linalg.orthonormalize":
        counts["linalg.orthonormalize.vectors_in"] += len(args[0])
        counts["linalg.orthonormalize.vectors_kept"] += len(result)
    elif name == "error_basis.enumerate_weight":
        counts["error_basis.enumerate_weight.elements"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # Per request: {function: [calls, self seconds]}, hot ones included.
        self.per_request: dict[int, dict[str, list]] = {}
        self.request = -1
        self._snapshot: tuple[dict, dict] = ({}, {})
        # Each frame: [time spent in wrapped children, span index or -1].
        self._stack: list[list] = [[0.0, -1]]
        self._restore: list[tuple] = []

    def install(self, package) -> None:
        mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in MODULES}
        bound = [package, *mods.values()]
        for mod_name, funcs in TARGETS.items():
            for func in funcs:
                original = getattr(mods[mod_name], func)
                wrapper = self._wrap(f"{mod_name}.{func}", mod_name, original)
                for mod in bound:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, module: str, fn):
        hot = name in HOT
        stack, spans = self._stack, self.spans
        calls, self_s, counts = self.calls, self.self_s, self.counts
        errors_key = f"{module}.errors"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hot:
                frame = [0.0, stack[-1][1]]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, stack[-1][1], self.request])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                own = duration - frame[0]
                calls[name] += 1
                self_s[name] += own
                if not hot:
                    spans[frame[1]][1:3] = [start, end]
            _observe_counts(name, args, result, counts)
            return result

        return wrapper

    def begin_request(self, request: int) -> None:
        self.request = request
        self._snapshot = (dict(self.calls), dict(self.self_s))

    def end_request(self) -> float:
        """Store the request's per-function aggregates; return its total self time."""
        calls0, self0 = self._snapshot
        agg = {name: [self.calls[name] - calls0.get(name, 0),
                      self.self_s[name] - self0.get(name, 0.0)]
               for name in self.calls if self.calls[name] != calls0.get(name, 0)}
        self.per_request[self.request] = agg
        return sum(own for _, own in agg.values())

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans,
                       "per_request": self.per_request}, fh)
