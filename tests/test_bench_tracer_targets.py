"""bench/tracer.py wraps hybridec functions by name; every name must resolve.

A function deleted or renamed in hybridec but still listed in the tracer's
TARGETS would make the benchmark's traced runs fail in Tracer.install with
an AttributeError.  The tracer file is only read here, never changed.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "bench", "tracer.py")


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("hybridec_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{func}"
        for mod, funcs in tracer.TARGETS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"hybridec.{mod}"), func, None))
    ]
    assert missing == []

