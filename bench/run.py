"""hybridec benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run generates the
workload's code documents from the seed (bench/generate.py, in a child
process, into .bench_work/), measures set-up time in fresh child
processes, then drives the CLI in-process through
``hybridec.cli.run(argv, stdout=buffer)`` as a closed loop: one client,
one request at a time, no threads.  Every response is checked
(bench/check.py) and must be byte-identical across repeats.

The request list is repeated P = round(S / NOMINAL_PASS_S) times, so a
run lasts about S seconds at the commit that defined the benchmark and
every commit does the same work for the same S.

Request latencies are reported at a reference host speed.  The 2-vCPU
host this was built on changes speed by up to 2x, in phases from a
second to several minutes (one 0.3 s request ranged 0.285-0.556 s over
90 s, all user time; throughput of whole runs drifted 1.8x within ten
minutes), which would otherwise dominate run-to-run spread.  So a fixed
calibration kernel (host_kernel, independent of hybridec and shaped like
its work: JSON parsing, per-entry Python loops, small numpy products) is
timed between consecutive requests, and each request's wall time is
scaled by REFERENCE_KERNEL_S over the mean of the kernel times just
before and after it.  Each request's latency is the median of its P
interleaved repeats; throughput and percentiles are taken over all
P x L issued requests, each carrying its request's latency.  Set-up
time is not scaled.  Unscaled figures are printed above the result line.

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 untraced and traced passes (bench/tracer.py) alternate; the
traced responses must equal the untraced bytes, and the last line reports
per-layer metrics plus the tracing overhead.  Spans are written to
.bench_work/<workload>-<seed>/trace.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
from generate import WORKLOADS  # noqa: E402

# Seconds one pass over the request list takes at the defining commit
# (2-vCPU x86-64 VM, Python 3.11, numpy 2.4; the host's speed varied
# by 2x while these were measured).
NOMINAL_PASS_S = {"scan-frames": 5.5, "stabilizer-queries": 6.0, "frame-queries": 3.0}
SETUP_SAMPLES = 15
# Median host_kernel() seconds on the defining host.
REFERENCE_KERNEL_S = 0.0035
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_DOC = json.dumps([[[float(x), float(y)] for x, y in _KERNEL_RNG.normal(size=(64, 2))]
                          for _ in range(16)])
_KERNEL_MATRIX = _KERNEL_RNG.normal(size=(16, 64)) + 0j
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
# Stop starting passes once a run is this many times over its budget,
# so a run on a badly regressed commit still ends in bounded time.
OVERRUN_FACTOR = 3

E2E_UNITS = {"requests_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {}
    for module, funcs in tracer.TARGETS.items():
        for func in funcs:
            units[f"{module}.{func}.self_share"] = "ratio"
            units[f"{module}.{func}.calls_per_request"] = "count"
        units[f"{module}.errors"] = "count"
    units.update({
        "detection.tensors_per_element": "ratio",
        "error_basis.enumerate_weight.elements": "count",
        "linalg.orthonormalize.vectors_in": "count",
        "linalg.orthonormalize.kept_ratio": "ratio",
        "code_model.parse_code_file.bytes": "bytes",
        "cli.output_bytes": "bytes",
        "trace.request_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.unaccounted_share": "ratio",
    })
    return units


def host_kernel() -> float:
    """Seconds taken by a fixed unit of JSON, Python-loop and small-numpy work."""
    start = time.perf_counter()
    for row in json.loads(_KERNEL_DOC):
        vec = np.empty(len(row), dtype=complex)
        for i, entry in enumerate(row):
            vec[i] = complex(entry[0], entry[1])
    for _ in range(100):
        np.abs(_KERNEL_MATRIX.conj() @ _KERNEL_MATRIX.T) ** 2
    total = 0
    for j in range(10000):
        total += j * j
    return time.perf_counter() - start


def run_child(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def measure_setup(tiny: str) -> float:
    samples = [float(run_child([os.path.join(HERE, "setup_probe.py"), SRC, tiny]))
               for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples)


def import_program():
    sys.path.insert(0, SRC)
    import hybridec
    from hybridec import cli

    if not os.path.abspath(hybridec.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported hybridec from {hybridec.__file__}, not {SRC}")
    return hybridec, cli


class Loop:
    """Closed-loop client: issues requests one at a time and checks each."""

    def __init__(self, cli, requests: list[dict]):
        self.cli = cli
        self.requests = requests
        self.attempted = 0
        self.failed = 0
        self.reference: list[str | None] = [None] * len(requests)
        self.problems: list[str] = []
        # Unscaled wall time of every request issued.
        self.raw: list[float] = []
        # Largest share of a traced request's wall time its self times miss.
        self.unaccounted = 0.0

    def one(self, index: int, trace=None) -> float:
        """Issue one request and check it; returns its wall time."""
        req = self.requests[index]
        buf = io.StringIO()
        if trace:
            trace.begin_request(self.attempted)
        start = time.perf_counter()
        try:
            rc = self.cli.run(req["argv"], stdout=buf, stderr=io.StringIO())
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc, buf = f"exception {exc!r}", io.StringIO()
        wall = time.perf_counter() - start
        self.attempted += 1
        out = buf.getvalue()
        problems = check.check(req, rc, out) if isinstance(rc, int) else [str(rc)]
        if self.reference[index] is None:
            self.reference[index] = out
        elif out != self.reference[index]:
            problems.append("output bytes differ from the first response to this request")
        if problems:
            self.failed += 1
            self.problems.append(f"request {index} {req['argv'][:2]}: {problems[:3]}")
        return wall

    def passes(self, count: int, budget_s: float, trace=None) -> list[float]:
        """Run whole passes; returns each request's wall time scaled to the
        reference host speed."""
        scaled: list[float] = []
        start = time.perf_counter()
        before = host_kernel()
        for _ in range(count):
            for index in range(len(self.requests)):
                wall = self.one(index, trace)
                if trace:
                    self.unaccounted = max(self.unaccounted,
                                           abs(wall - trace.end_request()) / wall)
                after = host_kernel()
                scaled.append(wall * 2 * REFERENCE_KERNEL_S / (before + after))
                self.raw.append(wall)
                before = after
            if time.perf_counter() - start > OVERRUN_FACTOR * budget_s:
                print(f"stopping after {len(scaled)} requests: over {OVERRUN_FACTOR}x budget")
                break
        return scaled


def median_of_repeats(walls: list[float], per_pass: int) -> list[float]:
    """Each request's median wall time over the passes recorded in walls."""
    return [statistics.median(walls[i::per_pass]) for i in range(per_pass)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def latency_metrics(walls: list[float], per_pass: int) -> dict:
    repeats = len(walls) // per_pass
    issued = median_of_repeats(walls, per_pass) * repeats
    tail_s, pct = tail(issued)
    return {
        "requests_per_s": len(issued) / sum(issued),
        "latency_p50_s": statistics.median(issued),
        "latency_tail_s": tail_s,
        "tail_percentile": pct,
        "samples": len(issued),
    }


def end_to_end(loop: Loop, walls: list[float], setup_s: float) -> dict:
    per_pass = len(loop.requests)
    raw = latency_metrics(loop.raw, per_pass)
    out = latency_metrics(walls, per_pass)
    print(f"requests: {out['samples']} ({len(walls) // per_pass} x {per_pass}); latency_tail_s "
          f"is p{out['tail_percentile']:.1f} ({TAIL_BEYOND} of {out['samples']} beyond it)")
    print(f"unscaled: requests_per_s {raw['requests_per_s']:.4f}, latency_p50_s "
          f"{raw['latency_p50_s']:.4f}, latency_tail_s {raw['latency_tail_s']:.4f}")
    return {
        "requests_per_s": out["requests_per_s"],
        "latency_p50_s": out["latency_p50_s"],
        "latency_tail_s": out["latency_tail_s"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - loop.failed / loop.attempted,
    }


def per_layer(loop: Loop, trace: tracer.Tracer, untraced: list[float],
              traced: list[float], traced_raw: list[float]) -> dict:
    """Shares use raw traced wall time, the same clock as the spans."""
    reqs = len(traced)
    total = sum(traced_raw)
    per_pass = len(loop.requests)
    covered = sum(loop.requests[i % per_pass]["covers"] for i in range(reqs))
    out = {}
    for module, funcs in tracer.TARGETS.items():
        for func in funcs:
            name = f"{module}.{func}"
            out[f"{name}.self_share"] = trace.self_s.get(name, 0.0) / total
            out[f"{name}.calls_per_request"] = trace.calls.get(name, 0) / reqs
        out[f"{module}.errors"] = trace.counts.get(f"{module}.errors", 0)
    counts = trace.counts
    offered = counts.get("linalg.orthonormalize.vectors_in", 0)
    out.update({
        "detection.tensors_per_element":
            trace.calls.get("detection.error_block_tensor", 0) / max(1, covered),
        "error_basis.enumerate_weight.elements":
            counts.get("error_basis.enumerate_weight.elements", 0) / reqs,
        "linalg.orthonormalize.vectors_in": offered / reqs,
        "linalg.orthonormalize.kept_ratio":
            counts.get("linalg.orthonormalize.vectors_kept", 0) / max(1, offered),
        "code_model.parse_code_file.bytes": counts.get("code_model.parse_code_file.bytes", 0) / reqs,
        "cli.output_bytes": sum(len(r) for r in loop.reference) / per_pass,
        "trace.request_s": total / reqs,
        "trace.overhead_ratio": (sum(median_of_repeats(traced, per_pass))
                                 / sum(median_of_repeats(untraced, per_pass))),
        "trace.unaccounted_share": loop.unaccounted,
    })
    shares = sorted(((v, k) for k, v in out.items() if k.endswith(".self_share")), reverse=True)
    for value, key in shares[:8]:
        print(f"  {key:<55} {value:.3f}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hybridec benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hybridec", "__init__.py")):
        print(f"error: no hybridec sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    run_child([os.path.join(HERE, "generate.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", work])
    with open(os.path.join(work, "requests.json"), encoding="utf-8") as fh:
        requests = json.load(fh)
    tiny = os.path.join(work, "tiny.json")
    setup_s = measure_setup(tiny)

    hybridec, cli = import_program()
    cli.run(["enumerators", tiny, "--format", "json"], stdout=io.StringIO())
    loop = Loop(cli, requests)
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    print(f"workload {args.workload}, seed {args.seed}: {len(requests)} requests per pass, "
          f"{passes} passes")

    if args.trace:
        # Alternate so both sides see the same host conditions.
        trace = tracer.Tracer()
        untraced, traced, traced_raw = [], [], []
        for index in range(max(2, passes)):
            if index % 2 == 0:
                untraced += loop.passes(1, args.seconds)
                continue
            first = len(loop.raw)
            trace.install(hybridec)
            try:
                traced += loop.passes(1, args.seconds, trace)
            finally:
                trace.uninstall()
            traced_raw += loop.raw[first:]
        trace.dump(os.path.join(work, "trace.json"))
        metrics = per_layer(loop, trace, untraced, traced, traced_raw)
        units = per_layer_units()
        consistent = metrics["trace.unaccounted_share"] <= 0.05
        if not consistent:
            print("traced self times do not account for request wall time")
    else:
        walls = loop.passes(passes, args.seconds)
        metrics = end_to_end(loop, walls, setup_s)
        units = E2E_UNITS
        consistent = True

    for line in loop.problems[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": loop.failed == 0 and consistent,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
