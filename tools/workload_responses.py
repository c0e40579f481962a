"""Fingerprint every benchmark workload response of one source tree.

    python3 tools/workload_responses.py SRC_DIR > responses.txt

Generates the requests of the three workloads at seeds 1-3 with
bench/generate.py into a temporary directory, runs each once in-process
through hybridec.cli.run from SRC_DIR (the directory holding the
hybridec package), and prints one line per request:

    workload seed index exit_code sha256_of_stdout

Code documents are named relative to the temporary directory, so the
lines do not depend on where it lies.  Two trees answer the workloads
byte for byte alike exactly when their outputs have no diff:

    python3 tools/workload_responses.py OLD/src > old.txt
    python3 tools/workload_responses.py src > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: workload_responses.py SRC_DIR", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    # Importing bench/generate.py leaves no cache files under bench/.
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import generate
    import hybridec
    from hybridec import cli

    if not os.path.abspath(hybridec.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported hybridec from {hybridec.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        batches = [(name, seed, generate.generate(name, seed, f"{name}-{seed}"))
                   for name in sorted(generate.WORKLOADS) for seed in SEEDS]
        for name, seed, requests in batches:
            for index, request in enumerate(requests):
                out = io.StringIO()
                code = cli.run(request["argv"], stdout=out, stderr=io.StringIO())
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                print(name, seed, index, code, digest)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
