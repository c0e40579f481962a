"""Times hybridec's set-up in a fresh process and prints the seconds.

    python3 bench/setup_probe.py SRC_DIR TINY_CODE_FILE

Set-up is ``import hybridec`` (numpy included) plus one warm-up request
on a tiny code, which fills lazy tables such as the digit tables.
"""

import io
import sys
import time


def main() -> int:
    src, tiny = sys.argv[1:3]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from hybridec import cli

    rc = cli.run(["enumerators", tiny, "--format", "json"], stdout=io.StringIO())
    elapsed = time.perf_counter() - start
    if rc != 0:
        print(f"warm-up request exited {rc}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
