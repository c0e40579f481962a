"""tools/workload_responses.py tells source trees apart by their answers.

The tool runs in a subprocess on scratch copies of src, limited to the
stabilizer-queries workload at seed 1: the subprocess loads the tool as
a module, replaces bench/generate.py's WORKLOADS and the tool's SEEDS
before main runs, and so adds no option to the tool.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LIMITED_RUN = """
import importlib.util, sys
tool, bench, src = sys.argv[1:]
sys.path.insert(0, bench)
import generate
generate.WORKLOADS = {"stabilizer-queries": generate.WORKLOADS["stabilizer-queries"]}
spec = importlib.util.spec_from_file_location("workload_responses", tool)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.SEEDS = (1,)
sys.exit(module.main([src]))
"""


def responses(src):
    """The tool's lines for the hybridec package under src."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    tool = os.path.join(ROOT, "tools", "workload_responses.py")
    done = subprocess.run(
        [sys.executable, "-B", "-c", LIMITED_RUN, tool, os.path.join(ROOT, "bench"), str(src)],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    return done.stdout.splitlines()


def copy_of_src(dest):
    shutil.copytree(os.path.join(ROOT, "src"), dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def test_a_verbatim_copy_answers_alike_and_a_changed_one_differs_everywhere(tmp_path):
    """A verbatim copy of src gives the same lines as src; a copy whose
    cli.dumps_report writes other separators gives the same workload,
    seed, index and exit code with another digest on every line."""
    want = responses(os.path.join(ROOT, "src"))
    assert want and all(line.split()[:2] == ["stabilizer-queries", "1"] for line in want)
    assert responses(copy_of_src(tmp_path / "verbatim")) == want
    changed = copy_of_src(tmp_path / "changed")
    cli = changed / "hybridec" / "cli.py"
    text = cli.read_text()
    assert 'separators=(",", ":")' in text
    cli.write_text(text.replace('separators=(",", ":")', 'separators=(", ", ": ")'))
    got = responses(changed)
    assert [line.split()[:4] for line in got] == [line.split()[:4] for line in want]
    assert all(a.split()[4] != b.split()[4] for a, b in zip(got, want))
