"""tools/code_lines.py counts, per module, the lines that hold code.

The tool runs in a subprocess on a small sample tree written for the
test, whose every line is marked as code or not by hand.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Nine code lines: the import, the constant, both lines of the call that
# spans two, the class line, the one-line function with its docstring,
# the def and its two-line string value.  Blank lines, comments and the
# module, class and function docstrings do not count.
SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line

# A comment line.
LIMIT = 3
PATH = os.path.join("a",
                    "b")


class Thing:
    """Class docstring."""

    def one(self): "A docstring on the line of its def."

    def two(self):
        """Function docstring,

        with a blank line inside."""
        return """not a docstring,
on two lines"""
'''


def count(*paths):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "code_lines.py"), *paths],
                          capture_output=True, text=True, timeout=60, check=True)
    return [line.split(maxsplit=1) for line in done.stdout.splitlines()]


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert count(str(tmp_path / "pkg")) == [
        ["0", str(tmp_path / "pkg" / "empty.py")],
        ["9", str(tmp_path / "pkg" / "sample.py")],
        ["9", "total"],
    ]
    assert count(str(tmp_path / "pkg" / "sample.py"))[-1] == ["9", "total"]
