"""The README's quick tour runs and prints what its comments say, and the
names heading its key entry points exist."""

import contextlib
import io
import os
import re

import hybridec

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_quick_tour_prints_its_comments():
    with open(README, encoding="utf-8") as fh:
        tour = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    expected = re.findall(r"^print\(.*?\) +# (.*)$", tour, re.M)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_key_entry_points_name_package_attributes():
    """Each backticked name heading a "Key entry points" bullet (before
    its colon) is an attribute of hybridec, so the list cannot keep
    naming a function that is gone."""
    with open(README, encoding="utf-8") as fh:
        section = re.search(r"^Key entry points:\n\n(.*?)\n\n", fh.read(), re.S | re.M).group(1)
    heads = [bullet.split("`:", 1)[0] for bullet in re.split(r"^- ", section, flags=re.M)[1:]]
    names = [name for head in heads for name in re.findall(r"`([A-Za-z_]\w*)", head)]
    assert len(heads) >= 5 and len(names) >= len(heads)
    assert [name for name in names if not hasattr(hybridec, name)] == []
