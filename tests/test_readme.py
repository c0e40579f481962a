"""The README's quick tour runs and prints what its comments say."""

import contextlib
import io
import os
import re

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
