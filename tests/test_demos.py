"""Smoke test: every narrative script under demos/ runs to completion, and
so does every Python block of the README, printing what its comments state."""

import re
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.S | re.M)


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_print_what_their_comments_state():
    """A line `print(x)  # v` states that x == v; every block runs."""
    stated = []
    for block in README_BLOCKS:
        printed = {}

        def record(*args):
            printed.setdefault(sys._getframe(1).f_lineno, args)

        exec(compile(block, "README.md", "exec"), {"print": record})
        for lineno, line in enumerate(block.splitlines(), 1):
            m = re.match(r"print\(.*\)\s+# (.+)$", line)
            if m:
                assert printed[lineno] == (eval(m[1], {"Fraction": Fraction}),), line
                stated.append(m[1])
    assert stated == ["[1, -1, 0, -1, 0, 2, 0, -1, 0]", "Fraction(2, 3)"]
