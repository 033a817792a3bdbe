"""Run README's "Library quick start" block and check what its comments claim.

The block is the public surface the documentation shows; deleting or
renaming a name it uses, or changing what it prints, fails here.
"""

import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    found = re.search(
        r"^## Library quick start\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M
    )
    assert found, "README has no Library quick start block"
    return found.group(1)


def test_library_quick_start_runs_as_documented():
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), namespace)
    gram, form, witt = (ast.literal_eval(line) for line in out.getvalue().splitlines())
    assert gram["orders"] == [2, 2, 4]
    assert form == {"atoms": [{"cyc": [2, 2, 3]}, {"E0": 1}]}  # Cyc(2,2,3) + E0(1)
    res = namespace["res"]
    assert str(res.seifert) == "M(0;(9,2),(3,-1))"
    assert res.seifert.eps == Fraction(1, 9)
    assert witt == {"3": "1"}
