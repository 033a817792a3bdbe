"""Guard the names the benchmark under perfbench/ calls into.

perfbench/layers.py rebinds every function named in its TRACED table, and
perfbench/ops.py calls a few entry points directly.  Deleting or renaming
any of them breaks the benchmark without failing any other test, so this
test reads TRACED from the file (without importing perfbench) and checks
that each name still exists in its linkform module.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# entry points perfbench/ops.py calls directly, as (module, attribute path)
OPS_ENTRY_POINTS = [
    ("cli", "main"),
    ("verify", "run_suite"),
    ("verify", "RunConfig"),
    ("witt", "witt_seifert"),
    ("witt", "witt_pairing"),
    ("seifert", "SeifertData"),
    ("pairing", "StandardForm"),
    ("pairing", "StandardForm.from_json"),
]


def _traced():
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no TRACED table")


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"linkform.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


TRACED_NAMES = [(layer, fn) for layer, fns in _traced().items() for fn in fns]


def test_traced_table_is_nonempty():
    assert TRACED_NAMES


@pytest.mark.parametrize("module, name", TRACED_NAMES)
def test_traced_function_exists(module, name):
    assert callable(_resolve(module, name))


@pytest.mark.parametrize("module, path", OPS_ENTRY_POINTS)
def test_ops_entry_point_exists(module, path):
    assert callable(_resolve(module, path))
