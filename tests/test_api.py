"""Guard the names the benchmark under perfbench/ calls into, and keep the
brute-force searches out of the production paths.

perfbench/layers.py rebinds every function named in its TRACED table, and
perfbench/ops.py calls a few entry points directly.  Deleting or renaming
any of them breaks the benchmark without failing any other test, so this
test reads TRACED from the file (without importing perfbench) and checks
that each name still exists in its linkform module.

Isomorphism is decided by exact invariants; the brute-force isomorphism
and metabolizer searches are test oracles, called only by the verify
suites.  The source is read with ast, so nothing is imported for that.

linking and pairing import each other, so each import order is tried in a
fresh interpreter.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "linkform"

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


def _src_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_search_oracles_are_called_only_by_the_verify_suites():
    callers = {"brute_force_isomorphic": set(), "metabolic_oracle": set()}
    for name, tree in _src_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in callers:
                    callers[called].add(name)
    assert callers == {"brute_force_isomorphic": {"verify.py"}, "metabolic_oracle": {"verify.py"}}


@pytest.mark.parametrize(
    "module, function",
    [
        ("pairing.py", "is_isomorphic"),
        ("pairing.py", "isomorphism_report"),
        ("realize.py", "verify_realization"),
    ],
)
def test_isomorphism_takes_no_search_knobs(module, function):
    tree = _src_trees()[module]
    node = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function
    )
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    assert not names & {"oracle_bound", "force_brute"}
    assert args.vararg is None and args.kwarg is None


# run under -W error; with BARE set, a bare package object stands in for
# linkform/__init__.py, whose own imports would otherwise fix the order
IMPORT_ORDER = """
import importlib, sys, types
if BARE:
    package = types.ModuleType("linkform")
    package.__path__ = [SRC]
    sys.modules["linkform"] = package
for name in ORDER:
    importlib.import_module("linkform." + name)
from linkform.linking import gram_matrix
from linkform.seifert import SeifertData
G = gram_matrix(SeifertData(0, ((9, 2), (3, 1), (3, 1))), 3)
print([(C.k, C.matrix) for C in G.components])
print(" ".join(m[9:] for m in sys.modules if m in ("linkform.linking", "linkform.pairing")))
"""


@pytest.mark.parametrize("bare", [False, True], ids=["package", "bare"])
@pytest.mark.parametrize("order", [("linking", "pairing"), ("pairing", "linking")])
def test_linking_and_pairing_import_in_either_order(order, bare):
    code = f"BARE, SRC, ORDER = {bare!r}, {str(SRC)!r}, {order!r}\n" + IMPORT_ORDER
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    components, loaded = done.stdout.splitlines()
    assert components == "[(1, ((1, 1), (1, 2)))]"
    if bare:  # sys.modules keeps finishing order: the first one asked for
        assert loaded == " ".join(reversed(order))  # loaded the other midway
