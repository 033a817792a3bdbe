"""Guard the names the benchmark under perfbench/ calls into, and keep the
brute-force searches out of the production paths.

perfbench/layers.py rebinds every function named in its TRACED table, and
perfbench/ops.py calls a few entry points directly.  Deleting or renaming
any of them breaks the benchmark without failing any other test, so this
test reads TRACED from the file (without importing perfbench) and checks
that each name still exists in its linkform module.

Isomorphism is decided by exact invariants; the brute-force isomorphism
and metabolizer searches are test oracles, called only by the verify
suites, and the closed forms that only the thm3 and thm7 suites check are
named nowhere else.  The module-level imports between the modules of the
package form no cycle, so each module loads with only the layers below
it.  The source is read with ast, so nothing is imported for these.
"""

import ast
import importlib
from graphlib import CycleError, TopologicalSorter
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


# closed forms that only suite_thm3 and suite_thm7 check, defined in verify.py
CLOSED_FORMS = (
    "d_formula_case",
    "d_class_from_data",
    "div4_diagonal_count",
    "hyperbolic_from_counts",
    "hyperbolic_test",
)


def test_search_oracles_are_called_only_by_the_verify_suites():
    callers = {"brute_force_isomorphic": set(), "metabolic_oracle": set()}
    namers = {name: set() for name in CLOSED_FORMS}
    for name, tree in _src_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in callers:
                    callers[called].add(name)
            # a use, an attribute, an imported name or a definition
            for field in ("id", "attr", "name"):
                if getattr(node, field, None) in namers:
                    namers[getattr(node, field)].add(name)
    assert callers == {"brute_force_isomorphic": {"verify.py"}, "metabolic_oracle": {"verify.py"}}
    assert namers == {name: {"verify.py"} for name in CLOSED_FORMS}


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


def _relative_imports(tree):
    """The modules of the package that ``tree`` imports when it is loaded:
    relative imports anywhere but inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:  # from .pairing import x
                yield node.module.split(".")[0]
            else:  # from . import pairing
                yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_module_level_imports_form_no_cycle():
    # each module maps to the modules it imports, which load before it
    graph = {name[:-3]: set(_relative_imports(tree)) for name, tree in _src_trees().items()}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:  # args[1] lists the cycle against the import direction
        raise AssertionError("import cycle: " + " -> ".join(reversed(exc.args[1]))) from None
