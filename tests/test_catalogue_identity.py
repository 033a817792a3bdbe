"""Every benchmark catalogue entry reproduces its recorded report.

perfbench/data/<workload>.jsonl records, for each entry, the exit code and
the first 16 hex digits of the sha256 of the report at the reference
commit.  The ops are rebuilt here as perfbench builds them: ``cli.main``
on the entry's JSON input (``--mode`` for realize, the search shape's
bounds for search), and ``verify.run_suite`` for verify, serialized as
the CLI serializes it.  The catalogue files are only read.

Entries without a recorded digest (ops that raised or timed out when
recorded) are skipped.  ``CHANGED`` pins the current digests of the
four sphere-mode realize entries whose reports changed on purpose after
recording: once ``is_isomorphic`` decided by exact invariants at every
order, an earlier candidate of order above the old brute-force bound
(2^12 to 2^18) was accepted in place of the recorded one.
"""

import ast
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from linkform.cli import main
from linkform.verify import RunConfig, run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CHANGED = {
    "gap184/sphere": "3aed0c1879dc627d",
    "gap325/sphere": "c80e6a367dd9ad53",
    "gap330/sphere": "f2522814a6329e57",
    "gap375/sphere": "1b4be68aac9c7231",
}


def _search_shapes():
    tree = ast.parse((PERFBENCH / "catalog.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SEARCH_SHAPES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/catalog.py defines no SEARCH_SHAPES table")


def _search_argv(shape):
    b = _search_shapes()[shape]
    return ["--max-r", str(b["max_r"]), "--max-alpha", str(b["max_alpha"]),
            "--max-beta", str(b["max_beta"])]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(workload, entry, monkeypatch):
    """(exit code, report text) of one catalogue entry."""
    if workload == "verify":
        report = run_suite(entry["suite"], RunConfig(seed=entry["seed"]))
        return 0, json.dumps(report, indent=2, sort_keys=True) + "\n"
    argv = [workload, "-"]
    if workload == "realize":
        argv += ["--mode", entry["mode"]]
    elif workload == "search":
        argv += _search_argv(entry["shape"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(entry["input"])))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["compute", "realize", "search", "verify"])
def test_catalogue_reports_are_reproduced(workload, monkeypatch):
    lines = (PERFBENCH / "data" / f"{workload}.jsonl").read_text().splitlines()
    entries = [e for e in map(json.loads, lines) if e["digest"] is not None]
    assert entries
    mismatches = []
    for entry in entries:
        code, text = _run(workload, entry, monkeypatch)
        want = (entry["code"], CHANGED.get(entry["id"], entry["digest"]))
        if (code, _digest(text)) != want:
            mismatches.append((entry["id"], code, _digest(text), want))
    assert not mismatches, mismatches[:10]
