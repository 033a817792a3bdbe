"""The benchmark's own checks: inputs are a function of --seed alone, the
torsion oracle is right on known manifolds, failures the reference commit
did not have make a run incorrect, traced spans add up, and the metrics
match BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import catalog  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def rounds(workload: str, seed: int, n: int = 3) -> list[list[str]]:
    stream = catalog.OpStream(catalog.load_catalogue(workload), workload, seed)
    return [[e["id"] for e in stream.next_round()] for _ in range(n)]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert rounds(workload, 7) == rounds(workload, 7)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_different_seed_different_inputs(workload):
    assert rounds(workload, 7) != rounds(workload, 8)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_round_composition_is_fixed(workload):
    entries = {e["id"]: e for e in catalog.load_catalogue(workload)}
    plans = set()
    for seed in (1, 2):
        for ids in rounds(workload, seed):
            strata = {}
            for i in ids:
                strata[entries[i]["stratum"]] = strata.get(entries[i]["stratum"], 0) + 1
            plans.add(tuple(sorted(strata.items())))
    assert len(plans) == 1


@pytest.mark.parametrize("workload", ["compute", "realize"])
def test_catalogue_matches_its_generator(workload):
    """The stored inputs are the ones the seeded generators produce."""
    stored = catalog.load_catalogue(workload)
    fresh = catalog.catalogue_entries(workload)
    assert [(e["id"], e["input"]) for e in stored] == [(e["id"], e["input"]) for e in fresh]


def test_generators_follow_their_seed():
    draw = lambda seed: [catalog.seifert_input(random.Random(seed)) for _ in range(1)]  # noqa: E731
    assert draw(1) == draw(1)
    a = [catalog.realize_target(random.Random(3), f) for f in catalog.REALIZE_FAMILIES]
    b = [catalog.realize_target(random.Random(3), f) for f in catalog.REALIZE_FAMILIES]
    c = [catalog.realize_target(random.Random(4), f) for f in catalog.REALIZE_FAMILIES]
    assert a == b != c


def test_search_candidate_count():
    # alpha 2..4, |beta| <= 3: 12 admissible pairs; multisets of size 1..5
    assert catalog.search_candidates(5, 4, 3) == 12 + 78 + 364 + 1365 + 4368


def test_torsion_oracle():
    # the quarter-turn Nil manifold: H_1 torsion Z/4 + Z/2 + Z/2
    assert ops.torsion_structure([[2, 1], [2, 1], [2, 1], [2, -1]]) == [(2, 1), (2, 1), (2, 2)]
    # eps = 0: M(0;(3,1),(3,1),(3,-2)) has torsion Z/3
    assert ops.torsion_structure([[3, 1], [3, 1], [3, -2]]) == [(3, 1)]


def test_spans_round_trip(tmp_path):
    """Traced calls nest under cli.main, self times add up, and the written
    spans read back unchanged."""
    ops.import_linkform()
    program = ops.Program()
    entry = {"input": {"genus": 0, "pairs": [[2, 1], [2, 1], [2, 1], [2, -1]]}}
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = program.call("compute", entry)
    finally:
        tracer.uninstall()
    assert outcome.code == 0
    totals = tracer.layer_totals()
    assert totals.calls["cli.main"] == 1 and totals.calls["torsion.smith_normal_form"] == 1
    cols = tracer.cols
    root = cols["parent"].index(-1)
    assert list(cols["parent"]).count(-1) == 1
    root_s = cols["end"][root] - cols["start"][root]
    assert abs(sum(totals.self_s.values()) - root_s) < 1e-6
    assert totals.total_s["cli.main"] == root_s
    path = tmp_path / "spans.bin.gz"
    tracer.write(path)
    header, back = spans.read_spans(path)
    assert header["names"] == tracer.names
    assert all(back[field] == cols[field] for field, _ in spans.FIELDS)
    # uninstall restored the originals
    assert program.modules["cli"].main.__module__ == "linkform.cli"
    assert not hasattr(program.modules["cli"].main, "__wrapped__")


def _raise():
    raise ZeroDivisionError("stubbed failure")


def test_unrecorded_failures_make_the_run_incorrect():
    """Only the reference's own failures keep `correct` true: a runaway op
    stopped at its deadline and the recorded top-level-array traceback."""
    ops.import_linkform()
    entries = catalog.load_catalogue("compute")
    runaway = next(e for e in entries if e["stratum"] == "runaway")
    array = next(e for e in entries if e["stratum"] == "array")
    valid = next(e for e in entries if e["stratum"] == "r3" and e["ok"])

    expected = run.Run("compute")
    expected.account(runaway, ops.Outcome("timeout", None, "", 0.5), 0)
    expected.account(array, *expected.call(array))
    assert expected.failed == 2 and expected.correct

    for outcome in (ops.timed_call(_raise, 1.0), ops.Outcome("timeout", None, "", 0.5)):
        crashed = run.Run("compute")
        crashed.account(valid, outcome, 0)
        assert crashed.failed == 1 and not crashed.correct

    stubbed = run.Run("compute")
    stubbed.program.call = lambda workload, entry: ops.timed_call(_raise, 1.0)
    stubbed.account(array, *stubbed.call(array))  # raises, but not as recorded
    assert stubbed.problems == {"exception": 1} and not stubbed.correct


def test_metrics_match_benchmark_json():
    per_layer = run.declared_metrics("per_layer")
    assert list(per_layer) == list(layers.MOVES)
    end_to_end = run.declared_metrics("end_to_end")
    assert not set(end_to_end) & set(layers.REPORTED)
    for moves in layers.MOVES.values():
        for workload, metric in moves:
            assert workload in catalog.WORKLOADS
            assert metric in end_to_end or metric in layers.REPORTED
