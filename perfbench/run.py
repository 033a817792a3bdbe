"""Benchmark of linkform: one workload, one closed-loop caller, in-process.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # all four

Imports linkform from ``src/`` of the checkout (set-up, timed as
``setup_s``), then runs rounds of ops drawn from the workload's catalogue
with ``--seed`` until ``--seconds`` of op time have passed, checking every
output outside the timed region.  Gated times are scaled to a reference
host speed (see host.py).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
each op runs once untraced and then once traced, and the last line carries
the per-layer metrics.  Lines before it list every metric by name and unit,
and a copy of the result goes to ``.perfbench/`` in the checkout, next to
the recorded spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import catalog
import host
import layers
import ops
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 15
NIL = {"genus": 0, "pairs": [[2, 1], [2, 1], [2, 1], [2, -1]]}
WARM_UP = {  # one small op of each workload's kind, part of set-up
    "compute": {"input": NIL},
    "realize": {"input": {"atoms": [{"E0": 2}]}, "mode": "flat"},
    "search": {"input": {"atoms": [{"cyc": [3, 1, 1]}]}, "shape": "warm-up"},
    "verify": {"suite": "structure", "seed": 0},
}


def declared_metrics(kind: str) -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of BENCHMARK.json's "end_to_end" or "per_layer"."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}


def rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup(workload: str) -> tuple[float, float]:
    """Medians over SETUP_REPEATS of a fresh import plus one warm-up op:
    (reference-host seconds, raw seconds)."""
    raw, scaled = [], []
    before = host.loop_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops.import_linkform()
        outcome = ops.Program().call(workload, WARM_UP[workload])
        raw.append(perf_counter() - t0)
        after = host.loop_seconds()
        scaled.append(raw[-1] * host.REFERENCE_S / ((before + after) / 2))
        before = after
        if outcome.status != "exit" or outcome.code != ops.EXIT_OK:
            raise RuntimeError(f"warm-up op failed: {outcome.status} {outcome.error}")
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class OpTime:
    seconds: float
    end: float  # perf_counter time when the op ended
    ok: bool
    stopped: bool  # stopped at its deadline: wall-clock time, not scaled


class Run:
    """Ops of one run, their outcomes and the accounting of failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.program = ops.Program()
        self.times: list[OpTime] = []
        self.busy = 0.0
        self.failed = self.changed = 0
        self.unexpected = 0  # failures the reference commit did not have
        self.trials = self.candidates = 0
        self.problems: Counter[str] = Counter()
        self.clock = host.HostClock()
        self._verdicts: dict[tuple, str | None] = {}

    def call(self, entry: dict) -> tuple[ops.Outcome, float]:
        """Run one op; returns its outcome and the time it ended."""
        outcome = self.program.call(self.workload, entry)
        end = perf_counter()
        self.busy += outcome.seconds
        self.clock.tick(outcome.seconds)
        return outcome, end

    def account(self, entry: dict, outcome: ops.Outcome, end: float) -> None:
        """Check an op's output (untimed) and count it."""
        self.times.append(OpTime(outcome.seconds, end, False, outcome.status == "timeout"))
        exited = outcome.status == "exit"
        got = ops.digest(outcome.out) if exited else None
        if exited and entry["digest"] is not None and got != entry["digest"]:
            self.changed += 1
        if exited and got == entry["digest"]:  # same bytes as the recorded report
            problem = None if entry["ok"] else entry["problem"]
        else:
            key = (entry["id"], outcome.status, outcome.code, got)
            if key not in self._verdicts:
                self._verdicts[key] = ops.check(self.program, self.workload, entry, outcome)
            problem = self._verdicts[key]
        if problem is None:
            self.times[-1].ok = True
            if self.workload == "search":
                self.candidates += catalog.search_candidates(**catalog.SEARCH_SHAPES[entry["shape"]])
            elif self.workload == "verify":
                self.trials += json.loads(outcome.out)["trials"]
            return
        self.failed += 1
        self.problems[problem.split(" (")[0]] += 1
        # the reference's own failures: a runaway op stopped at its deadline,
        # or the failure recorded for the entry (the top-level-array traceback)
        runaway = entry["stratum"] == "runaway" and outcome.status == "timeout"
        recorded = not entry["ok"] and problem == entry["problem"]
        self.unexpected += not (runaway or recorded)

    @property
    def correct(self) -> bool:
        """Every op gave the reference commit's answer or failed as it did."""
        return self.unexpected == 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_plain(run: Run, stream: catalog.OpStream, seconds: float) -> None:
    """Whole rounds until `seconds` of op time."""
    while run.busy < seconds:
        for entry in stream.next_round():
            run.account(entry, *run.call(entry))
    run.clock.finish()


def run_traced(run: Run, stream: catalog.OpStream, seconds: float, tracer: spans.Tracer) -> dict:
    """Each op once untraced, then at once traced, until `seconds` of op time."""
    untraced = traced = 0.0
    traced_ops = candidates = 0
    while run.busy < seconds:
        for entry in stream.next_round():
            plain = run.call(entry)
            tracer.op = traced_ops
            traced_ops += 1
            tracer.install()
            try:
                outcome = run.call(entry)
            finally:
                tracer.uninstall()
            untraced += plain[0].seconds
            traced += outcome[0].seconds
            if "shape" in entry:
                candidates += catalog.search_candidates(**catalog.SEARCH_SHAPES[entry["shape"]])
            run.account(entry, *plain)
            run.account(entry, *outcome)
    return {"untraced_s": untraced, "traced_s": traced, "ops": traced_ops,
            "candidates": candidates}


def end_to_end(run: Run, setup: tuple[float, float], rss_before: float) -> tuple[dict, dict]:
    """(gated metrics, times on the reference host; reported-only metrics)."""
    clock = run.clock

    def raw(t: OpTime) -> float:
        return t.seconds

    def scaled(t: OpTime) -> float:
        # deadlines are wall-clock: only the time of ops that ran to the end scales
        return t.seconds if t.stopped else t.seconds * clock.factor(t.end - t.seconds, t.end)

    def rate(seconds, finished_only=False) -> float:
        """Correct ops per second of op time."""
        ok = sum(t.ok for t in run.times)
        return ok / sum(seconds(t) for t in run.times if not (finished_only and t.stopped))

    def p50(seconds) -> float:
        return statistics.median(seconds(t) if t.ok else math.inf for t in run.times) * 1000

    peak = rss_mb()
    gated = {
        "ops_per_s": rate(scaled),
        "latency_p50_ms": p50(scaled),
        "setup_s": setup[0],
        "peak_rss_mb": peak,
    }
    reported = {
        # correct ops per second of the ops that ran to the end: on compute,
        # ops_per_s is mostly the deadline time of the runaway Smith forms
        "ops_per_s_finished": rate(scaled, finished_only=True),
        "ops_per_s_raw": rate(raw),
        "latency_p50_ms_raw": p50(raw),
        "setup_s_raw": setup[1],
        "host_loop_ms": host.REFERENCE_S / clock.scale() * 1000,
        # peak_rss_mb covers the whole process: the interpreter, set-up and
        # the catalogue make up rss_before_ops_mb
        "rss_before_ops_mb": rss_before,
        "rss_growth_mb": peak - rss_before,
        "failed_ratio": run.failed / len(run.times),
        "changed_outputs": run.changed,
    }
    if run.workload in ("compute", "realize"):  # enough ops for p99
        latencies = [raw(t) if t.ok else math.inf for t in run.times]
        reported["latency_p99_ms"] = percentile(latencies, 99) * 1000
    if run.workload == "search":
        reported["candidates_per_s"] = run.candidates / run.busy
    if run.workload == "verify":
        reported["trials_per_s"] = run.trials / run.busy
    return gated, reported


def per_layer(names, tracer: spans.Tracer, traced: dict, scale: float) -> dict:
    """Per-layer metrics of the traced half of a traced run; times on the
    reference host."""
    totals = tracer.layer_totals()
    calls, n = totals.calls, traced["ops"]
    vr, iso, cands = "realize.verify_realization", "pairing.isomorphism_report", traced["candidates"]
    ratios = {
        f"{vr}.accept_ratio": tracer.truthy[vr] / calls[vr] if calls[vr] else 0.0,
        "search.prefilter_pass_ratio": calls[vr] / cands if cands else 0.0,
        "pairing.brute_force_share": totals.with_brute[iso] / calls[iso] if calls[iso] else 0.0,
        "trace.overhead_ratio": traced["traced_s"] / traced["untraced_s"],
    }
    out = {}
    for name in names:
        fn, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[fn] / n
        elif kind in ("self_s", "total_s"):
            out[name] = getattr(totals, kind)[fn] / n * scale
        else:
            out[name] = ratios[name]
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linkform").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in catalog.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        entries = catalog.load_catalogue(args.workload)
        setup = measure_setup(args.workload)
    except (OSError, ImportError, RuntimeError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    run = Run(args.workload)
    stream = catalog.OpStream(entries, args.workload, args.seed)
    units = {name: unit for name, (unit, _) in declared.items()}
    if args.trace:
        tracer = spans.Tracer()
        traced = run_traced(run, stream, args.seconds, tracer)
        metrics = per_layer(declared, tracer, traced, run.clock.scale())
        reported = {}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin.gz")
    else:
        rss_before = rss_mb()
        run_plain(run, stream, args.seconds)
        metrics, reported = end_to_end(run, setup, rss_before)

    env = environment()
    print(f"# linkform perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} python={env['python']} "
          f"commit={env['commit']} src_sha256={env['src_sha256']} nproc={env['nproc']}")
    print(f"# ops attempted={len(run.times)} failed={run.failed} unexpected={run.unexpected} "
          f"busy_s={run.busy:.3f} problems={dict(run.problems)}")
    for name, value in {**metrics, **reported}.items():
        unit = units.get(name) or layers.REPORTED[name]
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        print("# layer metric -> end-to-end metrics it should move, per workload")
        for name, (_, better) in declared.items():
            moves = layers.MOVES[name]
            print(f"#   {name} ({better}) -> " + ", ".join(f"{w}:{m}" for w, m in moves))

    result = {
        "correct": run.correct,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    finite = {k: None if v == math.inf else v for k, v in reported.items()}
    full = {**result, "reported": finite, "problems": dict(run.problems), "env": env,
            "args": vars(args)}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
