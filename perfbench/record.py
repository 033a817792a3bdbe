"""Record the catalogue: run every catalogue entry once and store its outcome.

    python3 perfbench/record.py compute realize search verify

For each entry this writes, to ``perfbench/data/<workload>.jsonl``, the
exit code, a digest of the report, whether the report passed the
benchmark's checks, and the time it took.  A compute entry that takes more
than half the benchmark's op deadline moves to the stratum ``runaway``:
every round holds a fixed number of them.  Run it
only on the reference commit named in the README: the digests are what
``changed_outputs`` compares against, and the codes and hit counts are
part of the checks.
"""

from __future__ import annotations

import json
import sys

import catalog
import ops

RECORD_DEADLINE_S = {"compute": 3.0, "realize": 10.0, "search": 60.0, "verify": 120.0}


def record(workload: str) -> None:
    program = ops.Program()
    lines = []
    for entry in catalog.catalogue_entries(workload):
        outcome = program.call(workload, entry, RECORD_DEADLINE_S[workload])
        slow = outcome.status == "timeout" or outcome.seconds > ops.DEADLINE_S[workload] / 2
        if slow and workload == "compute":
            entry["stratum"] = "runaway"
        exited = outcome.status == "exit"
        entry["code"] = outcome.code if exited else None
        entry["digest"] = ops.digest(outcome.out) if exited else None
        if workload == "search" and outcome.code == ops.EXIT_OK:
            entry["count"] = json.loads(outcome.out)["count"]
        problem = ops.check(program, workload, entry, outcome)
        entry["ok"] = problem is None
        if problem:
            entry["problem"] = problem
        entry["ms"] = round(outcome.seconds * 1000, 3)
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    catalog.DATA.mkdir(exist_ok=True)
    catalog.catalogue_path(workload).write_text("\n".join(lines) + "\n")


def main(argv: list[str]) -> int:
    ops.import_linkform()
    for workload in argv or catalog.WORKLOADS:
        record(workload)
        print(f"recorded {catalog.catalogue_path(workload)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
