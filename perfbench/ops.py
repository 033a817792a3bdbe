"""One op of a workload: an in-process call into linkform, and its checks.

``compute``, ``realize`` and ``search`` ops call ``linkform.cli.main`` with
stdin and stdout redirected; ``verify`` ops call
``linkform.verify.run_suite``.  Each op has a deadline, enforced with
SIGALRM in the single calling thread; an op past it is stopped and counted
failed, as is an uncaught exception, a wrong exit code or a failed check.
Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from time import perf_counter

import catalog

SRC = Path(__file__).resolve().parent.parent / "src"

# well above each workload's slowest normal op at the reference commit
# (compute 0.1 s, realize 0.3 s, search 3 s, verify 5 s)
DEADLINE_S = {"compute": 0.5, "realize": 2.0, "search": 30.0, "verify": 60.0}
EXIT_OK, EXIT_INVALID, EXIT_UNREALIZABLE = 0, 2, 3


class OpDeadline(BaseException):
    """Raised in the calling thread when an op passes its deadline."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    status: str  # "exit", "timeout" or "exception"
    code: int | None
    out: str
    seconds: float
    error: str = ""


def timed_call(fn, deadline: float, stdin_text: str = "") -> Outcome:
    """Run fn() under a deadline with stdin, stdout and stderr redirected."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    status, code, error = "exit", None, ""
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = fn()
    except OpDeadline:
        status = "timeout"
    except Exception as exc:  # an uncaught error of the program is a failed op
        status, error = "exception", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = saved_stdin
    return Outcome(status, code, out.getvalue(), seconds, error)


def import_linkform() -> float:
    """(Re-)import linkform.cli from the checkout's src/; returns seconds."""
    if not (SRC / "linkform" / "cli.py").is_file():
        raise FileNotFoundError(f"no linkform sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "linkform" or m.startswith("linkform.")]:
        del sys.modules[name]
    t0 = perf_counter()
    cli = importlib.import_module("linkform.cli")
    seconds = perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "linkform":
        raise ImportError(f"linkform imported from {cli.__file__}, not {SRC}")
    return seconds


class Program:
    """The linkform modules the ops and checks call, looked up at call time
    so that the tracer's rebinding is seen."""

    def __init__(self):
        self.modules = {
            name: sys.modules[f"linkform.{name}"]
            for name in ("cli", "verify", "witt", "seifert", "pairing")
        }

    def call(self, workload: str, entry: dict, deadline: float | None = None) -> Outcome:
        deadline = deadline or DEADLINE_S[workload]
        if workload == "verify":
            verify = self.modules["verify"]
            cfg = verify.RunConfig(seed=entry["seed"])
            box = {}

            def run():
                box["report"] = verify.run_suite(entry["suite"], cfg)
                return EXIT_OK

            outcome = timed_call(run, deadline)
            if "report" in box:  # serialized as the CLI would, outside the timing
                outcome.out = json.dumps(box["report"], indent=2, sort_keys=True) + "\n"
            return outcome
        argv = [workload, "-"]
        if workload == "realize":
            argv += ["--mode", entry["mode"]]
        elif workload == "search":
            argv += catalog.search_argv(entry["shape"])
        main = self.modules["cli"].main
        return timed_call(lambda: main(argv), deadline, json.dumps(entry["input"]))


# ---------------------------------------------------------------------------
# checks


def check(program: Program, workload: str, entry: dict, outcome: Outcome) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    if outcome.status != "exit":
        return outcome.status + (f" ({outcome.error})" if outcome.error else "")
    code = outcome.code
    if workload == "compute":
        if entry["stratum"] in catalog.MALFORMED:
            return None if code == EXIT_INVALID else f"exit {code} on malformed input"
        if code != EXIT_OK:
            return f"exit {code} on valid input"
        report = json.loads(outcome.out)
        if report["structure"]["ok"] is not True:
            return "structure.ok is not true"
        if any(local.get("welldefined") for local in report["local"]):
            return "nonempty welldefined diagnostics"
        return None
    if workload == "realize":
        if code == EXIT_UNREALIZABLE:
            return None if entry["code"] == EXIT_UNREALIZABLE else "refused a realizable target"
        if code != EXIT_OK:
            return f"exit {code}"
        return _check_realization(program, entry, json.loads(outcome.out))
    if workload == "search":
        if code != EXIT_OK:
            return f"exit {code}"
        report = json.loads(outcome.out)
        if report["count"] != entry["count"]:
            return f"{report['count']} hits, {entry['count']} recorded"
        if entry["input"] == catalog.EVEN_EVEN and report["count"]:
            return "E0(2)+E0(1) has hits"
        hits = [sorted(s["pairs"]) for s in report["seifert"]]
        if entry["input"] == catalog.NIL_CLASS and catalog.NIL_PAIRS not in hits:
            return "the Nil data is missing"
        return None
    if workload == "verify":
        return None if json.loads(outcome.out)["ok"] is True else "report not ok"
    raise ValueError(workload)


def _check_realization(program: Program, entry: dict, report: dict) -> str | None:
    if report["verified"] is not True:
        return "not verified"
    mode = entry["mode"]
    if mode == "flat" and report["euler"] != "0":
        return "flat mode with eps != 0"
    if mode == "sphere" and report["euler"] == "0":
        return "sphere mode with eps = 0"
    genus, pairs = report["seifert"]["genus"], report["seifert"]["pairs"]
    want = []  # (p, k) of the target's cyclic summands
    for atom in entry["input"]["atoms"]:
        if "cyc" in atom:
            want.append(tuple(atom["cyc"][:2]))
        else:
            want += [(2, atom.get("E0") or atom["E1"])] * 2
    if torsion_structure(pairs) != sorted(want):
        return "Smith-form torsion differs from the target's group"
    witt, seifert, pairing = (program.modules[m] for m in ("witt", "seifert", "pairing"))
    S = seifert.SeifertData(genus, tuple(tuple(p) for p in pairs))
    w = witt.witt_seifert(S)
    t = witt.witt_pairing(pairing.StandardForm.from_json(entry["input"]))
    if w != t and w != -t:
        return "Witt class is not +- the target's"
    return None


# ---------------------------------------------------------------------------
# an independent torsion oracle: local Smith forms over Z/p^N


def _prime_factors(n: int) -> set[int]:
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _rank(rows: list[list[int]]) -> int:
    A = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(A[0])):
        pivot = next((i for i in range(rank, len(A)) if A[i][j]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        for i in range(rank + 1, len(A)):
            f = A[i][j] / A[rank][j]
            if f:
                A[i] = [x - f * y for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


def _local_valuations(rows: list[list[int]], p: int, rank: int) -> list[int]:
    """p-adic valuations of the nonzero elementary divisors of rows."""
    N = 8
    while True:
        mod = p**N
        A = [[x % mod for x in row] for row in rows]
        live_rows, live_cols = set(range(len(A))), set(range(len(A[0])))
        vals = []
        while True:
            best = None
            for i in live_rows:
                for j in live_cols:
                    x, v = A[i][j], 0
                    if not x:
                        continue
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, i, j)
            if best is None:
                break
            v, i, j = best
            inv = pow(A[i][j] // p**v, -1, mod)
            for i2 in live_rows - {i}:
                if A[i2][j]:
                    f = (A[i2][j] // p**v) * inv % mod
                    A[i2] = [(x - f * y) % mod for x, y in zip(A[i2], A[i])]
            live_rows.discard(i)
            live_cols.discard(j)
            vals.append(v)
        if len(vals) == rank:  # no divisor was lost to the modulus
            return vals
        N *= 2


def torsion_structure(pairs) -> list[tuple[int, int]]:
    """Multiset (p, k) of cyclic summands of the torsion of H_1(M(g;S)).

    Uses the presentation alpha_i q_i + beta_i h = 0, q_1 + ... + q_r = 0;
    the genus only adds free summands.
    """
    r = len(pairs)
    rows = []
    for i, (a, b) in enumerate(pairs):
        row = [0] * (r + 1)
        row[i], row[r] = a, b
        rows.append(row)
    rows.append([1] * r + [0])
    alphas = [a for a, _ in pairs]
    primes = set().union(*(_prime_factors(a) for a in alphas))
    numerator = sum(b * prod(alphas) // a for a, b in pairs)
    if numerator:
        primes |= _prime_factors(numerator)
    rank = _rank(rows)
    return sorted(
        (p, v) for p in primes for v in _local_valuations(rows, p, rank) if v > 0
    )
