"""Seeded inputs for the four workloads.

Each workload draws its ops from a catalogue stored in ``perfbench/data``.
The generators below produce the catalogue entries, and ``record.py``
stores with each entry the exit code and the report digest that the
reference commit gave for it (see the README).  A run picks its ops from
the catalogue with ``--seed``: ops come in rounds whose composition by
stratum is fixed, and inside each stratum the entries follow a permutation
drawn from the seed.  Rounds keep the share of slow and refused inputs the
same in every run, so that run-to-run spread measures the program rather
than the draw.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("compute", "realize", "search", "verify")

# ---------------------------------------------------------------------------
# compute: Seifert data

# r = 2..8 with geometric weights; genus 0..2; alpha <= 16, |beta| <= 2 alpha
R_WEIGHTS = {2: 32, 3: 16, 4: 8, 5: 4, 6: 2, 7: 1, 8: 1}
MAX_ALPHA = 16
FLAT_SHARE = 0.25  # eps = 0 data, with the last beta solved
MALFORMED = ("gcd", "alpha1", "array")  # each drawn with probability 1/64
COMPUTE_ROUND = 128  # large enough that every stratum has an op in each round


def _pair(rng: random.Random) -> tuple[int, int]:
    a = rng.randint(2, MAX_ALPHA)
    while True:
        b = rng.randint(-2 * a, 2 * a)
        if b and gcd(a, b) == 1:
            return a, b


def _valid_seifert(rng: random.Random) -> dict:
    while True:
        genus = rng.randint(0, 2)
        r = rng.choices(list(R_WEIGHTS), weights=list(R_WEIGHTS.values()))[0]
        if rng.random() >= FLAT_SHARE:
            pairs = [_pair(rng) for _ in range(r)]
        else:
            pairs = [_pair(rng) for _ in range(r - 1)]
            s = sum(Fraction(b, a) for a, b in pairs)
            if not 2 <= s.denominator <= MAX_ALPHA:
                continue
            pairs.append((s.denominator, -s.numerator))
        return {"genus": genus, "pairs": [list(p) for p in pairs]}


def seifert_input(rng: random.Random) -> tuple[str, object]:
    """(stratum, JSON input) for one ``linkform compute`` call."""
    u = rng.random()
    data = _valid_seifert(rng)
    pairs = data["pairs"]
    i = rng.randrange(len(pairs))
    if u < 1 / 64:  # a pair with gcd(alpha, beta) > 1
        a = rng.choice([4, 6, 8, 9, 10, 12, 14, 15, 16])
        d = next(q for q in range(2, a + 1) if a % q == 0)
        pairs[i] = [a, d * rng.choice([-3, -1, 1, 3])]
        return "gcd", data
    if u < 2 / 64:  # a cone point of order 1
        pairs[i] = [1, pairs[i][1]]
        return "alpha1", data
    if u < 3 / 64:  # the pair list without the enclosing object
        return "array", pairs
    return f"r{len(pairs)}", data


# ---------------------------------------------------------------------------
# realize: standard forms

REALIZE_FAMILIES = ("odd", "two", "gap", "mixed", "refused")
MODES = ("flat", "sphere", "auto")
ODD_PRIMES = (3, 5, 7, 11, 13)


def _two_units(k: int) -> list[int]:
    return [1] if k == 1 else [1, 3] if k == 2 else [1, 3, 5, 7]


def _cyc(rng: random.Random, p: int, k: int) -> dict:
    if p == 2:
        return {"cyc": [2, k, rng.choice(_two_units(k))]}
    while True:
        a = rng.randrange(1, p**k)
        if a % p:
            return {"cyc": [p, k, a]}


def _odd_atoms(rng: random.Random, nprimes: int, rank: int) -> list[dict]:
    primes = rng.sample(ODD_PRIMES, nprimes)
    atoms = [_cyc(rng, p, rng.randint(1, 3 if p <= 7 else 2)) for p in primes]
    while len(atoms) < rank:
        p = rng.choice(primes)
        atoms.append(_cyc(rng, p, rng.randint(1, 3 if p <= 7 else 2)))
    return atoms


def _even_level(rng: random.Random, k: int, npairs: int) -> list[dict]:
    e1 = k >= 2 and rng.random() < 0.5
    return [{"E0": k}] * (npairs - e1) + [{"E1": k}] * e1


def _two_homog(rng: random.Random) -> list[dict]:
    k = rng.randint(1, 3)
    if rng.random() < 0.5:
        return [_cyc(rng, 2, k) for _ in range(rng.randint(1, 4))]
    return _even_level(rng, k, rng.randint(1, 2))


def _gap_stack(rng: random.Random) -> list[dict]:
    """Inhomogeneous 2-part with drops >= 2 and odd lower components."""
    k = rng.randint(3, 6)
    if rng.random() < 0.5:
        atoms = [_cyc(rng, 2, k) for _ in range(rng.randint(1, 2))]
    else:
        atoms = _even_level(rng, k, 1)
    for _ in range(rng.randint(1, 2)):
        k -= rng.randint(2, 3)
        if k < 1:
            break
        atoms += [_cyc(rng, 2, k) for _ in range(rng.randint(1, 2))]
    return atoms


def _refused(rng: random.Random) -> list[dict]:
    k = rng.randint(2, 5)
    top = [_cyc(rng, 2, k) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:  # an even component below the top level
        k2 = rng.randint(1, k - 1)
        return top + _even_level(rng, k2, 1)
    return top + [_cyc(rng, 2, k - 1)]  # gap condition violated


def realize_target(rng: random.Random, family: str) -> dict:
    if family == "odd":
        atoms = _odd_atoms(rng, rng.randint(2, 3), rng.randint(2, 5))
    elif family == "two":
        atoms = _two_homog(rng)
    elif family == "gap":
        atoms = _gap_stack(rng)
    elif family == "mixed":
        two = _two_homog(rng) if rng.random() < 0.7 else _gap_stack(rng)
        atoms = two + _odd_atoms(rng, rng.randint(1, 2), rng.randint(1, 3))
    elif family == "refused":
        atoms = _refused(rng)
    else:
        raise ValueError(family)
    return {"atoms": atoms}


# ---------------------------------------------------------------------------
# search: bound shapes and targets

SEARCH_SHAPES = {
    # many candidates per search; the per-candidate prefilter dominates
    "wide": {"max_r": 4, "max_alpha": 4, "max_beta": 7},
    # more cone points, fewer betas: rank-3 and rank-4 2-groups of exponent 4,
    # where canonical forms often disagree and the brute-force search decides
    "deep": {"max_r": 5, "max_alpha": 4, "max_beta": 3},
    "warm-up": {"max_r": 2, "max_alpha": 3, "max_beta": 2},  # set-up only
}
NIL_CLASS = {"atoms": [{"cyc": [2, 2, 3]}, {"E0": 1}]}
EVEN_EVEN = {"atoms": [{"E0": 2}, {"E0": 1}]}
NIL_PAIRS = [[2, -1], [2, 1], [2, 1], [2, 1]]
SEARCH_TARGETS = {
    "wide": [
        NIL_CLASS,
        EVEN_EVEN,
        {"atoms": [{"cyc": [2, 1, 1]}, {"cyc": [2, 1, 1]}]},
        {"atoms": [{"E1": 2}]},
        {"atoms": [{"cyc": [3, 1, 1]}]},
        {"atoms": [{"E0": 2}, {"cyc": [2, 1, 1]}]},
    ],
    "deep": [
        EVEN_EVEN,
        {"atoms": [{"E0": 2}, {"E0": 2}]},
        {"atoms": [{"E1": 2}, {"E0": 2}]},
        {"atoms": [{"E0": 2}, {"cyc": [2, 2, 1]}, {"cyc": [2, 2, 1]}]},
        {"atoms": [{"E1": 2}, {"cyc": [2, 2, 1]}, {"cyc": [2, 2, 1]}]},
        {"atoms": [{"cyc": [2, 2, 1]}] * 3 + [{"cyc": [2, 2, 3]}]},
    ],
}


def search_argv(shape: str) -> list[str]:
    b = SEARCH_SHAPES[shape]
    return ["--max-r", str(b["max_r"]), "--max-alpha", str(b["max_alpha"]),
            "--max-beta", str(b["max_beta"])]


def search_candidates(max_r: int, max_alpha: int, max_beta: int) -> int:
    """Seifert data the search enumerates: multisets of admissible pairs."""
    pool = sum(
        1
        for a in range(2, max_alpha + 1)
        for b in range(-max_beta, max_beta + 1)
        if b and gcd(a, b) == 1
    )
    return sum(comb(pool + r - 1, r) for r in range(1, max_r + 1))


# ---------------------------------------------------------------------------
# verify: suites and seeds

SUITES = ("thm3", "thm7", "lemma1", "witt", "realize", "structure")
# few seeds, so that the three or four rounds of a run draw nearly the same
# inputs: the seeds of one suite differ in cost by up to a third
SUITE_SEEDS = tuple(range(3))

# ---------------------------------------------------------------------------
# catalogue entries and rounds


def catalogue_entries(workload: str) -> list[dict]:
    """Inputs of the catalogue, before any outcome is recorded."""
    if workload == "compute":
        rng = random.Random(20100401)
        out = []
        for i in range(4096):
            stratum, data = seifert_input(rng)
            out.append({"id": f"c{i}", "stratum": stratum, "input": data})
        return out
    if workload == "realize":
        rng = random.Random(20100402)
        out = []
        for family in REALIZE_FAMILIES:
            for i in range(400):
                target = realize_target(rng, family)
                for mode in MODES:
                    out.append({"id": f"{family}{i}/{mode}", "stratum": f"{family}/{mode}",
                                "input": target, "mode": mode})
        return out
    if workload == "search":
        return [
            {"id": f"{shape}{i}", "stratum": shape, "input": t, "shape": shape}
            for shape, targets in SEARCH_TARGETS.items()
            for i, t in enumerate(targets)
        ]
    if workload == "verify":
        return [
            {"id": f"{suite}@{seed}", "stratum": suite, "suite": suite, "seed": seed}
            for suite in SUITES
            for seed in SUITE_SEEDS
        ]
    raise ValueError(workload)


def catalogue_path(workload: str) -> Path:
    return DATA / f"{workload}.jsonl"


def load_catalogue(workload: str) -> list[dict]:
    with open(catalogue_path(workload)) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def round_plan(entries: list[dict], workload: str) -> dict[str, int]:
    """Ops per stratum in one round."""
    strata: dict[str, int] = {}
    for e in entries:
        strata[e["stratum"]] = strata.get(e["stratum"], 0) + 1
    if workload == "compute":
        # COMPUTE_ROUND ops in the catalogue's own proportions (largest remainder)
        total = len(entries)
        quota = {s: COMPUTE_ROUND * n / total for s, n in strata.items()}
        plan = {s: int(q) for s, q in quota.items()}
        rest = sorted(quota, key=lambda s: (plan[s] - quota[s], s))
        for s in rest[: COMPUTE_ROUND - sum(plan.values())]:
            plan[s] += 1
        return {s: n for s, n in plan.items() if n}
    if workload == "realize":
        weight = {"odd": 2, "two": 2, "gap": 1, "mixed": 2, "refused": 1}
        return {s: weight[s.split("/")[0]] for s in strata}
    if workload == "search":
        # one wide search and every deep target twice: the median op is a deep
        # search, so a run needs many of them for a steady median
        return {"wide": 1, "deep": 2 * strata["deep"]}
    if workload == "verify":
        # lemma1 and realize, whose runs take about the same time, twice: the
        # median op lies among many runs of similar length
        return {s: 2 if s in ("lemma1", "realize") else 1 for s in strata}
    raise ValueError(workload)


class OpStream:
    """Endless seeded sequence of rounds drawn from a catalogue."""

    def __init__(self, entries: list[dict], workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.plan = round_plan(entries, workload)
        self.pools = {s: [e for e in entries if e["stratum"] == s] for s in self.plan}
        self.queues: dict[str, list[dict]] = {s: [] for s in self.plan}

    def _take(self, stratum: str) -> dict:
        queue = self.queues[stratum]
        if not queue:
            queue.extend(self.pools[stratum])
            self.rng.shuffle(queue)
        return queue.pop()

    def next_round(self) -> list[dict]:
        ops = [self._take(s) for s, n in sorted(self.plan.items()) for _ in range(n)]
        self.rng.shuffle(ops)
        return ops
