"""The integer element oracles agree with a Fraction reference.

The reference below evaluates every element on Fractions, exactly as the
oracles did before they moved to integers mod N; the integer versions must
return the same profiles, verdicts, witnesses and metabolizers.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from linkform import verify
from linkform.errors import InvalidDataError
from linkform.linking import (
    GramPairing,
    elements,
    eval_pair,
    gram_matrix,
    integer_gram,
    self_link_profile,
)
from linkform.pairing import brute_force_isomorphic, shuffle_basis
from linkform.seifert import SeifertData, seifert
from linkform.verify import RunConfig, run_suite
from linkform.witt import metabolic_oracle

# ---------------------------------------------------------------------------
# Fraction reference


def ref_eval_pair(G, x, y):
    total = Fraction(0)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = G.gram[i]
        for j, yj in enumerate(y):
            if yj:
                total += xi * yj * row[j]
    return total % 1


def ref_element_order(orders, x):
    o = 1
    for n, xi in zip(orders, x):
        if xi:
            o = lcm(o, n // gcd(n, xi))
    return o


def ref_self_link_profile(G):
    return Counter(
        (ref_element_order(G.orders, x), ref_eval_pair(G, x, x))
        for x in elements(G.orders)
    )


def _closure(images, orders):
    seen = {tuple([0] * len(orders))}
    for img in images:
        for base in list(seen):
            x = base
            while True:
                x = tuple((a + b) % n for a, b, n in zip(x, img, orders))
                if x in seen:
                    break
                seen.add(x)
    return seen


def ref_brute_force_isomorphic(G1, G2):
    if sorted(G1.orders) != sorted(G2.orders):
        return False, None
    if ref_self_link_profile(G1) != ref_self_link_profile(G2):
        return False, None
    by_order = {}
    for x in elements(G2.orders):
        by_order.setdefault(ref_element_order(G2.orders, x), []).append(x)
    assignment = []

    def extend(i):
        if i == G1.rank:
            return len(_closure(assignment, G2.orders)) == G1.group_order()
        for y in by_order.get(G1.orders[i], ()):
            if ref_eval_pair(G2, y, y) != G1.gram[i][i]:
                continue
            if any(ref_eval_pair(G2, y, assignment[j]) != G1.gram[i][j] for j in range(i)):
                continue
            assignment.append(y)
            if extend(i + 1):
                return True
            assignment.pop()
        return False

    if extend(0):
        return True, {G1.labels[i]: list(assignment[i]) for i in range(G1.rank)}
    return False, None


def ref_metabolic_oracle(G):
    size = G.group_order()
    root = isqrt(size)
    if root * root != size:
        return False, None
    if size == 1:
        return True, []
    pool = [x for x in elements(G.orders) if any(x)]

    def extend(gens, sub, start):
        if len(sub) == root:
            return list(gens)
        if len(sub) > root:
            return None
        for idx in range(start, len(pool)):
            x = pool[idx]
            if x in sub or ref_eval_pair(G, x, x) != 0:
                continue
            if any(ref_eval_pair(G, x, g) != 0 for g in gens):
                continue
            new_sub = _closure(gens + [x], G.orders)
            if root % len(new_sub) == 0 or len(new_sub) == root:
                found = extend(gens + [x], new_sub, idx + 1)
                if found is not None:
                    return found
        return None

    found = extend([], {tuple([0] * G.rank)}, 0)
    if found is None:
        return False, None
    return True, [list(g) for g in found]


# ---------------------------------------------------------------------------
# agreement


def _random_pairings(seed, count, max_order):
    """gram_matrix(S, p) for p in {2, 3, 5}, cone orders p^k * u with mixed
    k, and a basis-shuffled image of each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice([2, 3, 5])
        pairs = []
        for _ in range(rng.randint(2, 5)):
            a = max(2, p ** rng.randint(0, 3) * rng.choice([1, 1, 7, 11]))
            b = rng.choice([b for b in range(-9, 10) if b and gcd(a, b) == 1])
            pairs.append((a, b))
        G = gram_matrix(SeifertData(0, tuple(pairs)), p)
        if 1 < G.group_order() <= max_order:
            out.append((G, shuffle_basis(G, rng)))
    return out


def test_profiles_match_the_fraction_reference():
    pairs = _random_pairings(61, 150, 2**9)
    primes, mixed = set(), 0
    for G, H in pairs:
        primes.add(G.prime)
        mixed += len(set(G.orders)) > 1
        want = ref_self_link_profile(G)
        assert self_link_profile(G) == want, G
        assert self_link_profile(H) == ref_self_link_profile(H) == want, H
    assert primes == {2, 3, 5} and mixed >= 30


def test_eval_pair_matches_the_fraction_reference():
    rng = random.Random(5)
    for G, H in _random_pairings(62, 40, 2**9):
        for _ in range(20):
            x = tuple(rng.randrange(n) for n in H.orders)
            y = tuple(rng.randrange(n) for n in H.orders)
            assert eval_pair(H, x, y) == ref_eval_pair(H, x, y)


def test_brute_force_matches_the_fraction_reference_on_random_pairings():
    pairs = _random_pairings(63, 40, 2**8)
    for (G, H), (G2, _) in zip(pairs, pairs[1:] + pairs[:1]):
        assert brute_force_isomorphic(G, H) == ref_brute_force_isomorphic(G, H)
        assert brute_force_isomorphic(G, G2) == ref_brute_force_isomorphic(G, G2)


@pytest.mark.parametrize("suite", ["thm7", "lemma1"])
def test_brute_force_matches_the_fraction_reference_on_suite_inputs(suite, monkeypatch):
    calls = []

    def both(G1, G2, *, bound):
        got = brute_force_isomorphic(G1, G2, bound=bound)
        assert got == ref_brute_force_isomorphic(G1, G2), (G1, G2)
        calls.append(got[0])
        return got

    monkeypatch.setattr(verify, "brute_force_isomorphic", both)
    assert run_suite(suite, RunConfig(seed=0))["ok"]
    assert len(calls) >= 100 and True in calls
    if suite == "thm7":
        assert False in calls  # both verdicts are exercised


def test_metabolizers_match_the_fraction_reference_on_witt_forms(monkeypatch):
    calls = []

    def both(G, *, bound):
        got = metabolic_oracle(G, bound=bound)
        assert got == ref_metabolic_oracle(G), G
        calls.append(got)
        return got

    monkeypatch.setattr(verify, "metabolic_oracle", both)
    assert run_suite("witt", RunConfig(seed=0))["ok"]
    assert len(calls) >= 10 and all(found and gens for found, gens in calls)


def test_entry_off_the_one_over_n_grid_is_refused():
    # N = 2, but the entry 1/4 is not a multiple of 1/2: never reduced
    G = GramPairing(
        2,
        ("e1", "e2"),
        (2, 2),
        ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))),
    )
    for check in (
        integer_gram,
        self_link_profile,
        lambda G: eval_pair(G, (1, 0), (1, 0)),
        lambda G: brute_force_isomorphic(G, G),
        metabolic_oracle,
    ):
        with pytest.raises(InvalidDataError, match="not a multiple of 1/2"):
            check(G)


def test_integer_gram_scales_by_the_largest_order():
    G = gram_matrix(seifert((2, 1), (2, 1), (2, 1), (2, -1)), 2)  # Nil
    assert integer_gram(G) == (4, [[0, 2, 2], [2, 0, 2], [2, 2, 3]])
