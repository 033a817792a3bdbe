"""The integer element oracles agree with a Fraction reference.

The reference below evaluates every element on Fractions, exactly as the
oracles did before they moved to integers mod N; the integer versions must
return the same profiles, verdicts, witnesses and metabolizers.
"""

import random
import signal
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from linkform import verify
from linkform.arith import p_part
from linkform.errors import InvalidDataError
from linkform.linking import (
    GramPairing,
    gram_matrix,
    self_link_profile,
)
from linkform.pairing import E0, StandardForm, brute_force_isomorphic, standard_form_gram
from linkform.seifert import SeifertData, seifert
from linkform.verify import RunConfig, run_suite
from linkform.witt import metabolic_oracle
from support import elements, eval_pair, shuffle_basis

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


def test_brute_force_on_equal_copies_matches_the_fraction_reference():
    # equal but distinct pairings share one enumeration (their class map)
    for G, H in _random_pairings(65, 40, 2**8):
        for A in (G, H):
            copy = GramPairing(A.prime, A.labels, A.orders, A.matrix)
            assert copy == A and copy is not A
            got = brute_force_isomorphic(A, copy)
            assert got == ref_brute_force_isomorphic(A, copy), A
            assert got[0] and "element_classes" not in vars(A), A


def test_brute_force_answers_large_self_comparisons_quickly():
    # E0(2)^3 has order 4096.  On the zero pairing of (Z/2)^6 every
    # assignment keeps the values, so a search that tested generation only
    # at complete assignments walked through dependent ones for minutes;
    # images that depend mod 2 on those already chosen are now skipped as
    # they come.  The alarm turns a regression into a failure, not a hang.
    E = standard_form_gram(StandardForm([E0(2)] * 3), 2)
    zero = GramPairing(2, tuple(f"e{i}" for i in range(6)), (2,) * 6, ((0,) * 6,) * 6)

    def stop(signum, frame):
        raise TimeoutError("brute_force_isomorphic took over 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        for G in (E, zero):
            copy = GramPairing(G.prime, G.labels, G.orders, G.matrix)
            assert brute_force_isomorphic(G, G, bound=2**12)[0]
            assert brute_force_isomorphic(G, copy, bound=2**12)[0]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.slow
def test_brute_force_matches_the_fraction_reference_at_order_2_12():
    # about 15 s, nearly all in the reference; run with pytest -m slow.
    # 2-primary pairings of order 2^12 with three to seven cone points of
    # orders 2^k u (k <= 3), each against a basis-shuffled image
    rng = random.Random(66)
    shapes = set()
    while len(shapes) < 6:
        pairs = []
        for _ in range(rng.randint(3, 7)):
            a = 2 ** rng.randint(1, 3) * rng.choice([1, 1, 3, 5])
            b = rng.choice([b for b in range(-9, 10) if b and gcd(a, b) == 1])
            pairs.append((a, b))
        G = gram_matrix(SeifertData(0, tuple(pairs)), 2)
        if G.group_order() != 2**12:
            continue
        H = shuffle_basis(G, rng)
        got = brute_force_isomorphic(G, H, bound=2**12)
        assert got[0] and got == ref_brute_force_isomorphic(G, H), (G, H)
        shapes.add(G.orders)
    assert max(len(orders) for orders in shapes) >= 6


def _random_degenerate_pairing(rng):
    """A random symmetric pairing on a 2-group of order <= 2^6 or a 3-group
    of order <= 3^4, mostly singular (the only inputs on which a complete
    value-preserving assignment can fail to generate), some generators of
    order 1."""
    p = rng.choice([2, 3])
    ks = [rng.randint(0, 2) for _ in range(rng.randint(1, 3 if p == 2 else 2))]
    N = p ** max(ks)
    matrix = [[0] * len(ks) for _ in ks]
    for i, ki in enumerate(ks):
        for j in range(i, len(ks)):
            q = p ** min(ki, ks[j])
            matrix[i][j] = matrix[j][i] = rng.randrange(q) * (N // q)
    labels = tuple(f"e{i + 1}" for i in range(len(ks)))
    return GramPairing(p, labels, tuple(p**k for k in ks), tuple(map(tuple, matrix)))


def test_brute_force_generation_test_matches_the_closure_on_degenerate_pairings():
    # the determinant test mod p (Burnside) decides generation like the closure
    rng = random.Random(64)
    verdicts = Counter()
    for _ in range(200):
        G = _random_degenerate_pairing(rng)
        for H in (shuffle_basis(G, rng), _random_degenerate_pairing(rng)):
            got = brute_force_isomorphic(G, H)
            assert got == ref_brute_force_isomorphic(G, H), (G, H)
            verdicts[got[0], 1 in G.orders] += 1
    assert min(verdicts.values()) >= 10, verdicts


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
    # a value whose p-part has order above N is refused, never reduced
    for x, p, N in ((Fraction(1, 4), 2, 2), (Fraction(5, 18), 3, 3), (Fraction(7, 24), 2, 4)):
        with pytest.raises(InvalidDataError, match=f"not a multiple of 1/{N}"):
            p_part(x.numerator, x.denominator, p, N)
    assert p_part(7, 24, 2, 8) == 5  # 7/24 = 5/8 + 2/3 mod 1


def test_gram_matrix_scales_by_the_largest_order():
    G = gram_matrix(seifert((2, 1), (2, 1), (2, 1), (2, -1)), 2)  # Nil
    assert G.modulus == 4
    assert G.matrix == ((0, 2, 2), (2, 0, 2), (2, 2, 3))
