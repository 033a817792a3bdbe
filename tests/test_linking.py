import random
from fractions import Fraction

import pytest

from linkform.arith import ext_gcd
from linkform.errors import UnsupportedError
from linkform.linking import (
    GramPairing,
    element_table,
    elements,
    eval_pair,
    gram_matrix,
    integer_gram,
    self_link_profile,
    welldefined_check,
)
from linkform.seifert import euler_invariant, reorder_at_prime, seifert
from linkform.verify import RunConfig, rand_seifert

NIL = seifert((2, 1), (2, 1), (2, 1), (2, -1))


def test_nil_gram_exact_values():
    G = gram_matrix(NIL, 2)
    assert G.labels == ("q3'", "q4'", "s")
    assert G.orders == (2, 2, 4)
    h = Fraction(1, 2)
    assert G.gram == (
        (0, h, h),
        (h, 0, h),
        (h, h, Fraction(3, 4)),
    )


def test_nil_gram_json():
    assert gram_matrix(NIL, 2).to_json() == {
        "prime": 2,
        "labels": ["q3'", "q4'", "s"],
        "orders": [2, 2, 4],
        "gram": [
            ["0", "1/2", "1/2"],
            ["1/2", "0", "1/2"],
            ["1/2", "1/2", "3/4"],
        ],
    }
    G = GramPairing.from_json(gram_matrix(NIL, 2).to_json())
    assert G == gram_matrix(NIL, 2)


def test_flat_rank4_gram():
    S = seifert((9, 1), (9, 1), (9, 1), (9, -1), (9, -1), (9, -1))
    G = gram_matrix(S, 3)
    assert G.orders == (9, 9, 9, 9)
    # third pair has beta=1, later ones beta=-1
    assert G.gram[0][0] == Fraction(7, 9)  # -2/9 reduced to [0,1)
    assert G.gram[1][1] == 0 and G.gram[2][2] == 0 and G.gram[3][3] == 0
    # off-diagonal entries are -beta_i beta_j / 9
    assert G.gram[0][1] == Fraction(1, 9)
    assert G.gram[1][2] == Fraction(8, 9)


def test_trivial_pairing_when_prime_absent():
    S = seifert((3, 1), (3, -1))
    G = gram_matrix(S, 5)
    assert G.is_trivial()
    assert welldefined_check(G) == []


def test_rank1_refused():
    with pytest.raises(UnsupportedError):
        gram_matrix(seifert((5, 2)), 5)


def test_welldefined_violation_detected():
    bad = GramPairing(
        3, ("x", "y"), (2, 2), ((Fraction(1, 3), 0), (0, Fraction(1, 2)))
    )
    assert any("not an integer" in v for v in welldefined_check(bad))


def test_welldefined_random_batch():
    rng = random.Random(99)
    cfg = RunConfig(seed=0, max_r=5, max_alpha=10, max_beta=7)
    checked = 0
    while checked < 60:
        S = rand_seifert(rng, cfg)
        if S.r < 2:
            continue
        from linkform.seifert import relevant_primes

        for p in relevant_primes(S):
            assert welldefined_check(gram_matrix(S, p)) == [], (S, p)
        checked += 1


def _radical_is_nontrivial(G):
    gens = [tuple(int(i == j) for i in range(G.rank)) for j in range(G.rank)]
    return any(
        any(x) and all(eval_pair(G, x, e) == 0 for e in gens)
        for x in elements(G.orders)
    )


def test_welldefined_singular_matches_element_oracle():
    # random well-defined Gram pairings of order <= 1000, singular or not
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    while sum(seen.values()) < 150:
        p = rng.choice([2, 3, 5])
        ks = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        if p ** sum(ks) > 1000:
            continue
        r = len(ks)
        gram = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                q = p ** min(ks[i], ks[j])
                gram[i][j] = gram[j][i] = Fraction(rng.randrange(q), q)
        G = GramPairing(
            p,
            tuple(f"e{i + 1}" for i in range(r)),
            tuple(p**k for k in ks),
            tuple(map(tuple, gram)),
        )
        diagnostics = welldefined_check(G)
        singular = _radical_is_nontrivial(G)
        assert bool(diagnostics) == singular, (G, diagnostics)
        assert all(d.startswith("singular") for d in diagnostics)
        seen[singular] += 1
    assert min(seen.values()) > 20, seen


def test_bezout_choice_does_not_change_gram():
    # l(s,s) changes by an exact integer under any other valid Bezout pair
    S = seifert((9, -4), (3, 1))
    Sp, _ = reorder_at_prime(S, 3)
    a1 = Sp.pairs[0][0]
    a2, b2 = Sp.pairs[1]
    eps = euler_invariant(S)
    _, m, n = ext_gcd(a2, b2)
    base = gram_matrix(S, 3).gram[0][0]
    for t in (-2, -1, 1, 2):
        n2 = n - a2 * t  # another valid choice, paired with m + b2*t
        assert (m + b2 * t) * a2 + n2 * b2 == 1
        val = -(a1 + n2 * a1 * a2 * eps) / (Fraction(a1) * a2 * a2 * eps)
        assert val % 1 == base


def test_gram_independent_of_genus():
    S0 = seifert((2, 1), (2, 1), (2, 1), (2, -1), genus=0)
    S2 = seifert((2, 1), (2, 1), (2, 1), (2, -1), genus=2)
    assert gram_matrix(S0, 2).gram == gram_matrix(S2, 2).gram


def test_torsion_sourced_from_euler_numerator():
    # no cone order is divisible by 3, yet eps = -12/25 brings 3-torsion
    S = seifert((25, 7), (5, 1))
    G = gram_matrix(S, 3)
    assert G.labels == ("s",) and G.orders == (3,)
    assert G.gram[0][0] == Fraction(1, 3)
    assert welldefined_check(G) == []


def test_element_helpers():
    G = gram_matrix(NIL, 2)
    table = element_table(*integer_gram(G), G.orders)
    assert [x for x, _, _ in table] == list(elements(G.orders))
    order = {x: o for x, o, _ in table}
    assert order[(1, 0, 0)] == 2
    assert order[(0, 0, 1)] == 4
    assert order[(1, 1, 2)] == 2
    assert eval_pair(G, (1, 1, 0), (1, 1, 0)) == 0  # 0 + 0 + 2*(1/2) = 1 = 0
    prof = self_link_profile(G)
    assert sum(prof.values()) == 16
