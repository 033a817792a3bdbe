import random
from fractions import Fraction
from math import lcm, prod

import pytest

import linkform.torsion as torsion
from linkform.arith import ext_gcd, fmt_rational
from linkform.errors import InvalidDataError, UnsupportedError
from linkform.linking import (
    GramPairing,
    element_table,
    gram_matrix,
    self_link_profile,
    welldefined_check,
)
from linkform.seifert import euler_invariant, seifert
from linkform.verify import RunConfig, rand_seifert
from support import elements, eval_pair, reference_element_table, reorder_at_prime

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
    assert not G.orders
    assert welldefined_check(G) == []


def test_trivial_prime_gives_the_empty_pairing_without_a_bezout_pair(monkeypatch):
    def refuse(a, b):
        raise AssertionError("ext_gcd called")

    monkeypatch.setattr(torsion, "ext_gcd", refuse)  # the record computes it
    S = seifert((2, 1), (3, 1))  # H_1 = Z/5: 2 and 3 are relevant, with trivial parts
    for p in (2, 3):
        G = gram_matrix(S, p)
        assert (G.labels, G.orders, G.matrix) == ((), (), ())
    # without s (eps = 0) the q_i' need no Bezout pair either
    assert gram_matrix(seifert((2, 1), (2, -1), (2, 1), (2, -1)), 2).orders == (2, 2)


def test_gram_json_is_the_fraction_view_formatted():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        ks = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            ks = [1] * len(ks)  # N = p
        N = p ** max(ks)
        n = len(ks)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                # a value of order dividing both generator orders: a multiple of N/q
                q = p ** min(ks[i], ks[j])
                x = rng.choice((0, rng.randrange(q))) * (N // q)
                matrix[i][j] = matrix[j][i] = x
        G = GramPairing(p, tuple(f"g{i}" for i in range(n)), tuple(p**k for k in ks),
                        tuple(map(tuple, matrix)))
        expected = [[fmt_rational(x) for x in row] for row in G.gram]
        assert G.to_json()["gram"] == expected


def test_rank1_refused():
    with pytest.raises(UnsupportedError):
        gram_matrix(seifert((5, 2)), 5)


def test_welldefined_violation_detected():
    # l(x, x) = 1/4 on a generator x of order 2: N = 4 holds it, 2 * 1/4 does
    # not vanish, so the pairing is refused where it is built
    message = r"order 2 \* entry \(0,0\) = 1/2 is not an integer"
    with pytest.raises(InvalidDataError, match=message):
        GramPairing(2, ("x", "y"), (2, 4), ((1, 0), (0, 1)))
    # what is left to diagnose is singularity: l(x, -) = 0 on that x
    singular = GramPairing(2, ("x", "y"), (2, 4), ((0, 0), (0, 1)))
    assert welldefined_check(singular) == [
        "singular: singular pairing: top block of order 2 has determinant divisible by 2"
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        # order 6 at p = 2: read as Z/2, it classified as Cyc(2,1,1)
        ((2, ("x",), (6,), ((1,),)), "order 6 is not a power of 2"),
        # two rows and labels for one order: it classified as a rank-1 form
        ((3, ("x", "y"), (9,), ((1, 0), (0, 1))), "one label and one row"),
        # a short row: block_diagonalize escaped with an IndexError
        ((3, ("x", "y"), (9, 3), ((1, 0), (0,))), "one label and one row"),
        ((3, ("x", "y"), (9, 9), ((1,), (0, 1))), "one label and one row"),
        ((3, ("x",), (9,), ((1,), (0,))), "one label and one row"),
        ((3, ("x", "y"), (9, 3), ((1, 0),)), "one label and one row"),
        ((3, ("x",), (9, 3), ((1, 0), (0, 1))), "one label and one row"),
        ((4, ("x",), (4,), ((1,),)), "prime 4 is not a prime"),
        ((1, ("x",), (1,), ((0,),)), "prime 1 is not a prime"),
        ((3, ("x",), (0,), ((0,),)), "order 0 is not a power of 3"),
        ((3, ("x",), (-3,), ((1,),)), "order -3 is not a power of 3"),
    ],
)
def test_hand_built_pairing_validated_at_construction(args, message):
    with pytest.raises(InvalidDataError, match=message):
        GramPairing(*args)


def test_pairing_shapes_that_stay_valid():
    # the trivial pairing and generators of order 1 = p^0 keep their shape
    assert GramPairing(5, (), (), ()).rank == 0
    assert GramPairing(3, ("x", "y"), (1, 3), ((0, 0), (0, 1))).orders == (1, 3)


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
        r, N = len(ks), p ** max(ks)
        matrix = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                q = p ** min(ks[i], ks[j])
                matrix[i][j] = matrix[j][i] = rng.randrange(q) * (N // q)
        G = GramPairing(
            p,
            tuple(f"e{i + 1}" for i in range(r)),
            tuple(p**k for k in ks),
            tuple(map(tuple, matrix)),
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
    table = element_table(G.modulus, G.matrix, G.orders)
    assert [x for x, _, _ in table] == list(elements(G.orders))
    order = {x: o for x, o, _ in table}
    assert order[(1, 0, 0)] == 2
    assert order[(0, 0, 1)] == 4
    assert order[(1, 1, 2)] == 2
    assert eval_pair(G, (1, 1, 0), (1, 1, 0)) == 0  # 0 + 0 + 2*(1/2) = 1 = 0
    prof = self_link_profile(G)
    assert sum(prof.values()) == 16


def test_element_table_matches_the_prefix_tuple_reference():
    # the integer odometer returns the reference's list entry for entry: the
    # class order, the brute-force search order, its first witness and the
    # metabolizer's pool order all follow it
    rng = random.Random(30)
    mixed = 0
    for trial in range(270):
        p, r, kind = (2, 3, 5)[trial % 3], trial % 6, ("random", "zero", "rank one")[trial // 6 % 3]
        orders = [p ** rng.randrange(3) for _ in range(r)]
        while prod(orders) > 2**11:
            orders[rng.randrange(r)] = 1
        N = max(orders, default=1)
        v = [rng.randrange(N) for _ in range(r)]
        A = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                entry = {"random": rng.randrange(N), "zero": 0, "rank one": v[i] * v[j] % N}
                A[i][j] = A[j][i] = entry[kind]
        assert element_table(N, A, orders) == reference_element_table(N, A, orders), (orders, A)
        mixed += len(set(orders)) > 1
    assert mixed >= 100
    # raw orders that are not powers of one prime: an order is an lcm, not a max
    for orders in ((2, 3), (6, 4, 3)):
        N = lcm(*orders)
        A = [[(i + j + 1) % N for j in orders] for i in orders]
        assert element_table(N, A, orders) == reference_element_table(N, A, orders)


def test_element_classes_group_the_element_table():
    # the class map is element_table grouped by (order, N l(x, x)), each class
    # in lexicographic order, built once and kept on the pairing
    rng = random.Random(29)
    cfg = RunConfig(max_r=5, max_alpha=12)
    pairings = [gram_matrix(NIL, 2)]
    while len(pairings) < 80:
        S = rand_seifert(rng, cfg)
        if S.r >= 2:
            G = gram_matrix(S, rng.choice([2, 3]))
            if 1 < G.group_order() <= 2**10:
                pairings.append(G)
    for G in pairings:
        want = {}
        for x, o, q in element_table(G.modulus, G.matrix, G.orders):
            want.setdefault((o, q), []).append(x)
        assert G.element_classes == want, G
        assert all(xs == sorted(xs) for xs in G.element_classes.values())
        assert G.element_classes is G.element_classes
        N = G.modulus
        assert self_link_profile(G) == {
            (o, Fraction(q, N)): len(xs) for (o, q), xs in want.items()
        }
    assert len({G.prime for G in pairings}) == 2
    assert sum(len(set(G.orders)) > 1 for G in pairings) >= 5
