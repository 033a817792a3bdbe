import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linkform.cli import main
from linkform.errors import InvalidDataError, UnsupportedError
from linkform.linking import gram_matrix
from linkform.pairing import local_invariant_from_data
from linkform.seifert import SeifertData, euler_invariant, seifert
from linkform.torsion import (
    local_orders,
    presentation_matrix,
    smith_normal_form,
    structure_check,
    torsion_order,
    unsupported_r1_pairing,
)
from support import rand_block_seifert, reference_smith_normal_form, reorder_at_prime

CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "compute.jsonl"


def _det(M):
    n = len(M)
    if n == 0:
        return 1
    M = [list(r) for r in M]
    from fractions import Fraction

    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if A[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            A[i], A[piv] = A[piv], A[i]
            det = -det
        det *= A[i][i]
        inv = 1 / A[i][i]
        for r in range(i + 1, n):
            f = A[r][i] * inv
            A[r] = [x - f * y for x, y in zip(A[r], A[i])]
    return det


def test_presentation_examples():
    P = presentation_matrix(seifert((2, 1), (2, 1)))
    assert P == ((1, 1, 0), (2, 0, 1), (0, 2, 1))
    P = presentation_matrix(seifert((5, 2)))
    assert P == ((1, 0), (5, 2))
    P = presentation_matrix(seifert((3, 1), (3, 1), (3, -2)))
    assert len(P) == 4 and len(P[0]) == 4


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)


def test_snf_last_factor_equal_to_the_minor():
    # the factor is D itself, so the diagonal entry is 0 mod D
    assert smith_normal_form([[5]]) == (5,)
    assert smith_normal_form([[0, 5]]) == (5,)
    assert smith_normal_form([[5], [0]]) == (5,)
    assert smith_normal_form([[1, 0], [0, 6]]) == (1, 6)
    assert smith_normal_form([[0]]) == (0,)
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == (0, 0)


def _catalogue_presentations():
    for line in CATALOGUE.read_text().splitlines():
        doc = json.loads(line)["input"]
        try:
            yield presentation_matrix(SeifertData.from_json(doc))
        except (InvalidDataError, AttributeError):  # malformed entries
            continue


def _sparse_matrix(rng, m, n):
    matrix = [[rng.choice((0, 0, 0, rng.randint(-30, 30))) for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.4:  # rank-deficient: a dependent last row
        c = rng.randint(-3, 3)
        matrix[-1] = [x + c * y for x, y in zip(matrix[0], matrix[1 % (m - 1)])]
    return matrix


def test_snf_matches_the_reference_algorithm():
    rng = random.Random(18)
    matrices = list(_catalogue_presentations())
    assert len(matrices) > 3800
    for flat in (True, False):
        for _ in range(200):
            S = rand_block_seifert(rng, flat, max_r=12, max_alpha=10**4)
            matrices.append(presentation_matrix(S))
    for _ in range(1500):
        matrices.append(_sparse_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)))
    for matrix in matrices:
        assert smith_normal_form(matrix) == reference_smith_normal_form(matrix), matrix


def _determinantal_divisors_snf(matrix):
    """Smith diagonal from d_1...d_k = gcd of all k x k minors."""
    m, n = len(matrix), len(matrix[0])
    diag, prev = [], 1
    for k in range(1, min(m, n) + 1):
        Dk = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                Dk = gcd(Dk, int(_det([[matrix[i][j] for j in cols] for i in rows])))
        diag.append(Dk // prev if Dk else 0)
        prev = Dk
    return tuple(diag)


def _check_chain(diagonal):
    nonzero = [d for d in diagonal if d != 0]
    assert list(diagonal) == nonzero + [0] * (len(diagonal) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(d >= 0 for d in diagonal)


@settings(max_examples=100)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_transforms_random(m, n, data):
    # rectangular, sparse and, through a dependent last row, singular matrices
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 2 and data.draw(st.booleans()):
        c = data.draw(st.integers(-3, 3))
        matrix[-1] = [x + c * y for x, y in zip(matrix[0], matrix[1 % (m - 1)])]
    snf = smith_normal_form(matrix)
    assert snf == _determinantal_divisors_snf(matrix)
    _check_chain(snf)


def _coprime_pairs(rng, count, max_alpha):
    pairs = []
    while len(pairs) < count:
        a, b = rng.randint(2, max_alpha), rng.randint(-max_alpha, max_alpha)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    return pairs


def test_compute_r7_finishes(tmp_path, capsys, time_budget):
    # the Smith form of this input used to grow past 4300 digits and hang
    path = tmp_path / "r7.json"
    pairs = [[28, 1], [12, 1], [6, 1], [15, 1], [15, 1], [18, 1], [10, 1]]
    path.write_text(json.dumps({"genus": 0, "pairs": pairs}))
    with time_budget(20):
        code = main(["compute", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["structure"]["ok"] is True


def test_compute_r14_large_euler_numerator_finishes(tmp_path, capsys, time_budget):
    # the Euler numerator has 25 digits; trial division used to hang on it
    S = seifert(*_coprime_pairs(random.Random(14), 14, 1000))
    assert len(str(euler_invariant(S).numerator)) == 25
    path = tmp_path / "r14.json"
    path.write_text(json.dumps(S.to_json()))
    with time_budget(20):
        code = main(["compute", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["structure"]["ok"] is True


@pytest.mark.parametrize("r", [20, 40])
def test_snf_large_presentations(r, time_budget):
    rng = random.Random(r)
    for _ in range(3):
        S = seifert(*_coprime_pairs(rng, r, 1000))
        eps = euler_invariant(S)
        if eps == 0:
            continue
        with time_budget(20):
            diag = smith_normal_form(presentation_matrix(S))
        assert prod(diag) == abs(prod(a for a, _ in S.pairs) * eps)
        _check_chain(diag)


def test_structure_check_flat_large(time_budget):
    # eps = 0 data from (a, b), (a, -b) pairs: free rank 1 and no Euler-number
    # primes, so every relevant prime divides a cone point order
    rng = random.Random(40)
    for half in (5, 10, 20):
        pairs = _coprime_pairs(rng, half, 1000)
        pairs += [(a, -b) for a, b in pairs]
        rng.shuffle(pairs)
        S = seifert(*pairs)
        with time_budget(20):
            assert structure_check(S)["ok"], S


def test_local_orders_nil():
    dec = local_orders(seifert((2, 1), (2, 1), (2, 1), (2, -1)), 2)
    assert dict(dec.orders) == {"q3'": 2, "q4'": 2, "s": 4}
    assert dec.free_rank == 0


def test_local_orders_flat_rank4():
    S = seifert((9, 1), (9, 1), (9, 1), (9, -1), (9, -1), (9, -1))
    dec = local_orders(S, 3)
    assert dec.order_multiset() == (9, 9, 9, 9)
    assert dec.free_rank == 1


def test_local_orders_sphere_example():
    dec = local_orders(seifert((9, 7), (3, -1), (3, -1)), 3)
    assert dict(dec.orders) == {"q3'": 3, "s": 3}
    assert dec.free_rank == 0


def test_local_orders_r1():
    dec = local_orders(seifert((5, 3)), 3)
    assert dict(dec.orders) == {"h": 3}
    assert dec.pairs == ((5, 3),) and dec.eps == Fraction(-3, 5)
    assert local_orders(seifert((5, 3)), 5).orders == ()
    with pytest.raises(UnsupportedError, match="r = 1 space .* is not computed"):
        unsupported_r1_pairing(seifert((5, 3)))


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(2, 36), st.integers(-20, 20)).filter(
            lambda ab: gcd(*ab) == 1
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([2, 3, 5, 7]),
)
def test_local_orders_record_matches_reorder_and_euler(pairs, p):
    # the per-prime record carries the data reordered at p and eps, for r = 1
    # (where no reordering happens) as for r >= 2
    S = seifert(*pairs)
    seen = (hash(S), repr(S), S.to_json())
    dec = local_orders(S, p)
    assert dec.pairs == reorder_at_prime(S, p)[0].pairs
    assert dec.eps == euler_invariant(S)
    # kept once per (S, p) in the instance __dict__, outside the fields
    assert local_orders(S, p) is dec and vars(S)["local"] == {p: dec}
    assert (hash(S), repr(S), S.to_json()) == seen


def test_structure_examples():
    assert structure_check(seifert((2, 1), (2, 1), (2, 1), (2, -1)))["ok"]
    rep = structure_check(seifert((9, 7), (3, -1), (3, -1)))
    assert rep["ok"] and rep["free_rank"] == 0
    rep = structure_check(seifert((3, 1), (3, 1), (3, -2), genus=1))
    assert rep["ok"] and rep["free_rank"] == 3


def test_structure_random_batch():
    rng = random.Random(4242)
    from linkform.verify import RunConfig, rand_seifert

    cfg = RunConfig(seed=0, max_r=5, max_alpha=12, max_beta=9)
    for _ in range(150):
        S = rand_seifert(rng, cfg)
        assert structure_check(S)["ok"], S


def test_local_orders_permutation_invariant():
    rng = random.Random(7)
    S = seifert((4, 1), (6, 1), (9, 2), (8, 3), (5, -4))
    base = {p: local_orders(S, p).order_multiset() for p in (2, 3, 5)}
    pairs = list(S.pairs)
    for _ in range(5):
        rng.shuffle(pairs)
        T = seifert(*pairs)
        for p in (2, 3, 5):
            assert local_orders(T, p).order_multiset() == base[p]


def test_homogeneity_cross_check_flat_case():
    # eps = 0 with all cone orders of equal p-valuation forces homogeneous
    # p-torsion of that exponent; checked directly from the computed orders
    rng = random.Random(61)
    from linkform.verify import rand_flat_homogeneous

    for _ in range(40):
        p = rng.choice([2, 3, 5])
        S = rand_flat_homogeneous(rng, p, kmax=3, rpmax=6)
        dec = local_orders(S, p)
        assert len({n for _, n in dec.orders}) == 1, S


@pytest.mark.parametrize("p", [1, 0, -3, 6, 9])
@pytest.mark.parametrize("read", [local_orders, gram_matrix, local_invariant_from_data])
def test_a_non_prime_is_refused_by_every_p_local_function(p, read, time_budget):
    # p = 1 used to hang in padic_val, p = 0 to divide by zero, p = -3 to
    # give negative orders and p = 6, 9 to give records with composite orders
    for S in (seifert((6, 1), (6, 1), (6, -1)), seifert((9, 1), (9, 1), (9, -2))):
        with time_budget(5), pytest.raises(InvalidDataError, match="not a prime"):
            read(S, p)
        assert p not in S.local


def test_homogeneity_cross_check_two_cone_points():
    # r_p <= 2 with eps != 0: the torsion is the single cyclic piece from
    # the extra generator, homogeneous by definition
    S = seifert((9, -4), (3, 1))
    dec = local_orders(S, 3)
    assert dec.orders == (("s", 3),)


def test_torsion_order_matches_snf():
    S = seifert((4, 1), (6, 1), (9, 2), (8, 3), (5, -4))
    snf = smith_normal_form(presentation_matrix(S))
    prod = 1
    for d in snf:
        if d:
            prod *= d
    assert torsion_order(S) == prod


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(2, 60), st.integers(-60, 60)).filter(
            lambda ab: gcd(*ab) == 1
        ),
        min_size=2,
        max_size=7,
    ).filter(lambda pairs: euler_invariant(seifert(*pairs)) != 0)
)
def test_torsion_order_is_the_euler_numerator(pairs):
    # the quantity exhaustive_search prefilters by: for eps != 0 the torsion
    # order is |det P| = |prod(alpha) * eps|
    S = seifert(*pairs)
    snf = smith_normal_form(presentation_matrix(S))
    from_snf = prod(d for d in snf if d)
    from_euler = abs(prod(a for a, _ in pairs) * euler_invariant(S))
    assert torsion_order(S) == from_euler == from_snf
