"""local_invariant_from_data against the Gram-matrix path it replaces in
realization and search checks: the invariant at p of the standard form that
classify(gram_matrix(S, p)) finds.

Besides equality, each sweep counts the cases where the order in which
generators are taken matters, and asserts that they occur: an even level
at p = 2 (no 1x1 pivot of full valuation exists, so the even remainder is
read from its determinant), a level at odd p whose pivots in generator
order hit a non-unit (a Gram-Schmidt would need a 2x2 pivot there), and
E_s = 0 (the partial Euler sum becomes infinite after s).
"""

import itertools
import random
from collections import Counter
from math import gcd

import pytest

from linkform.arith import ext_gcd
from linkform.errors import UnsupportedError
from linkform.linking import gram_matrix
from linkform.pairing import (
    E0,
    E1,
    StandardForm,
    classify,
    even_decompose,
    gauss_invariant,
    local_invariant_from_data,
    parity,
    standard_form_of,
)
from linkform.realize import realize, verify_realization
from linkform.seifert import SeifertData, relevant_primes, seifert
from linkform.torsion import local_orders
from support import rand_block_seifert, reversed_orientation


def _classified(G) -> tuple:
    """The invariant at G's prime of the standard form classify finds."""
    return dict(classify(G).standard_form.gauss).get(G.prime, ((), ()))


def _in_order_pivot_fails(C) -> bool:
    """Whether eliminating the component's generators in order meets a
    diagonal entry divisible by its prime."""
    q = C.prime**C.k
    M = [[x % q for x in row] for row in C.matrix]
    while M:
        if M[0][0] % C.prime == 0:
            return True
        inv = pow(M[0][0], -1, q)
        M = [[(row[j] - row[0] * inv * M[0][j]) % q for j in range(1, len(M))] for row in M[1:]]
    return False


def _cases(G) -> Counter:
    seen = Counter()
    for C in G.components:
        if G.prime == 2 and parity(C) == "even":
            seen["even level at 2"] += 1
        if G.prime != 2 and _in_order_pivot_fails(C):
            seen["pair pivot at odd p"] += 1
    return seen


def _s_case(S: SeifertData, p: int) -> str | None:
    local = local_orders(S, p)
    if "s" in dict(local.orders):
        a2, b2 = local.pairs[1]
        _, m, _ = ext_gcd(a2, b2)
        en, ed = local.euler
        if b2 * ed == m * a2 * a2 * en:  # b2 = m a2^2 eps
            return "E_s = 0 with other generators" if len(local.orders) > 1 else "E_s = 0"
    return None


def test_matches_gram_path_on_random_block_data():
    rng = random.Random(16)
    seen = Counter()
    for t in range(240):
        S = rand_block_seifert(rng, flat=t % 2 == 0, max_r=12, max_alpha=10**4)
        for p in relevant_primes(S):
            G = gram_matrix(S, p)
            assert local_invariant_from_data(S, p) == _classified(G), (S, p)
            seen += _cases(G)
    assert seen["even level at 2"] and seen["pair pivot at odd p"], seen


def _data(max_alpha: int, max_beta: int, rs):
    """Every datum with r in rs, alpha <= max_alpha and 0 < |beta| <= max_beta."""
    pool = [
        (a, b)
        for a in range(2, max_alpha + 1)
        for b in range(-max_beta, max_beta + 1)
        if b and gcd(a, b) == 1
    ]
    return itertools.chain.from_iterable(
        itertools.combinations_with_replacement(pool, r) for r in rs
    )


def test_matches_gram_path_on_every_small_datum():
    # every datum with r <= 3, alpha <= 8 and |beta| <= 8, and the pool of
    # the benchmark's deep searches (r = 4, 5, alpha <= 4, |beta| <= 3), so
    # every manifold those searches decide.  The Gram path runs once per
    # manifold, keyed by (sorted (a, b mod a), eps) as in exhaustive_search;
    # the data path runs on every datum.
    oracle, seen = {}, Counter()
    for pairs in itertools.chain(_data(8, 8, (2, 3)), _data(4, 3, (4, 5))):
        S = SeifertData(0, pairs)
        key = (tuple(sorted((a, b % a) for a, b in pairs)), S.eps)
        if key not in oracle:
            oracle[key] = want = {}
            for p in relevant_primes(S):
                G = gram_matrix(S, p)
                want[p] = _classified(G)
                seen += _cases(G)
        for p, inv in oracle[key].items():
            assert local_invariant_from_data(S, p) == inv, (S, p)
            seen[_s_case(S, p)] += 1
    assert seen["even level at 2"] and seen["pair pivot at odd p"], seen
    assert seen["E_s = 0"] and seen["E_s = 0 with other generators"], seen


def test_matches_gram_path_on_realized_even_levels():
    # even levels of rank >= 4 with an E1 (determinant 5 mod 8), which the
    # samplers above rarely reach
    seen = Counter()
    for k, e0, mode in itertools.product((2, 3, 4), (0, 1, 2), ("flat", "sphere")):
        for e1 in (0, 1):
            target = StandardForm([E0(k)] * e0 + [E1(k)] * e1)
            if not target.atoms:
                continue
            S = realize(target, mode).seifert
            for p in relevant_primes(S):
                G = gram_matrix(S, p)
                assert local_invariant_from_data(S, p) == _classified(G), (S, p)
                seen.update((C.rank, even_decompose(C)[1]) for C in G.components if C.k >= 2)
    assert seen[4, 1] and seen[6, 1], seen


@pytest.mark.parametrize(
    "S, p",
    [
        (seifert((2, -1), (4, 3)), 2),
        (seifert((3, -4), (9, 8)), 3),
        (seifert((9, -8), (3, 2)), 3),
    ],
    ids=str,
)
def test_s_with_zero_e_term(S, p):
    assert _s_case(S, p) == "E_s = 0"
    assert local_invariant_from_data(S, p) == _classified(gram_matrix(S, p))


def test_trivial_part_and_r1():
    S = seifert((2, 1), (2, -1))  # eps = 0, r = 2: no torsion at 2
    for p in (2, 5):
        assert local_invariant_from_data(S, p) == _classified(gram_matrix(S, p)) == ((), ())
    with pytest.raises(UnsupportedError):
        local_invariant_from_data(seifert((5, 2)), 2)


def _conjugated(inv: tuple) -> tuple:
    """inv with every Gauss-sum argument a sent to -a mod 8, None kept."""
    return tuple(
        (p, (ranks, tuple(None if a is None else -a % 8 for a in args)))
        for p, (ranks, args) in inv
    )


def test_orientation_reversal_conjugates_the_invariant():
    # exhaustive_search decides a manifold's reversal by checking the
    # manifold's own data against the negated target; these identities are
    # what makes that exact
    rng = random.Random(24)
    seen = Counter()
    previous = StandardForm(())
    for t in range(600):
        S = rand_block_seifert(rng, flat=t % 2 == 0, max_r=8, max_alpha=64)
        R = reversed_orientation(S)
        form = standard_form_of(S)
        inv = gauss_invariant(S)
        assert gauss_invariant(R) == gauss_invariant(form.negated()) == _conjugated(inv), S
        for T in (form, form.negated(), previous):
            verdict = verify_realization(S, T)
            assert verify_realization(R, T.negated()) == verdict, (S, T)
            seen[verdict] += 1
        previous = form
        levels = form.levels(2)
        seen["2-primary"] += bool(levels)
        seen["2-primary, two levels or more"] += len(levels) >= 2
        seen["changed by reversal"] += _conjugated(inv) != inv
    # both verdicts occur, and reversal moves the invariant often, at p = 2
    # on several levels too
    assert seen[True] > 600 and seen[False] > 100, seen
    assert seen["2-primary"] > 200 and seen["2-primary, two levels or more"] > 20, seen
    assert seen["changed by reversal"] > 200, seen
