import importlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from linkform.arith import is_prime, least_nonresidue, padic_val
from linkform.cli import main as cli_main
from linkform.errors import (
    InvalidDataError,
    LinkformError,
    UnrealizableError,
    UnsupportedError,
    VerificationError,
)
from linkform.linking import GramPairing, gram_matrix
from linkform.pairing import (
    Cyc,
    E0,
    E1,
    StandardForm,
    brute_force_isomorphic,
    canonical_form,
    gauss_invariant,
    is_isomorphic,
    standard_form_gram,
    standard_form_of,
)
from linkform.realize import (
    RealizationResult,
    exhaustive_search,
    realize,
    verify_realization,
)
from linkform.seifert import SeifertData, euler_invariant, fibre_sum, relevant_primes, seifert
from linkform.torsion import local_orders
from linkform.verify import RunConfig, run_suite
from support import (
    rand_block_seifert,
    reference_realize,
    reference_sum_zero_unit_tuple,
    reversed_orientation,
)


# the package re-exports the function realize under the submodule's name
realize_module = importlib.import_module("linkform.realize")


def sf(*atoms):
    return StandardForm(atoms)


# ---------------------------------------------------------------------------
# flat realizations at odd primes


def test_odd_flat_rank1_p5():
    r = realize(sf(Cyc(5, 1, 1)), "flat")
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    assert sorted(r.seifert.pairs) == [(5, -3), (5, 1), (5, 2)]


def test_odd_flat_p3_square_needs_bumped_orders():
    r = realize(sf(Cyc(3, 2, 1), Cyc(3, 2, 1)), "flat")
    assert r.verified and "bump" in r.construction
    assert sorted(a for a, _ in r.seifert.pairs) == [9, 9, 27, 27]
    # same rank and exponent with nonsquare class stays at equal cone orders
    r2 = realize(sf(Cyc(3, 2, 1), Cyc(3, 2, 2)), "flat")
    assert r2.verified and set(a for a, _ in r2.seifert.pairs) == {9}


def test_odd_flat_multi_block():
    target = sf(Cyc(5, 2, 1), Cyc(5, 2, 2), Cyc(5, 1, 1))
    r = realize(target, "flat")
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    assert sorted(a for a, _ in r.seifert.pairs) == [5, 25, 25, 25, 25]


def test_sum_zero_unit_tuples_match_the_full_list_of_fixed_tails():
    # the fixed tails other than base and base[:-1] + (2,) were never the
    # first to give a tuple: the answer (or refusal) is the same with them;
    # m >= 3, as the flat recipe asks for its top rank + 2 units
    def outcome(fn, p, m, cls):
        try:
            return fn(p, m, cls)
        except VerificationError:
            return None

    for p in (p for p in range(3, 200) if is_prime(p)):
        for m in range(3, 41):
            for cls in (1, -1):
                new = outcome(realize_module._sum_zero_unit_tuple, p, m, cls)
                assert new == outcome(reference_sum_zero_unit_tuple, p, m, cls), (p, m, cls)


# ---------------------------------------------------------------------------
# rational homology spheres, odd order


def test_odd_sphere_lens():
    r = realize(sf(Cyc(3, 1, 1)), "sphere")
    assert r.verified
    assert r.seifert.r == 2  # a lens space
    assert euler_invariant(r.seifert) == Fraction(1, 9)


def test_odd_sphere_euler_is_one_over_big_alpha():
    target = sf(Cyc(3, 1, 1), Cyc(5, 1, 2))
    r = realize(target, "sphere")
    assert r.verified
    eps = euler_invariant(r.seifert)
    assert eps.numerator == 1
    assert eps.denominator == r.seifert.pairs[0][0]


def test_odd_sphere_homogeneous_rank2_square():
    # this class also has the dedicated bumped-order realization
    target = sf(Cyc(3, 1, 1), Cyc(3, 1, 1))
    bumped = seifert((9, 7), (3, -1), (3, -1))
    assert verify_realization(bumped, target)
    r = realize(target, "sphere")
    assert r.verified


def test_odd_sphere_multi_block_classes():
    rng = random.Random(2)
    for _ in range(8):
        atoms = []
        for p in (3, 7):
            for k in (2, 1):
                if rng.random() < 0.7:
                    atoms.append(Cyc(p, k, rng.choice([1, 2, p + 1, p + 2])))
        if not atoms:
            continue
        target = sf(*atoms)
        r = realize(target, "sphere")
        assert r.verified, target


# ---------------------------------------------------------------------------
# 2-primary homogeneous


def test_two_homog_e0_squared():
    r = realize(sf(E0(2)), "flat")
    assert r.seifert.pairs == ((4, -1), (4, 1), (4, -1), (4, 1))
    assert r.verified


def test_two_homog_cyc233_sphere():
    r = realize(sf(Cyc(2, 3, 3)), "sphere")
    assert r.seifert.pairs == ((32, -3), (8, 1))
    assert r.verified


def test_two_homog_cyc211():
    r = realize(sf(Cyc(2, 1, 1)), "sphere")
    assert r.verified
    assert euler_invariant(r.seifert) != 0
    r = realize(sf(Cyc(2, 1, 1)), "flat")
    assert r.verified and euler_invariant(r.seifert) == 0


def test_two_homog_all_lens_classes():
    for k in (1, 2, 3):
        units = [1] if k == 1 else ([1, 3] if k == 2 else [1, 3, 5, 7])
        for a in units:
            r = realize(sf(Cyc(2, k, a)), "sphere")
            assert r.verified, (k, a)
            assert euler_invariant(r.seifert) != 0


@pytest.mark.parametrize("k", range(1, 7))
def test_a_lens_shape_reads_the_same_at_b2_and_b2_minus_or_plus_8(k):
    # the lens shapes try b2 in (1, -1, 3, -3) only: 5, -5, 7 and -7 give
    # the pairing of -3, 3, -1 and 1, tried just before them
    q = 2**k
    lows = [[]] + [[(2**kj, c)] for kj in range(1, k - 1) for c in (1, -1, 3, -3)]
    lows += [[(2**kj, 1), (2, -1)] for kj in range(3, k - 1)]
    for low in lows:
        for b2 in (1, -1, 3, -3):
            S, T = (
                realize_module._balanced(4 * q, 1, [(q, b), *low])
                for b in (b2, b2 - 8 if b2 > 0 else b2 + 8)
            )
            assert gauss_invariant(S) == gauss_invariant(T), (k, low, b2)


def test_two_homog_e1_both_modes():
    for mode in ("flat", "sphere"):
        r = realize(sf(E1(2)), mode)
        assert r.verified, mode


def test_gap_realization():
    r = realize(sf(Cyc(2, 3, 3), Cyc(2, 1, 1)))
    assert r.verified
    alphas = sorted(a for a, _ in r.seifert.pairs)
    assert alphas[0] == 2 and alphas[-1] == 32


def test_gap_even_top():
    r = realize(sf(E0(3), Cyc(2, 1, 1)))
    assert r.verified


def test_gap_sphere_mode():
    r = realize(sf(Cyc(2, 4, 3), Cyc(2, 2, 1)), "sphere")
    assert r.verified
    assert euler_invariant(r.seifert) != 0


def test_gap_condition_violated():
    # refused as outside the constructions, not as impossible: the target is
    # realized by M(0;(2,-5),(4,7),(8,5)) (see WITNESSES)
    with pytest.raises(UnrealizableError, match="outside the implemented"):
        realize(sf(Cyc(2, 2, 1), Cyc(2, 1, 1)))


def test_even_below_top_refused_by_constructions():
    with pytest.raises(UnrealizableError, match="outside the implemented"):
        realize(sf(E0(2), E0(1)))
    with pytest.raises(UnrealizableError, match="outside the implemented"):
        realize(sf(Cyc(2, 4, 1), E0(2)))


# targets that realize refuses, each with Seifert data realizing it
WITNESSES = [
    (sf(Cyc(2, 2, 1), Cyc(2, 1, 1)), seifert((2, -5), (4, 7), (8, 5))),
    (sf(Cyc(2, 2, 3), E0(1)), seifert((2, 1), (2, 1), (2, 1), (2, -1))),
    (sf(Cyc(2, 3, 1), E0(2)), seifert((4, -7), (4, -5), (4, 3), (4, 7))),
]
WITNESS_IDS = ["<1>/4+<1>/2", "Cyc(2,2,3)+E0(1)", "<1>/8+E0(2)"]


@pytest.mark.parametrize("target, S", WITNESSES, ids=WITNESS_IDS)
def test_witness_realizes_refused_target(target, S):
    assert verify_realization(S, target)
    found, _ = brute_force_isomorphic(gram_matrix(S, 2), standard_form_gram(target, 2))
    assert found
    with pytest.raises(UnrealizableError, match="outside the implemented"):
        realize(target)


@pytest.mark.xfail(
    raises=UnrealizableError,
    strict=True,
    reason="no implemented construction covers these targets yet",
)
@pytest.mark.parametrize("target, S", WITNESSES, ids=WITNESS_IDS)
def test_realize_covers_witness_targets(target, S):
    assert realize(target).verified


# ---------------------------------------------------------------------------
# construction table: one target per construction family that wins on the
# benchmark's realize catalogue, plus the bumped-order odd-flat recipe, plus
# one row per dispatch branch not pinned otherwise (the trivial target in
# both modes, one odd prime, and mixed targets in auto mode); each row is
# (atoms, mode, construction, pairs) as recorded before the 2-primary
# constructions were merged into realize_two, or (the five after the first
# 36) before realize became the one dispatcher.  The last is a p = 3 top
# level of even rank and the non-hyperbolic class, which the alternating
# +-1 tails of the flat odd-p recipe miss (see test_flat_p3_even_rank_classes)

C = Cyc
CONSTRUCTIONS = [
    ((E1(3), C(2, 1, 1), C(2, 1, 1)), 'flat', 'gap-stacked/even-flat', ((8, -11), (8, 1), (8, 1), (8, 1), (2, 1), (2, 1))),
    ((E1(3), C(2, 1, 1), C(2, 1, 1)), 'sphere', 'gap-stacked/even-sphere', ((8, -11), (8, 1), (8, 1), (2, 1), (2, 1))),
    ((C(2, 3, 1), C(2, 1, 1)), 'sphere', 'gap-stacked/lens[2,-1,1,0]', ((32, -11), (8, -1), (2, 1))),
    ((C(2, 3, 1), C(2, 1, 1)), 'flat', 'gap-stacked/odd-flat', ((32, -29), (32, 1), (8, 3), (2, 1))),
    ((C(2, 3, 7), C(2, 3, 1), C(2, 1, 1), C(2, 1, 1)), 'sphere', 'gap-stacked/odd-sphere-pm1[0]', ((16, -15), (8, 1), (8, -1), (2, 1), (2, 1))),
    ((C(2, 5, 3), C(2, 2, 1), C(2, 2, 1)), 'sphere', 'gap-stacked/odd-sphere-z3[0,0]', ((128, 61), (32, 1), (4, -1), (4, -1))),
    ((C(2, 4, 5), C(2, 4, 5), C(2, 2, 1), C(2, 2, 1)), 'sphere', 'gap-stacked/odd-sphere-z3[1,0]/flipped', ((64, 39), (16, -1), (16, -1), (4, -1), (4, -1))),
    ((E1(3), C(2, 1, 1), C(2, 1, 1), C(3, 3, 10), C(3, 3, 13), C(3, 1, 1)), 'flat', 'mixed-flat[gap-stacked/even-flat+mixed-flat[odd-flat/base-order-bump]]', ((8, -11), (8, 1), (8, 1), (8, 1), (2, 1), (2, 1), (81, -53), (81, 5), (27, -1), (27, -1), (3, 2))),
    ((E1(6), C(2, 4, 7), C(11, 1, 7), C(7, 2, 4)), 'flat', 'mixed-flat[gap-stacked/even-flat+mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]]]', ((64, 9), (64, 1), (64, 1), (64, 1), (16, -3), (49, -3), (49, 2), (49, 1), (11, -4), (11, 3), (11, 1))),
    ((E0(5), C(2, 2, 1), C(7, 2, 22), C(7, 2, 12), C(7, 2, 44)), 'flat', 'mixed-flat[gap-stacked/even-flat+mixed-flat[odd-flat/sum-zero[0]]]', ((32, 7), (32, 1), (32, -1), (32, 1), (4, -1), (49, -3), (49, 2), (49, 1), (49, -1), (49, 1))),
    ((C(2, 4, 3), C(2, 1, 1), C(13, 2, 89), C(11, 1, 8), C(13, 2, 148)), 'flat', 'mixed-flat[gap-stacked/odd-flat+mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]]]', ((64, -37), (64, 1), (16, 1), (2, 1), (11, -4), (11, 3), (11, 1), (169, -1), (169, 1), (169, 1), (169, -1))),
    ((C(2, 3, 1), C(2, 3, 5), C(2, 1, 1), C(11, 2, 49), C(11, 2, 120), C(11, 2, 64)), 'flat', 'mixed-flat[gap-stacked/odd-flat+mixed-flat[odd-flat/sum-zero[0]]]', ((32, -25), (32, 1), (8, 3), (8, -1), (2, 1), (121, -2), (121, 1), (121, 1), (121, -1), (121, 1))),
    ((C(3, 2, 2), C(5, 1, 1), C(13, 1, 8), C(5, 3, 67), C(3, 2, 5)), 'flat', 'mixed-flat[odd-flat/base-order-bump+odd-flat/sum-zero[0]+odd-flat/sum-zero[0]]', ((27, 1), (27, 5), (9, -1), (9, -1), (125, -27), (125, 1), (125, 1), (5, 1), (13, -2), (13, 1), (13, 1))),
    ((C(11, 2, 19), C(3, 2, 5), C(3, 2, 2)), 'flat', 'mixed-flat[odd-flat/base-order-bump+odd-flat/sum-zero[0]]', ((27, 1), (27, 5), (9, -1), (9, -1), (121, -4), (121, 3), (121, 1))),
    ((E0(2), C(3, 3, 25), C(3, 3, 25)), 'flat', 'mixed-flat[odd-flat/base-order-bump+two-homog/even-hyperbolic-flat]', ((81, 1), (81, 5), (27, -1), (27, -1), (4, -1), (4, 1), (4, -1), (4, 1))),
    ((C(2, 3, 7), C(2, 3, 7), C(2, 3, 3), C(2, 3, 5), C(3, 3, 1), C(3, 3, 4)), 'flat', 'mixed-flat[odd-flat/base-order-bump+two-homog/odd-flat]', ((81, 1), (81, 5), (27, -1), (27, -1), (32, -9), (32, 1), (8, 3), (8, 1), (8, 1), (8, -3))),
    ((C(11, 1, 8), C(3, 2, 8), C(5, 2, 4)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]+odd-flat/sum-zero[0]]', ((9, -1), (9, -1), (9, 2), (25, -3), (25, 2), (25, 1), (11, -4), (11, 3), (11, 1))),
    ((E0(3), E1(3), C(13, 2, 96), C(7, 1, 3), C(7, 2, 36)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]+two-homog/even-e1-flat]', ((49, -10), (49, 2), (49, 1), (7, 1), (169, -2), (169, 1), (169, 1), (8, -5), (8, 1), (8, 1), (8, 1), (8, 1), (8, 1))),
    ((E0(3), C(7, 3, 293), C(5, 3, 78)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]+two-homog/even-hyperbolic-flat]', ((125, -2), (125, 1), (125, 1), (343, -2), (343, 1), (343, 1), (8, -1), (8, 1), (8, -1), (8, 1))),
    ((C(2, 1, 1), C(3, 2, 1), C(11, 1, 9)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]+two-homog/odd-flat]', ((9, -2), (9, 1), (9, 1), (11, -2), (11, 1), (11, 1), (8, -13), (8, 1), (2, 3))),
    ((C(3, 1, 1), C(11, 2, 58)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]]', ((3, -2), (3, 1), (3, 1), (121, -2), (121, 1), (121, 1))),
    ((E1(3), C(11, 1, 2)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+two-homog/even-e1-flat]', ((11, -4), (11, 3), (11, 1), (8, -3), (8, 1), (8, 1), (8, 1))),
    ((E0(1), C(13, 1, 5), C(13, 2, 120), C(13, 1, 6)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+two-homog/even-hyperbolic-flat]', ((169, -30), (169, 3), (169, 1), (13, 1), (13, 1), (2, -1), (2, 1), (2, -1), (2, 1))),
    ((C(2, 3, 3), C(2, 3, 1), C(7, 1, 2)), 'flat', 'mixed-flat[odd-flat/sum-zero[0]+two-homog/odd-flat]', ((7, -3), (7, 2), (7, 1), (32, -17), (32, 1), (8, 3), (8, 1))),
    ((C(2, 3, 3), C(2, 3, 1), C(7, 1, 2)), 'sphere', 'mixed-sphere/balanced', ((784, 615), (8, -3), (8, -1), (7, -2))),
    ((C(3, 2, 1), C(3, 2, 1)), 'flat', 'odd-flat/base-order-bump', ((27, 1), (27, 5), (9, -1), (9, -1))),
    ((C(3, 1, 1), C(11, 2, 58)), 'sphere', 'odd-sphere/balanced', ((11979, 9734), (3, -1), (121, -58))),
    ((E1(3),), 'flat', 'two-homog/even-e1-flat', ((8, -3), (8, 1), (8, 1), (8, 1))),
    ((E1(3),), 'sphere', 'two-homog/even-e1-sphere', ((8, -3), (8, 1), (8, 1))),
    ((E0(1),), 'flat', 'two-homog/even-hyperbolic-flat', ((2, -1), (2, 1), (2, -1), (2, 1))),
    ((E0(1),), 'sphere', 'two-homog/even-hyperbolic-sphere', ((2, -1), (2, 1), (2, -1))),
    ((C(2, 3, 5),), 'sphere', 'two-homog/lens[2,-1,1,0]', ((32, 5), (8, -1))),
    ((C(2, 2, 3), C(2, 2, 3), C(2, 2, 1)), 'flat', 'two-homog/odd-flat', ((16, -21), (16, 1), (4, 3), (4, 1), (4, 1))),
    ((C(2, 3, 3), C(2, 3, 5)), 'sphere', 'two-homog/odd-sphere-pm1[0]', ((16, 1), (8, 1), (8, -1))),
    ((C(2, 2, 3), C(2, 2, 3), C(2, 2, 1)), 'sphere', 'two-homog/odd-sphere-z3[0,0]', ((16, -19), (4, 1), (4, 3), (4, 1))),
    ((C(2, 3, 1), C(2, 3, 1)), 'sphere', 'two-homog/odd-sphere-z3[1,0]/flipped', ((32, 7), (8, -1), (8, -1))),
    ((), 'flat', 'trivial-flat', ((2, 1), (2, -1))),
    ((), 'sphere', 'trivial-sphere', ((2, 1), (3, -1))),
    ((C(5, 1, 1),), 'flat', 'odd-flat/sum-zero[0]', ((5, -3), (5, 2), (5, 1))),
    ((C(3, 1, 1), E0(2)), 'auto', 'mixed-flat[odd-flat/sum-zero[0]+two-homog/even-hyperbolic-flat]', ((3, -2), (3, 1), (3, 1), (4, -1), (4, 1), (4, -1), (4, 1))),
    ((C(2, 3, 3), C(2, 1, 1), C(3, 1, 1)), 'auto', 'mixed-flat[gap-stacked/odd-flat+mixed-flat[odd-flat/sum-zero[0]]]', ((32, -21), (32, 1), (8, 1), (2, 1), (3, -2), (3, 1), (3, 1))),
    ((C(3, 1, 1),) * 6, 'auto', 'odd-flat/sum-zero[0]', ((3, -7),) + ((3, 1),) * 7),
]


def _family(construction):
    return re.sub(r"\[[-\d,]+\]", "", construction)


@pytest.mark.parametrize(
    "atoms, mode, construction, pairs",
    CONSTRUCTIONS,
    ids=[f"{_family(row[2])}@{row[1]}" for row in CONSTRUCTIONS],
)
def test_construction_table(atoms, mode, construction, pairs):
    r = realize(sf(*atoms), mode)
    assert (r.construction, r.seifert.pairs) == (construction, pairs)
    assert r.verified


@pytest.mark.parametrize("k", [1, 2, 5])
def test_flat_p3_even_rank_classes(k):
    # a top level at p = 3 of even rank >= 4 whose class is not that of the
    # hyperbolic form: every sum-zero tuple of the +-1 tails has the other
    # class, so flat and auto mode tried no candidate at all
    q = 3**k
    targets = [
        (sf(C(3, k, 1), C(3, k, 1), C(3, k, 1), C(3, k, 2)), seifert(*[(q, 1)] * 5, (q, -5))),
        (sf(*[C(3, k, 1)] * 6), seifert((q, -1), *[(q, 1)] * 6, (q, -5))),
    ]
    for target, witness in targets:
        assert verify_realization(witness, target)
        for mode in ("flat", "auto"):
            r = realize(target, mode)
            assert r.verified and r.euler == 0 and verify_realization(r.seifert, target)


def _homogeneous_two_target(rng):
    """Odd primes <= 17, up to 3 levels each, exponents <= 30, top rank
    <= 14, plus a 2-part that is absent, diagonal or even on one level."""
    atoms = []
    for p in rng.sample([3, 5, 7, 11, 13, 17], rng.randint(1, 3)):
        ks = sorted(rng.sample(range(1, 31), rng.randint(1, 3)), reverse=True)
        for i, k in enumerate(ks):
            rank = rng.randint(1, 14) if i == 0 else rng.randint(1, 3)
            atoms += [C(p, k, rng.randrange(1, p)) for _ in range(rank)]
    k, kind = rng.randint(1, 8), rng.random()
    if kind < 1 / 3:
        atoms += [C(2, k, rng.choice((1, 3, 5, 7))) for _ in range(rng.randint(1, 4))]
    elif kind < 2 / 3:
        e1 = int(k >= 2 and rng.random() < 0.5)
        atoms += [E0(k)] * (rng.randint(1, 3) - e1) + [E1(k) for _ in range(e1)]
    return sf(*atoms)


def test_flat_and_auto_realize_every_target_with_a_homogeneous_two_part():
    rng = random.Random(16)
    for _ in range(120):
        target = _homogeneous_two_target(rng)
        for mode in ("flat", "auto"):
            r = realize(target, mode)
            assert r.verified and r.euler == 0, (target.to_json(), mode)
            assert verify_realization(r.seifert, target)


def test_sphere_mode_realizes_or_names_the_even_two_part():
    # item 1's gate in sphere mode: verified data with eps != 0, or a refusal
    # that names the even 2-part (no construction for it yet), never a
    # VerificationError
    rng = random.Random(17)
    seen = {"realized": 0, "refused": 0}
    for _ in range(600):
        target = _homogeneous_two_target(rng)
        try:
            r = realize(target, "sphere")
        except UnrealizableError as exc:
            assert "even 2-part" in str(exc), target.to_json()
            assert not all(isinstance(a, Cyc) for a in canonical_form(target.restrict(2)).atoms)
            seen["refused"] += 1
            continue
        assert r.verified and r.euler != 0, target.to_json()
        assert verify_realization(r.seifert, target)
        seen["realized"] += 1
    assert min(seen.values()) >= 150, seen


# candidates are built lazily: a target whose first candidate verifies builds
# about one SeifertData, not the whole candidate list (25 to 435 of them)
LAZY_TARGETS = {
    "<1>/5 flat": ((C(5, 1, 1),), "flat"),
    "<3>/8 sphere": ((C(2, 3, 3),), "sphere"),
    "<3>/16+<1>/4 sphere": ((C(2, 4, 3), C(2, 2, 1)), "sphere"),
    "<1>/8+<1>/2+<1>/2 sphere": ((C(2, 3, 1), C(2, 1, 1), C(2, 1, 1)), "sphere"),
}


@pytest.mark.parametrize("name", sorted(LAZY_TARGETS))
def test_lazy_candidates_work_guard(monkeypatch, name):
    atoms, mode = LAZY_TARGETS[name]
    builds = [0]
    inner = SeifertData.__post_init__

    def counted(self):
        builds[0] += 1
        inner(self)

    monkeypatch.setattr(SeifertData, "__post_init__", counted)
    r = realize(sf(*atoms), mode)
    assert r.verified
    assert builds[0] <= 5


# ---------------------------------------------------------------------------
# mixed targets


def test_mixed_flat_example():
    target = sf(Cyc(3, 1, 1), E0(2))
    r = realize(target, "flat")
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    alphas = {a for a, _ in r.seifert.pairs}
    assert alphas == {3, 4}


def test_mixed_pure_odd_delegates():
    target = sf(Cyc(3, 1, 1))
    assert realize(target, "flat").verified


def test_mixed_gapped_two_part_refused_in_sphere_mode():
    target = sf(Cyc(2, 3, 1), Cyc(2, 1, 1), Cyc(3, 1, 1))
    with pytest.raises(UnrealizableError, match="sphere mode with an inhomogeneous 2-part"):
        realize(target, "sphere")


def test_mixed_sphere_with_odd_two_part():
    target = sf(Cyc(3, 1, 1), Cyc(2, 2, 3))
    r = realize(target, "sphere")
    assert r.verified
    assert euler_invariant(r.seifert) != 0


def test_mixed_sphere_with_level3_two_part():
    # slot corrections interact pairwise here; exercises the compensated solver
    target = sf(
        Cyc(2, 3, 3), Cyc(2, 3, 3), Cyc(2, 3, 3), Cyc(3, 1, 1)
    )
    r = realize(target, "sphere")
    assert r.verified
    assert euler_invariant(r.seifert).numerator == 1


def test_mixed_sphere_even_two_part_refused():
    with pytest.raises(UnrealizableError):
        realize(sf(Cyc(3, 1, 1), E0(2)), "sphere")


def test_dispatcher_trivial_target():
    r = realize(StandardForm(()))
    assert r.verified and standard_form_of(r.seifert) == StandardForm(())
    r = realize(StandardForm(()), "sphere")
    assert r.verified and euler_invariant(r.seifert) != 0


def test_dispatcher_multi_prime_flat():
    target = sf(Cyc(3, 1, 1), Cyc(5, 1, 2), Cyc(7, 2, 3))
    r = realize(target)  # auto prefers flat
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    r = realize(target, "sphere")
    assert r.verified and euler_invariant(r.seifert) != 0


def test_dispatcher_gap_plus_odd_flat():
    target = sf(Cyc(2, 3, 3), Cyc(2, 1, 1), Cyc(3, 1, 1))
    r = realize(target, "flat")
    assert r.verified


def test_gap_plus_odd_flat_checks_the_whole_sum_once(monkeypatch):
    # the pieces (gapped 2-part, two odd primes) are not checked on their
    # own: one check of the whole sum; the inner sum keeps its label
    verify_calls = _counting(monkeypatch, "verify_realization")
    target = sf(E1(6), Cyc(2, 4, 7), Cyc(11, 1, 7), Cyc(7, 2, 4))
    r = realize(target, "flat")
    assert len(verify_calls) == 1
    assert r.verified and euler_invariant(r.seifert) == 0
    assert r.construction == (
        "mixed-flat[gap-stacked/even-flat+"
        "mixed-flat[odd-flat/sum-zero[0]+odd-flat/sum-zero[0]]]"
    )
    assert r.seifert.pairs == (
        (64, 9), (64, 1), (64, 1), (64, 1), (16, -3),
        (49, -3), (49, 2), (49, 1), (11, -4), (11, 3), (11, 1),
    )


# ---------------------------------------------------------------------------
# one piece per odd prime, the whole checked once


ONE_CHECK_TARGETS = {
    "odd primes, flat": ((C(3, 1, 1), C(5, 1, 2), C(7, 2, 3)), "flat"),
    "odd primes and E0, auto": ((C(3, 1, 1), C(5, 2, 1), E0(2)), "auto"),
    "odd primes and a diagonal 2-part, auto": ((C(3, 1, 2), C(11, 1, 1), C(2, 3, 3)), "auto"),
    "gapped 2-part and odd primes, flat": (
        (E1(6), C(2, 4, 7), C(11, 1, 7), C(7, 2, 4)),
        "flat",
    ),
    "gapped 2-part and an odd prime, auto": ((C(2, 3, 3), C(2, 1, 1), C(3, 1, 1)), "auto"),
    "balanced sphere, odd primes": ((C(3, 1, 2), C(5, 1, 2), C(7, 1, 3)), "sphere"),
    "balanced sphere with a 2-part": (
        (C(3, 1, 1), C(2, 3, 3), C(2, 3, 3), C(2, 3, 3)),
        "sphere",
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_CHECK_TARGETS))
def test_one_check_per_realization(monkeypatch, name):
    atoms, mode = ONE_CHECK_TARGETS[name]
    target = sf(*atoms)
    verify_calls = _counting(monkeypatch, "verify_realization")
    r = realize(target, mode)
    assert len(verify_calls) == 1
    assert r.verified and (r.construction, r.seifert) == reference_realize(target, mode)


PIECE_TARGET = (C(3, 1, 1), C(5, 1, 2), C(7, 2, 3))


@pytest.mark.parametrize("mode", ["flat", "sphere"])
def test_a_wrong_odd_piece_is_a_verification_failure(monkeypatch, tmp_path, capsys, mode):
    # the piece (flat) or tail (sphere) of p = 7 is patched to the other
    # determinant class: 1 is a square mod 7, the target's 3 is not
    other = sf(C(7, 2, 1))
    name = "_odd_flat_piece" if mode == "flat" else "_odd_prime_tail"
    make = getattr(realize_module, name)
    wrong = make(other, 7) if mode == "flat" else make(7, other.levels(7))
    monkeypatch.setattr(
        realize_module,
        name,
        lambda *args: wrong if (args[1] if mode == "flat" else args[0]) == 7 else make(*args),
    )
    verify_calls = _counting(monkeypatch, "verify_realization")
    with pytest.raises(VerificationError, match="no construction candidate verified"):
        realize(sf(*PIECE_TARGET), mode)
    assert len(verify_calls) == 1
    path = tmp_path / "t.json"
    path.write_text(json.dumps(sf(*PIECE_TARGET).to_json()))
    assert cli_main(["realize", str(path), "--mode", mode]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("verification failure: ")


def test_torsion_at_a_prime_without_a_stream_is_refused():
    # the candidate realizes the 3-part but has 5-torsion too
    three, five = realize(sf(C(3, 1, 1))).seifert, realize(sf(C(5, 1, 1))).seifert
    candidates = [("with 5-torsion", fibre_sum(three, five))]
    with pytest.raises(VerificationError):
        realize_module._first_verified(candidates, sf(C(3, 1, 1)))


def _random_multi_prime_target(rng):
    atoms = []
    for p in rng.sample([2, 3, 5, 7, 11, 13, 17], rng.randint(2, 4)):
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 5)
            if p == 2 and rng.random() < 0.3:
                atoms.append(E1(k) if k >= 2 and rng.random() < 0.5 else E0(k))
            else:
                atoms.append(C(p, k, rng.choice([a for a in range(1, 2 * p + 8) if a % p])))
    return sf(*atoms)


def _outcome(func, target, mode):
    try:
        r = func(target, mode)
    except LinkformError as exc:
        return type(exc).__name__
    return (r.construction, r.seifert) if isinstance(r, RealizationResult) else r


def test_stream_selection_matches_the_piece_by_piece_reference():
    rng = random.Random(17)
    realized = Counter()
    for _ in range(300):
        target = _random_multi_prime_target(rng)
        for mode in ("flat", "auto", "sphere"):
            got = _outcome(realize, target, mode)
            assert got == _outcome(reference_realize, target, mode), (target, mode)
            assert got != "VerificationError", (target, mode)
            realized[mode, isinstance(got, tuple)] += 1
    # 300 targets in each mode; most of them are realized
    assert all(realized[mode, True] > 150 for mode in ("flat", "auto", "sphere"))


@pytest.mark.parametrize("odd", [(C(3, 1, 2),), (C(7, 1, 3), C(3, 2, 1))])
def test_sphere_mode_verifies_every_small_odd_diagonal_two_part(odd):
    # _two_tail_for_sphere derives one tail with no search: every odd
    # diagonal 2-part of exponent k <= 5 and rank <= 4 must verify with it
    count = 0
    for k in range(1, 6):
        units = [u for u in (1, 3, 5, 7) if u < min(2**k, 8)]
        for rank in range(1, 5):
            for us in itertools.combinations_with_replacement(units, rank):
                r = realize(sf(*odd, *(C(2, k, u) for u in us)), "sphere")
                assert r.verified and r.construction == "mixed-sphere/balanced"
                count += 1
    assert count == 225


def test_target_invariant_is_read_once_per_form(monkeypatch):
    reads = []
    memo = StandardForm.__dict__["gauss"]
    inner = memo.func
    monkeypatch.setattr(memo, "func", lambda form: reads.append(form) or inner(form))
    target = sf(C(2, 2, 3), E0(1))
    hits = exhaustive_search(target, max_r=4, alphas=(2, 3, 4), max_beta=3)
    # the search decides reversed manifolds against the negated target, so
    # the target and its negation are each read once
    assert hits and reads == [target, target.negated()]
    assert target.negated() != target
    assert "gauss" in vars(target) and target == sf(C(2, 2, 3), E0(1))
    assert hash(target) == hash(sf(C(2, 2, 3), E0(1)))


def test_negated_target_realized_by_negated_betas():
    target = sf(Cyc(5, 1, 2))
    r = realize(target, "flat")
    neg = seifert(*((a, -b) for a, b in r.seifert.pairs))
    assert verify_realization(neg, target.negated())


# ---------------------------------------------------------------------------
# obstruction and search


def test_exhaustive_search_trivial_target():
    hits = exhaustive_search(StandardForm(()), max_r=2, alphas=(2, 3), max_beta=2)
    found = {tuple(sorted(S.pairs)) for S in hits}
    assert ((2, -1), (2, 1)) in found
    assert ((2, 1),) in found  # r=1 with |beta| = 1 has trivial homology


def test_exhaustive_search_small_positive_control():
    target = sf(Cyc(2, 2, 3), E0(1))
    hits = exhaustive_search(target, max_r=4, alphas=(2,), max_beta=1)
    assert any(
        tuple(sorted(S.pairs)) == ((2, -1), (2, 1), (2, 1), (2, 1)) for S in hits
    )


def test_verify_realization_rejects_extra_torsion():
    # correct 2-part but stray torsion at 3 must fail
    assert not verify_realization(seifert((4, 1), (2, 1)), sf(Cyc(2, 1, 1)))


def _changed_at_one_prime(form, rng):
    """form with one atom changed at one of its primes: a unit class flipped
    at odd p; at p = 2 an E0 and an E1 swapped (E0(1) split into two
    units) or a unit moved mod 8."""
    atoms = list(form.atoms)
    i = rng.randrange(len(atoms))
    a = atoms[i]
    if isinstance(a, Cyc) and a.p != 2:
        atoms[i] = Cyc(a.p, a.k, a.a * least_nonresidue(a.p))
    elif isinstance(a, Cyc):
        atoms[i] = Cyc(2, a.k, a.a + rng.choice((2, 4, 6)))
    elif isinstance(a, E1):
        atoms[i] = E0(a.k)
    elif a.k >= 2:
        atoms[i] = E1(a.k)
    else:
        atoms[i:i + 1] = [Cyc(2, 1, 1), Cyc(2, 1, 1)]
    return StandardForm(atoms)


def test_verify_realization_agrees_with_classification():
    # the prime-by-prime check against classifying the whole candidate, on
    # data with r <= 10 and alphas <= 1000, half of it with eps = 0
    rng = random.Random(15)
    verdicts = {}
    for i in range(400):
        S = rand_block_seifert(rng, flat=i % 2 == 0)
        form = standard_form_of(S)
        extra = next(q for q in itertools.count(3) if is_prime(q) and q not in relevant_primes(S))
        targets = {
            "own": form,
            "negated": form.negated(),
            "extra prime": form + sf(Cyc(extra, 1, 1)),
            "trivial": StandardForm(()),
        }
        if form.atoms:
            targets["changed"] = _changed_at_one_prime(form, rng)
        for name, target in targets.items():
            got = verify_realization(S, target)
            assert got == is_isomorphic(form, target), (S, name, target.to_json())
            verdicts.setdefault(name, set()).add(got)
    assert verdicts == {
        "own": {True},
        "negated": {True, False},
        "changed": {True, False},
        "extra prime": {False},
        "trivial": {True, False},
    }


def test_verify_realization_refuses_r1_and_reads_every_prime(monkeypatch):
    # r = 1 raises, as the classification does
    with pytest.raises(UnsupportedError):
        standard_form_of(seifert((5, 2)))
    with pytest.raises(UnsupportedError):
        verify_realization(seifert((5, 2)), sf(Cyc(2, 1, 1)))
    # the target fails at 2 already, but a singular pairing at 3 still raises
    import linkform.pairing as pairing

    S = seifert((4, 1), (2, 1))
    assert relevant_primes(S) == (2, 3)
    read = pairing.local_invariant_from_data

    def singular_at_3(S, p):
        if p == 3:
            raise InvalidDataError("singular pairing at 3")
        return read(S, p)

    monkeypatch.setattr(pairing, "local_invariant_from_data", singular_at_3)
    with pytest.raises(InvalidDataError, match="singular"):
        verify_realization(S, sf(Cyc(2, 2, 1)))


def test_verify_realization_classifies_nothing(monkeypatch):
    # inside verify_realization the candidate's invariant is read from its
    # Seifert data: no Gram matrix, no block decomposition, no determinant
    # and no diagonalization
    import linkform.linking as linking
    import linkform.pairing as pairing

    inside, counts = [False], Counter()

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args):
            if inside[0]:
                counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("gram_matrix", "block_diagonalize", "_int_det"):
        counting(linking, name)
    for name in (
        "gram_matrix",
        "classify",
        "_int_det",
        "diagonalize_odd",
        "local_invariant_from_data",
    ):
        counting(pairing, name)
    check = realize_module.verify_realization

    def verify(S, target):
        inside[0] = True
        try:
            return check(S, target)
        finally:
            inside[0] = False

    monkeypatch.setattr(realize_module, "verify_realization", verify)
    target = sf(E1(6), Cyc(2, 4, 7), Cyc(11, 1, 7), Cyc(7, 2, 4))
    assert realize(target, "flat").verified
    for name in ("gram_matrix", "classify", "block_diagonalize", "_int_det", "diagonalize_odd"):
        assert counts[name] == 0, name
    assert counts["local_invariant_from_data"] > 0


# ---------------------------------------------------------------------------
# the integer prunes of exhaustive_search


def _unfiltered_search(target, *, max_r, alphas, max_beta):
    """exhaustive_search without its integer prunes: every r >= 2 candidate
    of combinations_with_replacement goes through the local-order check and
    verify_realization."""
    pool = [
        (a, b)
        for a in sorted(alphas)
        for b in range(-max_beta, max_beta + 1)
        if b != 0 and gcd(a, b) == 1
    ]
    want = {p: target.restrict(p).group_structure() for p in target.primes()}
    results = []
    for r in range(1, max_r + 1):
        for combo in itertools.combinations_with_replacement(pool, r):
            S = SeifertData(0, combo)
            if r == 1:
                if not target.atoms and abs(combo[0][1]) == 1:
                    results.append(S)
                continue
            primes = relevant_primes(S)
            if any(
                tuple(sorted((p, padic_val(n, p)) for _, n in local_orders(S, p).orders))
                != want.get(p, ())
                for p in primes
            ):
                continue
            if any(p not in primes and want[p] for p in target.primes()):
                continue
            if realize_module.verify_realization(S, target):
                results.append(S)
    return results


PREFILTER_TARGETS = {
    "trivial": StandardForm(()),
    "nil-class": sf(Cyc(2, 2, 3), E0(1)),
    "even-even": sf(E0(2), E0(1)),
    "3-group": standard_form_of(seifert((3, 1), (3, 1), (3, 1))),
    "rank-4 2-group": standard_form_of(
        seifert((2, 1), (2, 1), (2, 1), (2, -1), (2, -1))
    ),
}


@pytest.mark.parametrize("name", sorted(PREFILTER_TARGETS))
def test_exhaustive_search_equals_unfiltered_reference(name):
    target = PREFILTER_TARGETS[name]
    bounds = {"max_r": 5, "alphas": (2, 3, 4), "max_beta": 3}
    hits = exhaustive_search(target, **bounds)
    assert hits == _unfiltered_search(target, **bounds)
    if name == "trivial":
        # an eps = 0 hit: D = 0, so it must pass the torsion-order prune
        assert SeifertData(0, ((2, -1), (2, 1))) in hits
    if name == "rank-4 2-group":
        assert len(target.group_structure()) == 4
    if name != "even-even":
        assert hits


def _manifold_key(S):
    # M(g; S) up to homeomorphism, for a fixed genus: the multiset of
    # (a_i, b_i mod a_i) and eps
    return tuple(sorted((a, b % a) for a, b in S.pairs)), S.eps


def _decided_key(call, target):
    # the manifold that a search's verify_realization(S, form) decides: S's
    # with the target itself, its reversal's with the negated target
    S, form = call
    if form is target:
        return _manifold_key(S)
    assert form == target.negated()
    return _manifold_key(reversed_orientation(S))


def test_exhaustive_search_matches_reference_on_random_bounds(monkeypatch):
    # unsorted and repeated alphas, r = 1..4; targets are the
    # trivial form or the pairing of data drawn inside the bounds, a third
    # of it flat (pairs and their negations), so eps = 0 hits occur.  The
    # search checks each manifold once: its verify_realization count is the
    # number of distinct manifolds among the reference's checked candidates,
    # so the integer leaf test passes exactly the candidates whose local
    # orders match the target's.
    verify_calls = _counting(monkeypatch, "verify_realization")
    rng = random.Random(10)
    flat_hits = seen = 0
    for case in range(320):
        alphas = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(1, 4))]
        max_r = 1 + case % 4
        bounds = {
            "max_r": max_r,
            "alphas": tuple(alphas),
            "max_beta": rng.randint(1, 3 if max_r < 4 else 2),
        }
        pool = [
            (a, b)
            for a in alphas
            for b in range(-bounds["max_beta"], bounds["max_beta"] + 1)
            if b and gcd(a, b) == 1
        ]
        if case % 10 == 0:
            target = StandardForm(())
        elif case % 3 == 0:
            half = [rng.choice(pool) for _ in range(max(1, max_r // 2))]
            target = standard_form_of(seifert(*half, *((a, -b) for a, b in half)))
        else:
            target = standard_form_of(seifert(*rng.choices(pool, k=max(2, max_r))))
        verify_calls.clear()
        hits = exhaustive_search(target, **bounds)
        checked = len(verify_calls)
        verify_calls.clear()
        assert hits == _unfiltered_search(target, **bounds), (target.to_json(), bounds)
        manifolds = {_manifold_key(S) for S, _ in verify_calls}
        assert checked == len(manifolds), (target.to_json(), bounds)
        seen += len(hits)
        flat_hits += sum(S.eps == 0 for S in hits if S.r > 1)
    assert flat_hits > 100 and seen > flat_hits


def test_exhaustive_search_matches_reference_on_many_alphas(monkeypatch):
    # the shapes with many alpha multisets and few betas each: 5-7 distinct
    # alphas, unsorted, every other case with one repeated, max_beta = 1 and
    # r up to 5; each manifold is still checked once, a reversed one by its
    # reversal's data against the negated target
    verify_calls = _counting(monkeypatch, "verify_realization")
    rng = random.Random(14)
    for case in range(20):
        distinct = rng.sample((2, 3, 4, 5, 6, 7, 8, 9, 10, 12), rng.randint(5, 7))
        alphas = distinct + rng.sample(distinct, case % 2)
        rng.shuffle(alphas)
        bounds = {"max_r": 2 + case % 4, "alphas": tuple(alphas), "max_beta": 1}
        pool = [(a, b) for a in alphas for b in (-1, 1)]
        if case % 5 == 0:
            target = StandardForm(())
        else:
            target = standard_form_of(seifert(*rng.choices(pool, k=bounds["max_r"])))
        verify_calls.clear()
        hits = exhaustive_search(target, **bounds)
        checked = {_decided_key(call, target) for call in verify_calls}
        assert len(verify_calls) == len(checked), (target.to_json(), bounds)
        verify_calls.clear()
        assert hits == _unfiltered_search(target, **bounds), (target.to_json(), bounds)
        assert checked == {_manifold_key(S) for S, _ in verify_calls}
        assert hits or target.atoms  # the trivial target always has r = 1 hits


@st.composite
def same_manifold(draw):
    """Valid S with r <= 8 and alpha <= 60, and S' naming the same manifold:
    b_i += k_i a_i with sum k_i = 0, pairs permuted, genus changed."""
    pair = st.tuples(st.integers(2, 60), st.integers(-60, 60)).filter(
        lambda ab: gcd(*ab) == 1
    )
    pairs = draw(st.lists(pair, min_size=2, max_size=8))
    ks = draw(st.lists(st.integers(-3, 3), min_size=len(pairs) - 1, max_size=len(pairs) - 1))
    ks.append(-sum(ks))
    moved = draw(st.permutations([(a, b + k * a) for (a, b), k in zip(pairs, ks)]))
    genera = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return SeifertData(genera[0], tuple(pairs)), SeifertData(genera[1], tuple(moved))


@settings(max_examples=150, deadline=None)
@given(same_manifold())
def test_search_memo_key_names_one_pairing(data):
    # exhaustive_search decides one candidate per key (sorted (a, b mod a), D);
    # candidates sharing a key are the same manifold, so share the verdict
    S, T = data
    assert _manifold_key(S) == _manifold_key(T)  # eps included
    assert is_isomorphic(standard_form_of(S), standard_form_of(T))
    # the per-prime record is kept once per (S, p) and equals a fresh one
    for p in relevant_primes(S):
        dec = local_orders(S, p)
        assert local_orders(S, p) is dec and S.local[p] is dec
        assert dec == local_orders(SeifertData(S.genus, S.pairs), p)


@pytest.mark.parametrize(
    "bounds",
    [
        {"max_r": 0, "alphas": (2,), "max_beta": 1},
        {"max_r": 2, "alphas": (2,), "max_beta": 0},
        {"max_r": 2, "alphas": (0, 2), "max_beta": 1},
        {"max_r": 2, "alphas": (1, 2), "max_beta": 1},
        {"max_r": 2, "alphas": (-2, 2), "max_beta": 1},
        {"max_r": 2, "alphas": range(2, 2), "max_beta": 1},
    ],
)
def test_exhaustive_search_rejects_bad_bounds(bounds):
    # refused up front, not answered by an empty list or a late failure
    with pytest.raises(InvalidDataError, match="search bounds"):
        exhaustive_search(StandardForm(()), **bounds)


def _counting(monkeypatch, name):
    """Rebind realize.<name> to record the positional arguments of each call."""
    calls = []
    inner = getattr(realize_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(realize_module, name, counted)
    return calls


def test_exhaustive_search_work_guard(monkeypatch):
    # the benchmark's `wide` bounds; counts, unlike times, do not depend on the host
    target = sf(Cyc(2, 2, 3), E0(1))
    bounds = {"max_r": 4, "alphas": range(2, 5), "max_beta": 7}
    betas = range(-bounds["max_beta"], bounds["max_beta"] + 1)
    pool = sum(1 for a in bounds["alphas"] for b in betas if b and gcd(a, b) == 1)
    candidates = sum(comb(pool + r - 1, r) for r in range(1, bounds["max_r"] + 1))
    verify_calls = _counting(monkeypatch, "verify_realization")
    reference = _unfiltered_search(target, **bounds)
    assert len(verify_calls) == 46
    verify_calls.clear()
    builds = _counting(monkeypatch, "SeifertData")
    assert exhaustive_search(target, **bounds) == reference
    # the 46 reference checks reach 2 manifolds, each checked once; besides
    # the reported candidates only the rejected manifolds are built
    assert len(verify_calls) == 2
    rejected = {_manifold_key(S) for S, _ in verify_calls} - {_manifold_key(S) for S in reference}
    assert len(builds) == len(reference) + len(rejected)
    assert len(builds) <= candidates / 100


# the benchmark's search catalogue: its bound shapes and their targets
SEARCH_SHAPES = {
    "wide": (
        {"max_r": 4, "alphas": range(2, 5), "max_beta": 7},
        [
            sf(Cyc(2, 2, 3), E0(1)),
            sf(E0(2), E0(1)),
            sf(Cyc(2, 1, 1), Cyc(2, 1, 1)),
            sf(E1(2)),
            sf(Cyc(3, 1, 1)),
            sf(E0(2), Cyc(2, 1, 1)),
        ],
    ),
    "deep": (
        {"max_r": 5, "alphas": range(2, 5), "max_beta": 3},
        [
            sf(E0(2), E0(1)),
            sf(E0(2), E0(2)),
            sf(E1(2), E0(2)),
            sf(E0(2), Cyc(2, 2, 1), Cyc(2, 2, 1)),
            sf(E1(2), Cyc(2, 2, 1), Cyc(2, 2, 1)),
            sf(*[Cyc(2, 2, 1)] * 3, Cyc(2, 2, 3)),
        ],
    ),
}


@pytest.mark.parametrize("shape, checks, invariants", [("wide", 35, 25), ("deep", 34, 17)])
def test_search_reads_one_invariant_per_pair_of_orientations(
    monkeypatch, shape, checks, invariants
):
    # a manifold and its reversal share one data-level invariant: deciding
    # each from its own data computed 47 (wide) and 34 (deep) invariants for
    # the same checks
    import linkform.pairing as pairing

    verify_calls = _counting(monkeypatch, "verify_realization")
    computed = Counter()
    read = pairing.local_invariant_from_data
    monkeypatch.setattr(
        pairing,
        "local_invariant_from_data",
        lambda S, p: computed.update([(S.pairs, p)]) or read(S, p),
    )
    bounds, targets = SEARCH_SHAPES[shape]
    total = 0
    for target in targets:
        computed.clear()
        exhaustive_search(target, **bounds)
        assert all(n == 1 for n in computed.values())  # once per datum and prime
        total += len(computed)
    assert len(verify_calls) == checks and total == invariants


def test_nonrealizable_search_to_r6(monkeypatch):
    # criterion 9 one cone point further: about 590k candidates, within reach
    # since exhaustive_search prunes by integer invariants before any exact
    # work; the 2626 candidates that pass the prunes are 25 manifolds
    verify_calls = _counting(monkeypatch, "verify_realization")
    rep = run_suite(
        "search-nonrealizable",
        RunConfig(seed=0, max_r=6, max_alpha=8, max_beta=7),
    )
    assert rep["ok"], rep["failures"][:3]
    assert rep["even_even_hits"] == 0
    assert rep["nil_data_found"]
    assert rep["nil_class_hits"] == 23
    assert len(verify_calls) <= 25


def test_nonrealizable_search_to_r8(monkeypatch, time_budget):
    # criterion 9 at r = 8: the local-order prune leaves no alpha multiset
    # with more than 6 cone points, and the beta join reaches the 19
    # manifolds left within a fraction of a second
    verify_calls = _counting(monkeypatch, "verify_realization")
    with time_budget(5):
        hits = exhaustive_search(sf(E0(2), E0(1)), max_r=8, alphas=(2, 4, 8), max_beta=7)
    assert hits == []
    assert len(verify_calls) == 19


def test_nonrealizable_search_to_r7():
    # criterion 9 two cone points further: about 2.6M candidates
    hits = exhaustive_search(sf(E0(2), E0(1)), max_r=7, alphas=(2, 4, 8), max_beta=7)
    assert hits == []
