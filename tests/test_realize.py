import importlib
import itertools
import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest

from linkform.arith import padic_val
from linkform.errors import UnrealizableError, UnsupportedError
from linkform.linking import gram_matrix
from linkform.pairing import (
    Cyc,
    E0,
    E1,
    StandardForm,
    brute_force_isomorphic,
    standard_form_gram,
    standard_form_of,
)
from linkform.realize import (
    even_component_criterion,
    even_component_report,
    exhaustive_search,
    realize,
    realize_mixed,
    realize_odd_flat,
    realize_odd_sphere,
    realize_two,
    verify_realization,
)
from linkform.seifert import SeifertData, euler_invariant, seifert
from linkform.torsion import local_orders
from linkform.verify import RunConfig, run_suite


# the package re-exports the function realize under the submodule's name
realize_module = importlib.import_module("linkform.realize")


def sf(*atoms):
    return StandardForm.of(atoms)


# ---------------------------------------------------------------------------
# flat realizations at odd primes


def test_odd_flat_rank1_p5():
    r = realize_odd_flat(sf(Cyc.make(5, 1, 1)), 5)
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    assert sorted(r.seifert.pairs) == [(5, -3), (5, 1), (5, 2)]


def test_odd_flat_p3_square_needs_bumped_orders():
    r = realize_odd_flat(sf(Cyc.make(3, 2, 1), Cyc.make(3, 2, 1)), 3)
    assert r.verified and "bump" in r.construction
    assert sorted(a for a, _ in r.seifert.pairs) == [9, 9, 27, 27]
    # same rank and exponent with nonsquare class stays at equal cone orders
    r2 = realize_odd_flat(sf(Cyc.make(3, 2, 1), Cyc.make(3, 2, 2)), 3)
    assert r2.verified and set(a for a, _ in r2.seifert.pairs) == {9}


def test_odd_flat_multi_block():
    target = sf(Cyc.make(5, 2, 1), Cyc.make(5, 2, 2), Cyc.make(5, 1, 1))
    r = realize_odd_flat(target, 5)
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    assert sorted(a for a, _ in r.seifert.pairs) == [5, 25, 25, 25, 25]


def test_odd_flat_rejects_wrong_prime():
    with pytest.raises(UnsupportedError):
        realize_odd_flat(sf(Cyc.make(3, 1, 1)), 5)


# ---------------------------------------------------------------------------
# rational homology spheres, odd order


def test_odd_sphere_lens():
    r = realize_odd_sphere(sf(Cyc.make(3, 1, 1)))
    assert r.verified
    assert r.seifert.r == 2  # a lens space
    assert euler_invariant(r.seifert) == Fraction(1, 9)


def test_odd_sphere_euler_is_one_over_big_alpha():
    target = sf(Cyc.make(3, 1, 1), Cyc.make(5, 1, 2))
    r = realize_odd_sphere(target)
    assert r.verified
    eps = euler_invariant(r.seifert)
    assert eps.numerator == 1
    assert eps.denominator == r.seifert.pairs[0][0]


def test_odd_sphere_homogeneous_rank2_square():
    # this class also has the dedicated bumped-order realization
    target = sf(Cyc.make(3, 1, 1), Cyc.make(3, 1, 1))
    bumped = seifert((9, 7), (3, -1), (3, -1))
    assert verify_realization(bumped, target)
    r = realize_odd_sphere(target)
    assert r.verified


def test_odd_sphere_multi_block_classes():
    rng = random.Random(2)
    for _ in range(8):
        atoms = []
        for p in (3, 7):
            for k in (2, 1):
                if rng.random() < 0.7:
                    atoms.append(Cyc.make(p, k, rng.choice([1, 2, p + 1, p + 2])))
        if not atoms:
            continue
        target = sf(*atoms)
        r = realize_odd_sphere(target)
        assert r.verified, target


# ---------------------------------------------------------------------------
# 2-primary homogeneous


def test_two_homog_e0_squared():
    r = realize_two(sf(E0(2)), "flat")
    assert r.seifert.pairs == ((4, -1), (4, 1), (4, -1), (4, 1))
    assert r.verified


def test_two_homog_cyc233_sphere():
    r = realize_two(sf(Cyc.make(2, 3, 3)), "sphere")
    assert r.seifert.pairs == ((32, -3), (8, 1))
    assert r.verified


def test_two_homog_cyc211():
    r = realize_two(sf(Cyc.make(2, 1, 1)), "sphere")
    assert r.verified
    assert euler_invariant(r.seifert) != 0
    r = realize_two(sf(Cyc.make(2, 1, 1)), "flat")
    assert r.verified and euler_invariant(r.seifert) == 0


def test_two_homog_all_lens_classes():
    for k in (1, 2, 3):
        units = [1] if k == 1 else ([1, 3] if k == 2 else [1, 3, 5, 7])
        for a in units:
            r = realize_two(sf(Cyc.make(2, k, a)), "sphere")
            assert r.verified, (k, a)
            assert euler_invariant(r.seifert) != 0


def test_two_homog_e1_both_modes():
    for mode in ("flat", "sphere"):
        r = realize_two(sf(E1(2)), mode)
        assert r.verified, mode


def test_gap_realization():
    r = realize_two(sf(Cyc.make(2, 3, 3), Cyc.make(2, 1, 1)))
    assert r.verified
    alphas = sorted(a for a, _ in r.seifert.pairs)
    assert alphas[0] == 2 and alphas[-1] == 32


def test_gap_even_top():
    r = realize_two(sf(E0(3), Cyc.make(2, 1, 1)))
    assert r.verified


def test_gap_sphere_mode():
    r = realize_two(sf(Cyc.make(2, 4, 3), Cyc.make(2, 2, 1)), "sphere")
    assert r.verified
    assert euler_invariant(r.seifert) != 0


def test_gap_condition_violated():
    # refused as outside the constructions, not as impossible: the target is
    # realized by M(0;(2,-5),(4,7),(8,5)) (see WITNESSES)
    with pytest.raises(UnrealizableError, match="outside the implemented"):
        realize_two(sf(Cyc.make(2, 2, 1), Cyc.make(2, 1, 1)))


def test_even_below_top_refused_by_constructions():
    with pytest.raises(UnrealizableError, match="outside the implemented"):
        realize(sf(E0(2), E0(1)))
    with pytest.raises(UnrealizableError, match="outside the implemented"):
        realize(sf(Cyc.make(2, 4, 1), E0(2)))


# targets that realize refuses, each with Seifert data realizing it
WITNESSES = [
    (sf(Cyc.make(2, 2, 1), Cyc.make(2, 1, 1)), seifert((2, -5), (4, 7), (8, 5))),
    (sf(Cyc.make(2, 2, 3), E0(1)), seifert((2, 1), (2, 1), (2, 1), (2, -1))),
    (sf(Cyc.make(2, 3, 1), E0(2)), seifert((4, -7), (4, -5), (4, 3), (4, 7))),
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
# benchmark's realize catalogue, plus the bumped-order odd-flat recipe; each
# row is (atoms, mode, construction, pairs) as recorded before the 2-primary
# constructions were merged into realize_two

C = Cyc.make
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
    target = sf(Cyc.make(3, 1, 1), E0(2))
    r = realize_mixed(target, "flat")
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    alphas = {a for a, _ in r.seifert.pairs}
    assert alphas == {3, 4}


def test_mixed_pure_odd_delegates():
    target = sf(Cyc.make(3, 1, 1))
    assert realize_mixed(target, "flat").verified


def test_mixed_inhomogeneous_two_part_redirects():
    with pytest.raises(UnrealizableError):
        realize_mixed(sf(Cyc.make(2, 3, 1), Cyc.make(2, 1, 1), Cyc.make(3, 1, 1)), "flat")


def test_mixed_sphere_with_odd_two_part():
    target = sf(Cyc.make(3, 1, 1), Cyc.make(2, 2, 3))
    r = realize_mixed(target, "sphere")
    assert r.verified
    assert euler_invariant(r.seifert) != 0


def test_mixed_sphere_with_level3_two_part():
    # slot corrections interact pairwise here; exercises the compensated solver
    target = sf(
        Cyc.make(2, 3, 3), Cyc.make(2, 3, 3), Cyc.make(2, 3, 3), Cyc.make(3, 1, 1)
    )
    r = realize_mixed(target, "sphere")
    assert r.verified
    assert euler_invariant(r.seifert).numerator == 1


def test_mixed_sphere_even_two_part_refused():
    with pytest.raises(UnrealizableError):
        realize_mixed(sf(Cyc.make(3, 1, 1), E0(2)), "sphere")


def test_dispatcher_trivial_target():
    r = realize(StandardForm.empty())
    assert r.verified and standard_form_of(r.seifert) == StandardForm.empty()
    r = realize(StandardForm.empty(), "sphere")
    assert r.verified and euler_invariant(r.seifert) != 0


def test_dispatcher_multi_prime_flat():
    target = sf(Cyc.make(3, 1, 1), Cyc.make(5, 1, 2), Cyc.make(7, 2, 3))
    r = realize(target)  # auto prefers flat
    assert r.verified
    assert euler_invariant(r.seifert) == 0
    r = realize(target, "sphere")
    assert r.verified and euler_invariant(r.seifert) != 0


def test_dispatcher_gap_plus_odd_flat():
    target = sf(Cyc.make(2, 3, 3), Cyc.make(2, 1, 1), Cyc.make(3, 1, 1))
    r = realize(target, "flat")
    assert r.verified


def test_negated_target_realized_by_negated_betas():
    target = sf(Cyc.make(5, 1, 2))
    r = realize(target, "flat")
    neg = seifert(*((a, -b) for a, b in r.seifert.pairs))
    assert verify_realization(neg, target.negated())


# ---------------------------------------------------------------------------
# obstruction and search


def test_even_component_criterion_examples():
    assert even_component_criterion(
        seifert((2, 1), (2, 1), (2, 1), (2, 1), (2, -1), (2, -1), (2, -1), (2, -1))
    )
    assert not even_component_criterion(seifert((4, 1), (4, 1), (4, 1), (4, 1)))
    # the quarter-turn Nil space: criterion false yet an even component exists
    rep = even_component_report(seifert((2, 1), (2, 1), (2, 1), (2, -1)))
    assert rep["criterion"] is False
    assert rep["classified_even"] is True
    assert rep["agree"] is False


def test_exhaustive_search_trivial_target():
    hits = exhaustive_search(StandardForm.empty(), max_r=2, alphas=(2, 3), max_beta=2)
    found = {tuple(sorted(S.pairs)) for S in hits}
    assert ((2, -1), (2, 1)) in found
    assert ((2, 1),) in found  # r=1 with |beta| = 1 has trivial homology


def test_exhaustive_search_small_positive_control():
    target = sf(Cyc.make(2, 2, 3), E0(1))
    hits = exhaustive_search(target, max_r=4, alphas=(2,), max_beta=1)
    assert any(
        tuple(sorted(S.pairs)) == ((2, -1), (2, 1), (2, 1), (2, 1)) for S in hits
    )


def test_verify_realization_rejects_extra_torsion():
    # correct 2-part but stray torsion at 3 must fail
    assert not verify_realization(seifert((4, 1), (2, 1)), sf(Cyc.make(2, 1, 1)))


# ---------------------------------------------------------------------------
# the torsion-order prefilter of exhaustive_search


def _unfiltered_search(target, *, max_r, alphas, max_beta):
    """exhaustive_search without its torsion-order prefilter: every r >= 2
    candidate goes through the local-order check and verify_realization."""
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
            primes = realize_module.relevant_primes(S)
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
    "trivial": StandardForm.empty(),
    "nil-class": sf(Cyc.make(2, 2, 3), E0(1)),
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
        # an eps = 0 hit: N = 0, so it must pass the prefilter untouched
        assert SeifertData(0, ((2, -1), (2, 1))) in hits
    if name == "rank-4 2-group":
        assert len(target.group_structure()) == 4
    if name != "even-even":
        assert hits


def _counting(monkeypatch, name):
    calls = [0]
    inner = getattr(realize_module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(realize_module, name, counted)
    return calls


def test_exhaustive_search_prefilter_work_guard(monkeypatch):
    # the benchmark's `wide` bounds; counts, unlike times, do not depend on the host
    target = sf(Cyc.make(2, 2, 3), E0(1))
    bounds = {"max_r": 4, "alphas": range(2, 5), "max_beta": 7}
    betas = range(-bounds["max_beta"], bounds["max_beta"] + 1)
    pool = sum(1 for a in bounds["alphas"] for b in betas if b and gcd(a, b) == 1)
    candidates = sum(comb(pool + r - 1, r) for r in range(1, bounds["max_r"] + 1))
    primes_calls = _counting(monkeypatch, "relevant_primes")
    verify_calls = _counting(monkeypatch, "verify_realization")
    reference = _unfiltered_search(target, **bounds)
    reference_verify = verify_calls[0]
    primes_calls[0] = verify_calls[0] = 0
    assert exhaustive_search(target, **bounds) == reference
    assert primes_calls[0] <= candidates / 10
    assert verify_calls[0] == reference_verify


def test_nonrealizable_search_to_r6():
    # criterion 9 one cone point further: about 590k candidates, within reach
    # since exhaustive_search rejects by torsion order before any exact work
    rep = run_suite(
        "search-nonrealizable",
        RunConfig(seed=0, max_r=6, max_alpha=8, max_beta=7),
    )
    assert rep["ok"], rep["failures"][:3]
    assert rep["even_even_hits"] == 0
    assert rep["nil_data_found"]
    assert rep["nil_class_hits"] == 23
