import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest

from linkform.arith import factorize
from linkform.errors import InvalidDataError, SearchBoundExceeded, UnsupportedError
from linkform.pairing import Cyc, E0, E1, StandardForm, standard_form_gram, standard_form_of
from linkform.seifert import SeifertData, euler_invariant, seifert
from linkform.witt import (
    WittElement,
    metabolic_oracle,
    unit_class_witt,
    witt_cyclic,
    witt_pairing,
    witt_rational,
    witt_seifert,
)


def sf(*atoms):
    return StandardForm.of(atoms)


def test_witt_cyclic_even_level_vanishes():
    assert witt_cyclic(3, 2, 1).is_zero()
    assert witt_cyclic(2, 4, 7).is_zero()


def test_witt_cyclic_examples():
    assert witt_cyclic(2, 1, 1) == WittElement.of({2: 1})
    w = witt_cyclic(3, 1, 1)
    assert w == WittElement.of({3: 1})
    assert not (w + w).is_zero()  # order 4 in the p=3 local group
    assert (w + w + w + w).is_zero()
    u = witt_cyclic(5, 1, 2)  # 2 is a nonresidue mod 5
    assert u == WittElement.of({5: 2})  # x + 2y for (x, y) = (0, 1)
    assert (u + u).is_zero()


def test_witt_cyclic_rejects_nonunit():
    with pytest.raises(InvalidDataError):
        witt_cyclic(3, 1, 6)


def test_witt_rational_examples():
    w = witt_rational(Fraction(1, 6))
    assert w.local(2) != 0 and w.local(3) != 0
    assert witt_rational(Fraction(1, 9)).is_zero()
    assert witt_rational(Fraction(5, 1)).is_zero()


def test_witt_rational_matches_restriction():
    # the 3-part of 1/6 on Z/6 is <2/3> since the order-3 subgroup is 2*Z/6
    w = witt_rational(Fraction(1, 6))
    assert w.local(3) == witt_cyclic(3, 1, 2).local(3)


def test_witt_pairing_atoms():
    assert witt_pairing(sf(E0(2))).is_zero()
    assert witt_pairing(sf(E1(2))).is_zero()
    four = sf(*(Cyc.make(3, 1, 1) for _ in range(4)))
    assert witt_pairing(four).is_zero()
    two = sf(Cyc.make(3, 1, 1), Cyc.make(3, 1, 1))
    assert not witt_pairing(two).is_zero()


def test_e1_metabolizer_exists():
    ok, gens = metabolic_oracle(standard_form_gram(sf(E1(2)), 2))
    assert ok and gens


def test_metabolic_oracle_examples():
    ok, gens = metabolic_oracle(standard_form_gram(sf(E0(1)), 2))
    assert ok and len(gens) >= 1
    two_halves = standard_form_gram(sf(Cyc.make(2, 1, 1), Cyc.make(2, 1, 1)), 2)
    ok, gens = metabolic_oracle(two_halves)
    assert ok and gens == [[1, 1]]
    ok, gens = metabolic_oracle(standard_form_gram(sf(Cyc.make(3, 1, 1)), 3))
    assert not ok and gens is None


def test_metabolic_oracle_bound():
    big = standard_form_gram(sf(*(Cyc.make(2, 3, 1) for _ in range(6))), 2)
    with pytest.raises(SearchBoundExceeded):
        metabolic_oracle(big, bound=2**10)


def test_metabolic_oracle_certifies_witt_zero():
    # orthogonal sum of a small pairing with its negative is metabolic
    base = sf(Cyc.make(3, 1, 1), Cyc.make(3, 1, 2))
    doubled = base + base.negated()
    ok, _ = metabolic_oracle(standard_form_gram(doubled, 3), bound=2**16)
    assert ok
    assert witt_pairing(doubled).is_zero()


def test_witt_seifert_flat_example():
    S = seifert((3, 1), (3, 1), (3, -2))
    # -(w(1/3) + w(1/3) + w(-2/3)): each summand is the class of a square
    w = witt_seifert(S)
    assert w.local(3) == 1  # -3 = 1 mod 4
    assert w == witt_pairing(standard_form_of(S))


def test_witt_seifert_sphere_example():
    S = seifert((9, -4), (3, 1))
    w = witt_seifert(S)
    # -w(1/9) - w(-4/9) - w(1/3) = -w(1/3)
    assert w == -witt_rational(Fraction(1, 3))
    assert w == witt_pairing(standard_form_of(S))


def test_witt_seifert_nontrivial_when_rp_odd_flat():
    S = seifert((3, 1), (3, 1), (3, -2))
    assert not witt_seifert(S).is_zero()


def test_witt_additive_over_flat_fibre_sums():
    from linkform.seifert import fibre_sum

    A = seifert((3, 1), (3, 1), (3, -2))
    B = seifert((5, 1), (5, 1), (5, 2), (5, -4))  # eps = 0: 1+1+2-4
    assert witt_seifert(fibre_sum(A, B)) == witt_seifert(A) + witt_seifert(B)


def _witt_seifert_reference(S):
    """The term-by-term fold: -(w(1/(P*Q)) + sum_i w(beta_i/alpha_i)) with
    one WittElement sum per term, eps = P/Q in lowest terms."""
    eps = euler_invariant(S)
    total = WittElement.zero()
    if eps != 0:
        total = total + witt_rational(Fraction(1, eps.numerator * eps.denominator))
    for a, b in S.pairs:
        total = total + witt_rational(Fraction(b, a))
    return -total


def _random_pair(rng, max_alpha):
    while True:
        a = rng.randint(2, max_alpha)
        b = rng.randint(-3 * a, 3 * a)
        if gcd(a, b) == 1:
            return a, b


def _random_flat(rng, max_r, max_alpha):
    """Random valid data with eps = 0: the last pair cancels the others."""
    while True:
        pairs = [_random_pair(rng, max_alpha) for _ in range(rng.randint(1, max_r - 1))]
        rest = sum(Fraction(b, a) for a, b in pairs)
        if 2 <= rest.denominator <= max_alpha:
            return SeifertData(rng.randint(0, 2), (*pairs, (rest.denominator, -rest.numerator)))


def test_witt_seifert_matches_the_term_by_term_fold():
    rng = random.Random(12)
    seen = {True: 0, False: 0}
    for trial in range(600):
        if trial % 2:
            S = _random_flat(rng, 10, 1000)
        else:
            r = rng.randint(1, 10)
            S = SeifertData(rng.randint(0, 2), tuple(_random_pair(rng, 1000) for _ in range(r)))
        try:
            got = witt_seifert(S)
        except UnsupportedError:  # an Euler numerator with an unprovable prime
            with pytest.raises(UnsupportedError):
                _witt_seifert_reference(S)
            continue
        seen[euler_invariant(S) == 0] += 1
        assert got == _witt_seifert_reference(S), S
    assert seen[True] == 300 and seen[False] >= 270


def test_witt_rational_is_the_sum_of_its_cyclic_parts():
    rng = random.Random(13)
    for _ in range(1500):
        w = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))
        a, b = w.denominator, w.numerator
        want = WittElement.zero()
        for p, v in factorize(a).items():
            want = want + witt_cyclic(p, v, (b * (a // p**v)) % p**v)
        assert witt_rational(w) == want, w


def test_local_group_shapes():
    assert unit_class_witt(2, 5) == WittElement.of({2: 1})
    assert unit_class_witt(7, 3) == WittElement.of({7: 3})  # 3 is a nonresidue mod 7
    assert unit_class_witt(13, 2) == WittElement.of({13: 2})


def test_witt_json():
    w = witt_cyclic(3, 1, 1) + witt_cyclic(2, 1, 1) + witt_cyclic(5, 1, 2)
    blob = w.to_json()
    assert blob == {"2": "1", "3": "1", "5": "(0,1)"}


def _small_cyclic_forms(p):
    """Forms of rank 1 or 2 of cyclic atoms at p: k <= 3 at p = 2, k <= 2 at
    p = 3, k = 1 otherwise, every unit."""
    kmax = {2: 3, 3: 2}.get(p, 1)
    atoms = sorted(
        {Cyc.make(p, k, a) for k in range(1, kmax + 1) for a in range(1, p**k) if a % p},
        key=lambda c: (c.k, c.a),
    )
    return [sf(*c) for r in (1, 2) for c in combinations_with_replacement(atoms, r)]


def test_witt_addition_matches_the_metabolic_oracle():
    # f and g have one Witt class exactly when f + (-g) has a metabolizer
    pairs = 0
    for p in (2, 3, 5, 7, 13):
        forms = _small_cyclic_forms(p)
        for f in forms:
            for g in forms:
                total = f + g.negated()
                if total.group_order() > 2**9:
                    continue
                pairs += 1
                metabolic, _ = metabolic_oracle(standard_form_gram(total, p))
                assert (witt_pairing(f) == witt_pairing(g)) == metabolic, (f, g)
    assert pairs == 1758
