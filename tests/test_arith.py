import inspect
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from linkform import arith
from linkform.arith import (
    ext_gcd,
    factorize,
    fmt_rational,
    is_prime,
    least_nonresidue,
    legendre,
    p_part,
    padic_val,
    square_class,
)
from linkform.errors import InvalidDataError, UnsupportedError


def test_padic_val_examples():
    assert padic_val(18, 3) == 2
    assert padic_val(1, 5) == 0
    assert padic_val(Fraction(-1, 9), 3) == -2


def test_padic_val_zero_rejected():
    # both the integer fast path and the Fraction path refuse 0
    with pytest.raises(InvalidDataError):
        padic_val(0, 3)
    with pytest.raises(InvalidDataError):
        padic_val(Fraction(0), 3)


@given(
    st.integers(1, 2**80) | st.integers(2**64, 2**200),
    st.integers(0, 70),
    st.sampled_from([-1, 1]),
    st.sampled_from([2, 3, 5, 7, 2**61 - 1]),
)
def test_padic_val_integers_match_fraction_path(u, e, sign, p):
    # n = sign * u * p^e, negative and beyond 2^64 included
    n = sign * u * p**e
    assert type(n) is int
    assert padic_val(n, p) == padic_val(Fraction(n), p) >= e


@given(
    st.integers(min_value=-4000, max_value=4000).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=4000),
    st.sampled_from([2, 3, 5, 7]),
)
def test_val_unit_factorization(num, den, p):
    q = Fraction(num, den)
    unit = q / Fraction(p) ** padic_val(q, p)
    assert unit.numerator % p and unit.denominator % p


def _squares_mod(p):
    return {x * x % p for x in range(1, p)}


def test_square_class_examples():
    assert square_class(4, 5) == 1
    # -6 = 4 mod 5, and 4 is in the set of squares mod 5 by enumeration
    assert (-6) % 5 in _squares_mod(5)
    assert square_class(-6, 5) == 1
    assert square_class(3, 2) == 3


@given(st.sampled_from([3, 5, 7, 11]), st.data())
def test_square_class_matches_enumeration(p, data):
    u = data.draw(st.integers(min_value=1, max_value=10 * p).filter(lambda x: x % p))
    want = 1 if u % p in _squares_mod(p) else -1
    assert square_class(u, p) == want


@given(
    st.sampled_from([3, 5, 7]),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
)
def test_square_class_multiplicative(p, u, v):
    if u % p == 0 or v % p == 0:
        return
    assert square_class(u * v, p) == square_class(u, p) * square_class(v, p)


@given(st.integers(min_value=3, max_value=200).filter(lambda x: x % 2))
def test_square_class_multiplicative_at_two(u):
    v = 2 * u + 1  # another odd unit
    assert square_class(u * v, 2) == (square_class(u, 2) * square_class(v, 2)) % 8


def test_ext_gcd_examples():
    assert ext_gcd(2, 1) == (1, 0, 1)
    assert ext_gcd(9, 7) == (1, -3, 4)
    assert ext_gcd(6, 0) == (6, 1, 0)


def test_ext_gcd_zero_zero():
    with pytest.raises(InvalidDataError):
        ext_gcd(0, 0)


@given(st.integers(-300, 300), st.integers(-300, 300))
def test_ext_gcd_bezout_and_minimality(a, b):
    if a == 0 and b == 0:
        return
    g, m, n = ext_gcd(a, b)
    assert g > 0 and m * a + n * b == g
    if a != 0:
        # brute-force scan over representatives: no valid n has smaller |n|
        # (ties broken toward positive n)
        for cand in range(-abs(n), abs(n) + 1):
            if (g - cand * b) % a == 0 and (abs(cand), -cand) < (abs(n), -n):
                pytest.fail(f"smaller n={cand} exists for ({a},{b})")


def test_least_nonresidue():
    assert least_nonresidue(3) == 2
    assert least_nonresidue(5) == 2
    assert least_nonresidue(7) == 3
    assert legendre(least_nonresidue(11), 11) == -1


def test_p_part_splits_qmodz():
    x = Fraction(5, 12)
    assert p_part(5, 12, 2, 4) == 3 and p_part(5, 12, 2, 8) == 6  # 3/4
    assert p_part(5, 12, 3, 3) == 2  # 2/3
    assert (Fraction(3, 4) + Fraction(2, 3)) % 1 == x
    assert p_part(5, 12, 5, 5) == p_part(5, 12, 5, 1) == 0
    assert p_part(-3, 1, 2, 4) == 0


@given(
    st.fractions(max_denominator=500),
    st.integers(-30, 30).filter(bool),
    st.sampled_from([2, 3, 5]),
)
def test_p_part_reads_unreduced_quotients(x, k, p):
    # n/d need not be reduced: k n / k d has the same p-part, or the same refusal
    with pytest.raises(InvalidDataError, match="/0"):
        p_part(x.numerator, 0, p, p)
    for N in (1, p, p**3):
        try:
            want = p_part(x.numerator, x.denominator, p, N)
        except InvalidDataError:
            with pytest.raises(InvalidDataError, match=f"not a multiple of 1/{N}"):
                p_part(k * x.numerator, k * x.denominator, p, N)
        else:
            assert p_part(k * x.numerator, k * x.denominator, p, N) == want


@given(st.fractions(max_denominator=500))
def test_p_part_reassembles(x):
    # N = the p-power of the denominator: the smallest modulus p_part accepts
    powers = {p: p**e for p, e in factorize(x.denominator).items()}
    parts = [Fraction(p_part(x.numerator, x.denominator, p, N), N) for p, N in powers.items()]
    assert sum(parts, Fraction(0)) % 1 == x % 1
    assert all(0 <= v < 1 for v in parts)


def test_rational_serialization():
    assert fmt_rational(Fraction(3, 4)) == "3/4"
    assert fmt_rational(Fraction(-5, 1)) == "-5"


def test_factorize_large_inputs_finish(time_budget):
    # trial division used to run for more than 15 s on 2^61 - 1
    p, q = 1_000_000_007, 3_000_000_019
    with time_budget(5):
        assert factorize(2**61 - 1) == {2**61 - 1: 1}
        assert factorize(p * q) == {p: 1, q: 1}
        assert factorize(-(2**5) * 3 * p * p * q) == {2: 5, 3: 1, p: 2, q: 1}


@pytest.mark.parametrize(
    "n, factors",
    [
        # Carmichael numbers
        (561, {3: 1, 11: 1, 17: 1}),
        (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
        (3215031751, {151: 1, 751: 1, 28351: 1}),
        # strong pseudoprimes to the first 9 and 12 prime bases, with no
        # factor below 2^10, so Miller-Rabin itself must find them composite
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
        (318665857834031151167461, {399165290221: 1, 798330580441: 1}),
    ],
)
def test_pseudoprimes_are_composite(n, factors, time_budget):
    with time_budget(10):
        assert factorize(n) == factors
        assert not is_prime(n)


def test_factorize_agrees_with_sympy():
    rng = random.Random(61)
    sample = [rng.randrange(1, 10**18) for _ in range(200)]
    # two factors above the trial-division limit: rho must split them
    sample += [
        sympy.nextprime(rng.randrange(2**20, 10**9)) * rng.randrange(2**20, 10**9)
        for _ in range(50)
    ]
    for n in sample:
        assert factorize(n) == sympy.factorint(n), n


def test_is_prime_agrees_with_sympy():
    rng = random.Random(62)
    sample = list(range(-3, 3000)) + list(range(2**20 - 300, 2**20 + 300))
    sample += [rng.randrange(2**20, 10**18) | 1 for _ in range(300)]
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


def test_unprovable_primes_are_refused(monkeypatch):
    # 3317044064679887385961981 is the least composite passing Miller-Rabin on
    # every base 2..41: at and above it a prime needs a Pocklington
    # certificate and a composite a rho split
    psp = 3317044064679887385961981
    assert factorize(2 * psp) == {2: 1, 1287836182261: 1, 2575672364521: 1}
    # 10^30 + 57 is prime, certified by 10^30 + 56 = 2^3 3 79043 3998741 290240017 454197539
    assert factorize(10**30 + 56) == {
        2: 3, 3: 1, 79043: 1, 3998741: 1, 290240017: 1, 454197539: 1
    }
    assert is_prime(10**30 + 57) and factorize(10**30 + 57) == {10**30 + 57: 1}
    assert not is_prime(psp * 3)  # composite is still exact
    # with too small a rho budget neither can be shown: a refusal, not a guess
    monkeypatch.setattr(arith, "_RHO_STEPS", 16)
    for n in (2 * psp, 10**30 + 57):
        with pytest.raises(UnsupportedError, match="cannot prove"):
            factorize(n)


def test_a_pseudoprime_above_the_bound_is_split_once():
    # _proved_prime splits it to show it composite; factorize reuses that split
    psp = 3317044064679887385961981
    rho = inspect.unwrap(arith._brent_factor).__code__
    split = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is rho:
            split.append(frame.f_locals["n"])

    arith._brent_factor.cache_clear()
    sys.setprofile(profile)
    try:
        assert factorize(2 * psp) == {2: 1, 1287836182261: 1, 2575672364521: 1}
    finally:
        sys.setprofile(None)
    assert split.count(psp) == 1


def test_rho_refuses_past_its_step_budget(monkeypatch):
    n = 1_000_000_007 * 3_000_000_019  # x^2 + 1 splits it in the round of 2^14
    for steps in (64, 1 << 13):
        monkeypatch.setattr(arith, "_RHO_STEPS", steps)
        with pytest.raises(UnsupportedError, match="Pollard rho"):
            factorize(n)
    # a factor found in the last round the budget allows is kept
    monkeypatch.setattr(arith, "_RHO_STEPS", 1 << 14)
    assert factorize(n) == {1_000_000_007: 1, 3_000_000_019: 1}
