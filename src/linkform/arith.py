"""Exact rational and modular arithmetic underpinning the other modules.

All integers are arbitrary precision and all rationals are
``fractions.Fraction`` (always stored reduced, positive denominator).
Values of linking pairings live in Q/Z.  A p-primary value whose order
divides N = p^K is stored as the integer N * value mod N, the form
``p_part`` returns; ``fmt_rational`` serializes a value as "num/den".
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InvalidDataError, UnsupportedError


def as_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise InvalidDataError(f"expected an integer or Fraction, got {q!r}")


def padic_val(q, p: int) -> int:
    """p-adic valuation of a nonzero rational (negative values allowed).

    >>> padic_val(18, 3)
    2
    >>> padic_val(Fraction(-1, 9), 3)
    -2
    """
    if type(q) is int:  # the common case: no Fraction is built
        if p == 2 and q:
            return (q & -q).bit_length() - 1
        n, d = q, 1
    else:
        q = as_fraction(q)
        n, d = q.numerator, q.denominator
    if n == 0:
        raise InvalidDataError("padic_val is undefined at 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol of a mod an odd prime p (+1 square, -1 nonsquare)."""
    a %= p
    if a == 0:
        raise InvalidDataError(f"{a} is not a unit mod {p}")
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def square_class(u, p: int):
    """Square class of a p-adic unit.

    For odd p returns +1 or -1 (the class of the unit in F_p^x modulo
    squares).  For p = 2 returns the residue of the odd unit mod 8, which
    indexes the square classes of the 2-adic units.
    """
    u = as_fraction(u)
    if u == 0 or padic_val(u, p) != 0:
        raise InvalidDataError(f"{u} is not a unit at p={p}")
    if p == 2:
        return (u.numerator * pow(u.denominator, -1, 8)) % 8
    return legendre(u.numerator * u.denominator, p)


def square_class_name(cls: int) -> str:
    return "square" if cls == 1 else "nonsquare"


def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue mod an odd prime."""
    u = 2
    while legendre(u, p) == 1:
        u += 1
    return u


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with a deterministic Bezout pair.

    Returns (g, m, n) with g = gcd(a, b) > 0 and m*a + n*b = g.  Among all
    valid pairs the one with minimal |n| is chosen, ties broken by n > 0.

    >>> ext_gcd(9, 7)
    (1, -3, 4)
    >>> ext_gcd(2, 1)
    (1, 0, 1)
    """
    if a == 0 and b == 0:
        raise InvalidDataError("ext_gcd(0, 0) is undefined")
    if a == 0:
        return (abs(b), 0, 1 if b > 0 else -1)
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    g, n = old_r, old_t
    if g < 0:
        g, n = -g, -n
    # all solutions differ by multiples of a/g in n; pick the canonical one
    step = abs(a) // g
    n = n % step
    if 2 * n > step:  # n - step is nearer 0; a tie keeps n > 0
        n -= step
    m = (g - n * b) // a
    assert m * a + n * b == g
    return g, m, n


_TRIAL_LIMIT = 1 << 10
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on _MR_BASES is exact below this bound (Sorenson-Webster 2017)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# rho cycle length at which one polynomial gives up: factors up to about
# 10^13 split well before it, and refusing takes about 2^24 squarings
_RHO_STEPS = 1 << 22


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, primes ascending.

    Trial division by d < 2^10 finishes every n < 2^20 on its own.  A larger
    cofactor is split by Pollard-Brent rho, and its parts are proved prime
    by _proved_prime.  A part that can be neither proved prime nor split
    raises UnsupportedError instead of being guessed prime; so does a
    composite part that rho cannot split within its step budget.
    """
    n = abs(n)
    if n == 0:
        raise InvalidDataError("cannot factorize 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n and d < _TRIAL_LIMIT:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n < d * d:  # no prime factor below d, so n is 1 or a prime
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if _proved_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _brent_factor(m, _RHO_STEPS)
            stack += [f, m // f]
    return dict(sorted(out.items()))


def _proved_prime(n: int) -> bool:
    """Primality of n >= 2, n not a base.

    Miller-Rabin on _MR_BASES is exact below _MR_EXACT_BELOW (a composite
    n < 41 fails at the base that divides it).  A larger n that passes
    every base is prime if _pocklington proves it and composite if rho
    splits it; if neither succeeds it is refused.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_EXACT_BELOW or _pocklington(n):
        return True
    try:
        _brent_factor(n, _RHO_STEPS)
    except UnsupportedError:
        raise UnsupportedError(
            f"cannot prove {n} prime: it is above the Miller-Rabin bound "
            f"{_MR_EXACT_BELOW}, with no Pocklington certificate or rho split"
        ) from None
    return False


def _pocklington(n: int) -> bool:
    """Whether a Pocklington-Lehmer certificate proves n prime.

    n - 1 is factored, and every prime q | n - 1 needs a base a among
    _MR_BASES with gcd(a^((n-1)/q) - 1, n) = 1; a^(n-1) = 1 (mod n) holds
    already, as n passed Miller-Rabin on them.  Then q^v_q(n-1) divides the
    order of a mod every prime factor f of n, so n - 1 | f - 1 and f = n.
    False when n - 1 cannot be factored or some q has no such base.
    """
    try:
        primes = factorize(n - 1)
    except UnsupportedError:
        return False
    return all(
        any(gcd(pow(a, (n - 1) // q, n) - 1, n) == 1 for a in _MR_BASES) for q in primes
    )


@lru_cache(maxsize=64)  # factorize reuses the split _proved_prime found
def _brent_factor(n: int, steps: int) -> int:
    """A proper factor of an odd composite n, by Pollard-Brent rho.

    Deterministic: the start point is 2 and the polynomial x^2 + c is
    retried with c = 1, 2, ... until the factor is proper.  Refuses with
    UnsupportedError when a polynomial's rounds of length up to ``steps``
    all end without a factor.
    """
    for c in itertools.count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
            if g == 1 and r > steps:
                raise UnsupportedError(
                    f"cannot factor {n}: Pollard rho found no factor "
                    f"within {steps} steps"
                )
        if g == n:  # the batch overshot: step through it one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=256)  # every Cyc asks about the same few primes many times
def is_prime(n: int) -> bool:
    return n >= 2 and (n in _MR_BASES or _proved_prime(n))


def bareiss(M) -> tuple[int, int]:
    """Rank of an integer matrix and the determinant of one nonsingular
    rank x rank minor, by fraction-free (Bareiss) elimination.

    Rows and columns are swapped to find pivots, so every entry stays a
    minor of M.  For a square matrix of full rank the minor is det(M).
    """
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    sign, prev = 1, 1
    for t in range(min(m, n)):
        if not A[t][t]:
            piv = next(((i, j) for i in range(t, m) for j in range(t, n) if A[i][j]), None)
            if piv is None:
                return t, sign * prev
            i, j = piv
            if i != t:
                A[t], A[i] = A[i], A[t]
                sign = -sign
            if j != t:
                for row in A:
                    row[t], row[j] = row[j], row[t]
                sign = -sign
        top, p = A[t], A[t][t]
        for i in range(t + 1, m):
            row, a = A[i], A[i][t]
            for j in range(t + 1, n):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
    return min(m, n), sign * prev


def p_part(n: int, d: int, p: int, N: int) -> int:
    """N times the p-primary component of n/d in Q/Z, reduced mod N.

    Q/Z splits as the direct sum over primes of its p-power-order subgroups.
    For d = p^e m with p not dividing m, the p-component of n/d is
    (n m^-1 mod p^e) / p^e, whether or not n/d is reduced, so the result is
    (n m^-1 mod p^e) * N / p^e.  When that is not an integer the component
    is not a multiple of 1/N, and InvalidDataError is raised: it is never
    truncated.

    >>> p_part(1, 6, 2, 4)
    2
    >>> p_part(1, 6, 3, 3)
    2
    """
    if d == 0:
        raise InvalidDataError(f"p_part of {n}/0")
    m, pe = d, 1
    while m % p == 0:
        m //= p
        pe *= p
    x = n * pow(m, -1, pe) % pe * N
    if x % pe:
        raise InvalidDataError(f"the {p}-part of {Fraction(n, d)} is not a multiple of 1/{N}")
    return x // pe


def fmt_rational(q) -> str:
    """Serialize a rational as "num/den", omitting "/den" when den = 1."""
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

