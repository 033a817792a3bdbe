"""Helpers used only by the tests: a random change of basis, the value of
the pairing on two elements, a data-level evenness predicate and random
Seifert data with large cone orders."""

import random
from fractions import Fraction
from math import gcd

from linkform.arith import padic_val
from linkform.linking import GramPairing, dot, image
from linkform.seifert import SeifertData
from linkform.torsion import local_orders


def shuffle_basis(G: GramPairing, rng: random.Random, steps: int = 12) -> GramPairing:
    """Random order-respecting change of basis; the pairing class is unchanged.

    Classification must be invariant under this.
    """
    n = G.rank
    if n == 0:
        return G
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        if rng.random() < 0.34:
            u = 1 + 2 * rng.randrange(max(1, G.orders[i] // 2))
            if gcd(u, G.orders[i]) == 1:
                T[i] = [x * u for x in T[i]]
            continue
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(1, 4)
        if G.orders[j] > G.orders[i]:
            c *= G.orders[j] // G.orders[i]
        T[i] = [x + c * y for x, y in zip(T[i], T[j])]
    # new entry (i, j) = T_i . A T_j mod N
    images = [image(G.matrix, t) for t in T]
    rows = tuple(tuple(dot(t, y) % G.modulus for y in images) for t in T)
    return GramPairing(G.prime, G.labels, G.orders, rows)


def eval_pair(G: GramPairing, x, y) -> Fraction:
    """Pairing of two elements given by generator coefficients."""
    N = G.modulus
    return Fraction(dot(x, image(G.matrix, y)) % N, N)


def even_predicate_from_data(S: SeifertData) -> bool:
    """Data-level evenness of the 2-primary pairing.

    With the pairs ordered by descending 2-adic valuation, the pairing is
    even exactly when alpha_1/alpha_i is odd for every even cone point
    order and eps is zero or alpha_1 * eps is odd.  Meaningful when the
    2-torsion is homogeneous; see pairing.parity for the matrix-level notion.
    """
    local = local_orders(S, 2)
    pairs, eps = local.pairs, local.eps
    r2 = sum(1 for a, _ in pairs if a % 2 == 0)
    if r2 == 0:
        return True
    v1 = padic_val(pairs[0][0], 2)
    if any(padic_val(pairs[i][0], 2) != v1 for i in range(r2)):
        return False
    if eps == 0:
        return True
    return padic_val(pairs[0][0] * eps.numerator, 2) == padic_val(eps.denominator, 2)


def rand_block_seifert(rng: random.Random, flat: bool, max_r: int = 10, max_alpha: int = 1000):
    """Random Seifert data with 2 <= r <= max_r and alphas <= max_alpha,
    with eps = 0 exactly if ``flat`` and eps != 0 otherwise.

    The pairs fall into one or two blocks.  Every alpha of a block divides
    the block's largest one, L, whose beta sets the block's share of eps to
    -c/L, with c = 0 for flat data and 0 < |c| <= 3 otherwise, so the
    numerator of eps stays small while the cone orders share many primes.
    """
    while True:
        r = rng.randint(2, max_r)
        split = rng.randint(2, r - 2) if r >= 4 and rng.random() < 0.5 else r
        pairs = []
        for m in (split, r - split):
            if not m:
                continue
            L = rng.randint(2, max_alpha)
            divisors = [d for d in range(2, L + 1) if L % d == 0]
            for _ in range(m - 1):
                a = rng.choice(divisors)
                b = rng.choice([b for b in range(-a, a + 1) if gcd(a, b) == 1])
                pairs.append((a, b))
            c = 0 if flat else rng.choice((-3, -2, -1, 1, 2, 3))
            pairs.append((L, c - sum(L // a * b for a, b in pairs[len(pairs) - m + 1 :])))
        if all(gcd(a, b) == 1 for a, b in pairs):
            rng.shuffle(pairs)
            S = SeifertData(0, tuple(pairs))
            if (S.eps == 0) == flat:
                return S
