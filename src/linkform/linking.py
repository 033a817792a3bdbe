"""Closed-form evaluation of the linking pairing of M(g;S) at a prime.

With the Seifert data reordered so the p-valuations of the cone point
orders descend, the p-primary torsion is generated by q_i' (3 <= i <= r)
and, when eps != 0, by s.  On these generators the pairing has the exact
rational values

    l(q_i', q_i') = -beta_2 beta_i (alpha_i beta_2 + alpha_2 beta_i) / alpha_i^2
    l(q_i', q_j') = -beta_2 beta_i beta_j alpha_2 / (alpha_i alpha_j)
    l(s,    q_i') = beta_i / alpha_i
    l(s,    s)    = -(alpha_1 + n alpha_1 alpha_2 eps) / (alpha_1 alpha_2^2 eps)

where m alpha_2 + n beta_2 = 1.  The Gram matrix stores the p-primary
component of each value, reduced to [0, 1).  No rescaling to pure p-power
denominators of the underlying 1-cycles is performed; only the canonical
Q/Z reduction happens here.

The element-level oracles (self-linking profiles, brute-force isomorphism,
metabolizer search) work in integers mod p^K, where p^K is the largest
generator order: a Gram entry g becomes the integer p^K g, so the pairing
of two elements is an integer dot product mod p^K and no Fraction is made
per element.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .arith import ext_gcd, fmt_rational, p_part, parse_rational, qmodz
from .errors import InvalidDataError
from .seifert import SeifertData
from .torsion import local_orders, unsupported_r1_pairing


@dataclass(frozen=True)
class GramPairing:
    """A finite symmetric pairing: p-power generator orders plus Gram matrix.

    Entries are Fractions in [0, 1) with p-power denominators; row/column
    order follows ``labels``.
    """

    prime: int
    labels: tuple[str, ...]
    orders: tuple[int, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.orders)

    def group_order(self) -> int:
        return prod(self.orders) if self.orders else 1

    def is_trivial(self) -> bool:
        return not self.orders

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "labels": list(self.labels),
            "orders": list(self.orders),
            "gram": [[fmt_rational(x) for x in row] for row in self.gram],
        }

    @classmethod
    def from_json(cls, obj) -> "GramPairing":
        try:
            return cls(
                prime=int(obj["prime"]),
                labels=tuple(str(x) for x in obj["labels"]),
                orders=tuple(int(x) for x in obj["orders"]),
                gram=tuple(
                    tuple(qmodz(parse_rational(x)) for x in row) for row in obj["gram"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"bad Gram pairing: {obj!r}") from exc


def gram_matrix(S: SeifertData, p: int) -> GramPairing:
    """Gram matrix of the p-primary linking pairing of M(g;S).

    Requires r >= 2.  Generators with trivial p-order are dropped, so the
    result is nonsingular; the trivial pairing (no generators) is returned
    when the p-torsion vanishes.  Independent of genus.
    """
    unsupported_r1_pairing(S)
    decomp = local_orders(S, p)
    pairs, eps = decomp.pairs, decomp.eps
    wanted = dict(decomp.orders)
    a1, b1 = pairs[0]
    a2, b2 = pairs[1]
    _, _, n = ext_gcd(a2, b2)

    gens: list[tuple[str, int, int | None]] = []  # (label, order, pair index)
    for i in range(2, len(pairs)):
        label = f"q{i + 1}'"
        if label in wanted:
            gens.append((label, wanted[label], i))
    if "s" in wanted:
        gens.append(("s", wanted["s"], None))

    def raw_value(gi, gj) -> Fraction:
        _, _, i = gi
        _, _, j = gj
        if i is not None and j is not None:
            ai, bi = pairs[i]
            aj, bj = pairs[j]
            if i == j:
                return Fraction(-b2 * bi * (ai * b2 + a2 * bi), ai * ai)
            return Fraction(-b2 * bi * bj * a2, ai * aj)
        if i is None and j is None:
            num = -(a1 + n * a1 * a2 * eps)
            den = Fraction(a1) * a2 * a2 * eps
            return num / den
        k = i if i is not None else j
        ak, bk = pairs[k]
        return Fraction(bk, ak)

    gram = tuple(
        tuple(p_part(raw_value(gi, gj), p) for gj in gens) for gi in gens
    )
    return GramPairing(
        p,
        tuple(g[0] for g in gens),
        tuple(g[1] for g in gens),
        gram,
    )


# ---------------------------------------------------------------------------
# element-level evaluation (shared by the brute-force oracles), in integers
# mod N = p^K: l(x, y) = (x^T A y mod N) / N with A = N * gram mod N


def integer_gram(G: GramPairing) -> tuple[int, list[list[int]]]:
    """(N, A) with N the largest generator order and A = N * gram mod N.

    An entry g for which N*g is not an integer raises InvalidDataError; it
    is never reduced.
    """
    N = max(G.orders, default=1)
    A = []
    for i, row in enumerate(G.gram):
        out = []
        for j, g in enumerate(row):
            g = Fraction(g)
            if (N * g.numerator) % g.denominator:
                raise InvalidDataError(
                    f"Gram entry ({i},{j}) = {g} is not a multiple of 1/{N}"
                )
            out.append(N * g.numerator // g.denominator % N)
        A.append(out)
    return N, A


def elements(orders):
    """All elements of the group +Z/n_i, as coefficient tuples."""
    return itertools.product(*(range(n) for n in orders))


def element_table(N: int, A, orders) -> list[tuple[tuple[int, ...], int, int]]:
    """(x, order of x, x^T A x mod N) for every element x, in ``elements`` order.

    Built as an odometer, one coordinate at a time.  Fixing x_0..x_{k-1}
    leaves the prefix value q and the cross terms
    lin[j] = sum_{i<k} x_i (A_ij + A_ji) for j >= k; setting x_k adds
    x_k lin[k] + x_k^2 A_kk.  So each element costs O(rank) integer
    additions, and the last coordinate O(1).
    """
    r = len(orders)
    states = [((), 0, [0] * r, 1)]  # (prefix, q, lin[k:], order)
    for k, n in enumerate(orders):
        d = A[k][k]
        ords = [n // gcd(n, c) for c in range(n)]
        if k == r - 1:
            return [
                (x + (c,), lcm(o, ords[c]), (q + c * (lin[0] + d * c)) % N)
                for x, q, lin, o in states
                for c in range(n)
            ]
        cross = [(A[k][j] + A[j][k]) % N for j in range(k + 1, r)]
        states = [
            (
                x + (c,),
                (q + c * (lin[0] + d * c)) % N,
                [(v + c * a) % N for v, a in zip(lin[1:], cross)],
                lcm(o, ords[c]),
            )
            for x, q, lin, o in states
            for c in range(n)
        ]
    return [((), 1, 0)]


def span(gens, orders) -> set[tuple[int, ...]]:
    """The subgroup of +Z/n_i generated by ``gens``, as coefficient tuples."""
    seen = {(0,) * len(orders)}
    for g in gens:
        for base in list(seen):
            x = base
            while True:
                x = tuple((a + b) % n for a, b, n in zip(x, g, orders))
                if x in seen:
                    break
                seen.add(x)
    return seen


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def image(A, y) -> list[int]:
    """A y: the pairing with y becomes one dot product, l(x, y) = x . Ay."""
    return [dot(row, y) for row in A]


def eval_pair(G: GramPairing, x, y) -> Fraction:
    """Pairing of two elements given by generator coefficients."""
    N, A = integer_gram(G)
    return Fraction(dot(x, image(A, y)) % N, N)


def self_link_profile(G: GramPairing) -> Counter:
    """Multiset of (element order, self-linking value); an isomorphism invariant."""
    N, A = integer_gram(G)
    counts = Counter((o, q) for _, o, q in element_table(N, A, G.orders))
    return Counter({(o, Fraction(q, N)): c for (o, q), c in counts.items()})


def welldefined_check(G: GramPairing) -> list[str]:
    """Diagnostics: symmetry, order-compatibility, and nonsingularity.

    Nonsingularity is decided exactly by ``block_diagonalize``: the pairing
    is singular iff some homogeneous top block has determinant divisible
    by p.
    """
    problems = []
    r = G.rank
    for i in range(r):
        for j in range(r):
            if G.gram[i][j] != G.gram[j][i]:
                problems.append(f"gram not symmetric at ({i},{j})")
            v = G.orders[i] * G.gram[i][j]
            if v.denominator != 1:
                problems.append(
                    f"order {G.orders[i]} * entry ({i},{j}) = {v} is not an integer"
                )
            if not (0 <= G.gram[i][j] < 1):
                problems.append(f"entry ({i},{j}) not reduced to [0,1)")
    if problems:
        return problems
    from .pairing import block_diagonalize  # late import avoids a cycle

    try:
        block_diagonalize(G)
    except InvalidDataError as exc:
        problems.append(f"singular: {exc}")
    return problems
