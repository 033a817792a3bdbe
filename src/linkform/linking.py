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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

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
# element-level evaluation (shared by the brute-force oracles)


def elements(orders):
    """All elements of the group +Z/n_i, as coefficient tuples."""
    return itertools.product(*(range(n) for n in orders))


def eval_pair(G: GramPairing, x, y) -> Fraction:
    """Pairing of two elements given by generator coefficients."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = G.gram[i]
        for j, yj in enumerate(y):
            if yj:
                total += xi * yj * row[j]
    return total % 1


def element_order(orders, x) -> int:
    o = 1
    for n, xi in zip(orders, x):
        if xi:
            o = lcm(o, n // gcd(n, xi))
    return o


def self_link_profile(G: GramPairing):
    """Multiset of (element order, self-linking value); an isomorphism invariant."""
    from collections import Counter

    return Counter(
        (element_order(G.orders, x), eval_pair(G, x, x)) for x in elements(G.orders)
    )


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
