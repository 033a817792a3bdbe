"""Torsion of H_1 of a Seifert manifold: presentations, localized cyclic
decompositions, and an exact Smith-normal-form oracle cross-checking them.
The oracle diagonalizes the relation matrix modulo a nonzero maximal minor
D and sorts the orders gcd(x_i, D) of the diagonal into a divisibility
chain, whose first rank terms are the matrix's own invariant factors.

H_1(M(g;S)) = Z^{2g} + coker(P) where P is the (r+1) x (r+1) relation
matrix over generators q_1..q_r, h with rows (sum q_i = 0) and
(alpha_i q_i + beta_i h = 0).  Localizing at a prime p (after reordering
so the p-valuations of the alpha_i descend) and eliminating q_1, q_2
leaves the diagonal presentation

    alpha_1*alpha_2*eps * s = 0,    alpha_i * q_i' = 0  (3 <= i <= r),

so the p-primary part is a direct sum of explicit cyclic groups.  That
record is read in integers: v_p(alpha_i) from the factorization of each
distinct cone order and eps from its integer numerator and denominator,
both kept on the SeifertData.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .arith import bareiss, ext_gcd, is_prime, padic_val
from .errors import InvalidDataError, UnsupportedError
from .seifert import SeifertData, _memo, euler_invariant, relevant_primes


@dataclass(frozen=True)
class LocalDecomposition:
    prime: int
    orders: tuple[tuple[str, int], ...]  # (generator label, p-power order > 1)
    free_rank: int  # contribution on top of the 2g from the base surface
    pairs: tuple[tuple[int, int], ...]  # the Seifert pairs reordered at prime
    vals: tuple[int, ...]  # v_p(alpha_i) of the reordered pairs, descending
    kept: tuple[tuple[int, int], ...]  # the pairs of the kept q_i', in label order
    euler: tuple[int, int]  # the Euler number as SeifertData.euler

    @_memo
    def eps(self) -> Fraction:
        """The Euler number as a Fraction, built on first read."""
        return Fraction(*self.euler)

    def order_multiset(self) -> tuple[int, ...]:
        return tuple(sorted((n for _, n in self.orders), reverse=True))

    @_memo
    def bezout(self) -> tuple[int, int] | None:
        """(m, n) with m alpha_2 + n beta_2 = 1 from ext_gcd when s is kept,
        else None; computed on first read and kept like ``SeifertData.eps``,
        so a record that no pairing reads costs no ext_gcd."""
        if self.orders and self.orders[-1][0] == "s":
            return ext_gcd(*self.pairs[1])[1:]
        return None


def presentation_matrix(S: SeifertData) -> tuple[tuple[int, ...], ...]:
    """Relation matrix of H = H_1 / Z^{2g}: rows over the columns q_1..q_r, h."""
    r = S.r
    rows = [tuple([1] * r + [0])]
    for i, (a, b) in enumerate(S.pairs):
        row = [0] * (r + 1)
        row[i] = a
        row[r] = b
        rows.append(tuple(row))
    return tuple(rows)


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Diagonal d_1 | d_2 | ... of the Smith normal form, padded with 0s,
    computed modulo a determinant.

    A Bareiss pass gives the rank rho and a nonzero rho x rho minor D.  The
    invariant factors d_1 | ... | d_rho divide D (their product is the gcd
    of all rho x rho minors), so over Z/D the cokernel of an m-row A is
    +Z/d_i + (Z/D)^(m - rho).  Steps invertible over Z/D diagonalize A mod D
    with every entry below D: a pivot p clears each entry y of its column
    that gcd(p, D) divides by one row step (q p = y mod D); any other y
    leaves y mod p < p as the next pivot (Domich-Kannan-Trotter 1987;
    Cohen, GTM 138, section 2.4).  Column steps are row steps of the
    transpose.  A diagonal x_i presents +Z/gcd(x_i, D), with gcd(0, D) = D,
    and a decomposition into a divisibility chain is unique, so pairwise
    gcd/lcm steps turn these orders into d_1 | ... | d_rho | D | ... | D:
    its first rho terms are the invariant factors of A itself.
    """
    rank, D = bareiss(matrix)
    D = abs(D)
    A = [[x % D for x in row] for row in matrix]
    size = min(len(A), len(A[0])) if A else 0
    orders = []
    while any(map(any, A)):
        i = next(i for i, row in enumerate(A) if any(row))
        j = A[i].index(min(x for x in A[i] if x))
        while True:
            top = A[i]
            p = top[j]
            g = gcd(p, D)
            w = 1 if p == g else pow(p // g, -1, D // g)  # p w = g (mod D)
            for k, row in enumerate(A):  # row steps clear column j
                y = row[j]
                if not y or k == i:
                    continue
                if y % g:  # a Euclid step: y mod p < p is the next pivot
                    q, i = y // p, k
                    A[k] = [(z - q * x) % D for x, z in zip(top, row)]
                    break
                q = y // g * w  # q p = y (mod D)
                A[k] = [(z - q * x) % D for x, z in zip(top, row)]
            else:
                if not any(y % g for y in top):
                    break  # exact column steps would clear row i alone
                A = [list(col) for col in zip(*A)]  # column steps are row steps of A^T
                i, j = j, i
        orders.append(g)
        del A[i]
        for row in A:
            del row[j]
    orders += [D] * (rank - len(orders))
    chain = [x for x in orders if x > 1]
    for s in range(len(chain)):  # gcd/lcm steps keep the group and give the chain
        for t in range(s + 1, len(chain)):
            x, y = chain[s], chain[t]
            if y % x:
                chain[s] = g = gcd(x, y)
                chain[t] = x // g * y
    diag = (1,) * (len(orders) - len(chain)) + tuple(chain)
    return diag[:rank] + (0,) * (size - rank)


def local_orders(S: SeifertData, p: int) -> LocalDecomposition:
    """Cyclic decomposition of the p-primary torsion, with generator labels.

    This is the one per-prime record of M(g;S), computed once per (S, p)
    and kept in ``S.local``; the closed forms at p read its fields instead
    of re-deriving them.  ``pairs`` are the Seifert pairs stably sorted by
    descending ``vals``, so alpha_{i+1} divides alpha_i p-locally; the q_i'
    of ``orders`` are the ``kept`` pairs after the second, and s comes last.
    Labels refer to positions after reordering at p.  For r = 1 the group
    is cyclic, generated by the image of the regular fibre h.  The record
    reads v_p(alpha_i) from ``S.factored`` and keeps the Euler number as the
    integer pair ``euler`` of ``S.euler`` (``eps`` is its Fraction):
    ``free_rank`` is 1 exactly when the numerator is 0, and s has order p^v,
    v = v_p(alpha_1 alpha_2 eps), if v > 0.
    """
    found = S.local.get(p)
    if found is None:
        found = S.local[p] = _local_record(S, p)
    return found


_LABELS = tuple(f"q{i + 1}'" for i in range(16))  # the q_i' by 0-based position


def _local_record(S: SeifertData, p: int) -> LocalDecomposition:
    if not is_prime(p):  # every p-local function reaches this record
        raise InvalidDataError(f"{p} is not a prime")
    factored = S.factored
    ranked = [(factored[a].get(p, 0), (a, b)) for a, b in S.pairs]
    vals, pairs = zip(*sorted(ranked, key=itemgetter(0), reverse=True))
    euler = num, den = S.euler
    if S.r == 1:
        b1 = pairs[0][1]
        e = padic_val(b1, p) if b1 % p == 0 else 0
        orders = ((("h", p**e),) if e > 0 else ())
        return LocalDecomposition(p, orders, 0, pairs, vals, (), euler)
    rp = S.r - vals.count(0)
    labels = _LABELS if rp <= len(_LABELS) else [f"q{i + 1}'" for i in range(rp)]
    orders = [(labels[i], p ** vals[i]) for i in range(2, rp)]
    if num:
        vs = vals[0] + vals[1] + padic_val(num, p) - padic_val(den, p)
        if vs > 0:
            orders.append(("s", p**vs))
    return LocalDecomposition(p, tuple(orders), int(not num), pairs, vals, pairs[2:rp], euler)


def structure_check(S: SeifertData) -> dict:
    """Cross-validate local_orders against the Smith normal form oracle.

    For every relevant prime the multiset of p-power orders predicted by
    the localized presentation must match the p-parts of the SNF diagonal,
    and the free rank of H_1 must be 2g + 1 exactly when eps = 0.
    """
    diagonal = smith_normal_form(presentation_matrix(S))
    eps = euler_invariant(S)
    free_snf = 2 * S.genus + diagonal.count(0)
    free_expected = 2 * S.genus + (1 if eps == 0 else 0)
    primes = []
    ok = free_snf == free_expected
    for p in relevant_primes(S):
        from_snf = sorted(
            (p ** padic_val(d, p) for d in diagonal if d != 0 and d % p == 0),
            reverse=True,
        )
        local = local_orders(S, p)
        orders = local.order_multiset()
        match = tuple(from_snf) == orders
        ok = ok and match
        primes.append(
            {
                "prime": p,
                "orders": list(orders),
                "orders_snf": list(from_snf),
                "free_rank": 2 * S.genus + local.free_rank,
                "snf_match": match,
            }
        )
    return {
        "euler_zero": eps == 0,
        "free_rank": free_snf,
        "free_rank_expected": free_expected,
        "free_rank_match": free_snf == free_expected,
        "primes": primes,
        "ok": ok,
    }


def torsion_order(S: SeifertData) -> int:
    """Order of the torsion subgroup of H_1 (product over relevant primes)."""
    total = 1
    for p in relevant_primes(S):
        for _, n in local_orders(S, p).orders:
            total *= n
    return total


def unsupported_r1_pairing(S: SeifertData) -> None:
    if S.r < 2:
        raise UnsupportedError(
            "pairing computation needs r >= 2; the pairing of an r = 1 space "
            "(a lens space) is not computed"
        )
