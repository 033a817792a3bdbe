"""Torsion of H_1 of a Seifert manifold: presentations, localized cyclic
decompositions, and an exact Smith-normal-form oracle, computed modulo a
determinant, cross-checking them.

H_1(M(g;S)) = Z^{2g} + coker(P) where P is the (r+1) x (r+1) relation
matrix over generators q_1..q_r, h with rows (sum q_i = 0) and
(alpha_i q_i + beta_i h = 0).  Localizing at a prime p (after reordering
so the p-valuations of the alpha_i descend) and eliminating q_1, q_2
leaves the diagonal presentation

    alpha_1*alpha_2*eps * s = 0,    alpha_i * q_i' = 0  (3 <= i <= r),

so the p-primary part is a direct sum of explicit cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import bareiss, ext_gcd, padic_val
from .errors import UnsupportedError
from .seifert import (
    SeifertData,
    euler_invariant,
    relevant_primes,
    reorder_at_prime,
    require_valid,
)


@dataclass(frozen=True)
class Presentation:
    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LocalDecomposition:
    prime: int
    orders: tuple[tuple[str, int], ...]  # (generator label, p-power order > 1)
    free_rank: int  # contribution on top of the 2g from the base surface

    def order_multiset(self) -> tuple[int, ...]:
        return tuple(sorted((n for _, n in self.orders), reverse=True))


def presentation_matrix(S: SeifertData) -> Presentation:
    """Relation matrix of H = H_1 / Z^{2g} over q_1..q_r, h."""
    require_valid(S)
    r = S.r
    labels = tuple(f"q{i}" for i in range(1, r + 1)) + ("h",)
    rows = [tuple([1] * r + [0])]
    for i, (a, b) in enumerate(S.pairs):
        row = [0] * (r + 1)
        row[i] = a
        row[r] = b
        rows.append(tuple(row))
    return Presentation(labels, tuple(rows))


@dataclass(frozen=True)
class SmithForm:
    diagonal: tuple[int, ...]  # d_1 | d_2 | ... | d_k >= 0, padded with 0s


def smith_normal_form(matrix) -> SmithForm:
    """Diagonal of the Smith normal form, computed modulo a determinant.

    A Bareiss pass gives the rank rho and a nonzero rho x rho minor D.  The
    invariant factors d_1 | ... | d_rho divide D (their product is the gcd
    of all rho x rho minors), so unimodular gcd steps over Z/|D| find each
    one as gcd(pivot, D) while every entry stays below |D|
    (Domich-Kannan-Trotter 1987; Cohen, GTM 138, section 2.4).
    """
    rank, D = bareiss(matrix)
    D = abs(D)
    A = [[x % D for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    for t in range(rank):
        nonzero = [(A[i][j], i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not nonzero:  # the remaining factors are 0 mod D, i.e. equal to D
            diag += [D] * (rank - t)
            break
        _, i, j = min(nonzero)
        A[t], A[i] = A[i], A[t]
        for row in A[t:]:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):  # row steps clear column t
                if A[i][t]:
                    g, s, u = ext_gcd(A[t][t], A[i][t])
                    a, b = A[t][t] // g, A[i][t] // g
                    A[t], A[i] = (
                        [(s * x + u * y) % D for x, y in zip(A[t], A[i])],
                        [(a * y - b * x) % D for x, y in zip(A[t], A[i])],
                    )
            for j in range(t + 1, n):  # column steps clear row t
                if A[t][j]:
                    g, s, u = ext_gcd(A[t][t], A[t][j])
                    a, b = A[t][t] // g, A[t][j] // g
                    for row in A[t:]:
                        x, y = row[t], row[j]
                        row[t], row[j] = (s * x + u * y) % D, (a * y - b * x) % D
            if any(row[t] for row in A[t + 1 :]):
                continue  # a column step refilled column t and shrank the pivot
            # the pivot and gcd(pivot, D) are associates in Z/D; a divisor of
            # D keeps divisibility of residues well defined
            g = A[t][t] = gcd(A[t][t], D)
            bad = next(
                (j for row in A[t + 1 :] for j in range(t + 1, n) if row[j] % g), None
            )
            if bad is None:
                break
            for row in A[t + 1 :]:  # column t += column bad: the next row step
                row[t] = row[bad]  # lowers the pivot to a proper divisor of g
        diag.append(g)
    return SmithForm(tuple(diag) + (0,) * (min(m, n) - rank))


def local_orders(S: SeifertData, p: int) -> LocalDecomposition:
    """Cyclic decomposition of the p-primary torsion, with generator labels.

    Labels refer to positions after reordering at p.  For r = 1 the group
    is cyclic, generated by the image of the regular fibre h.
    """
    require_valid(S)
    if S.r == 1:
        a1, b1 = S.pairs[0]
        e = padic_val(b1, p) if b1 % p == 0 else 0
        orders = ((("h", p**e),) if e > 0 else ())
        return LocalDecomposition(p, orders, 0)
    Sp, _ = reorder_at_prime(S, p)
    eps = euler_invariant(Sp)
    orders = []
    for i in range(2, Sp.r):
        e = padic_val(Sp.pairs[i][0], p)
        if e > 0:
            orders.append((f"q{i + 1}'", p**e))
    free = 1
    if eps != 0:
        free = 0
        a1 = Sp.pairs[0][0]
        a2 = Sp.pairs[1][0]
        vs = padic_val(Fraction(a1) * a2 * eps, p)
        if vs > 0:
            orders.append(("s", p**vs))
    return LocalDecomposition(p, tuple(orders), free)


def structure_check(S: SeifertData) -> dict:
    """Cross-validate local_orders against the Smith normal form oracle.

    For every relevant prime the multiset of p-power orders predicted by
    the localized presentation must match the p-parts of the SNF diagonal,
    and the free rank of H_1 must be 2g + 1 exactly when eps = 0.
    """
    require_valid(S)
    pres = presentation_matrix(S)
    snf = smith_normal_form(pres.matrix)
    eps = euler_invariant(S)
    free_snf = 2 * S.genus + sum(1 for d in snf.diagonal if d == 0)
    free_expected = 2 * S.genus + (1 if eps == 0 else 0)
    primes = []
    ok = free_snf == free_expected
    for p in relevant_primes(S):
        from_snf = sorted(
            (p ** padic_val(d, p) for d in snf.diagonal if d != 0 and d % p == 0),
            reverse=True,
        )
        local = local_orders(S, p)
        match = tuple(from_snf) == local.order_multiset()
        ok = ok and match
        primes.append(
            {
                "prime": p,
                "orders": list(local.order_multiset()),
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
            "pairing computation needs r >= 2; r = 1 spaces are lens spaces "
            "whose cyclic pairings are handled symbolically"
        )
