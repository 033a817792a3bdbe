"""Algebra of finite linking pairings.

A nonsingular symmetric pairing on a finite abelian p-group splits as an
orthogonal sum of pairings on homogeneous summands (Z/p^k)^rho.  For odd
p each summand diagonalizes into cyclic pairings <a/p^k> and is classified
by its rank together with the square class of det mod p.  For p = 2 each
summand is either odd (some odd diagonal entry; diagonalizable, the units
mattering mod min(2^k, 8)) or even, in which case it is an orthogonal sum
of the rank-2 pairings E0(k) (hyperbolic) and at most one E1(k).

This module provides the block decomposition, the per-component
invariants, conversion to a standard form built from Cyc/E0/E1 atoms, an
exact isomorphism test by Gauss-sum invariants at every order, a sound
normal form from which realization reads target shapes, and a
brute-force isomorphism search kept as a test oracle.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import (
    bareiss,
    is_prime,
    least_nonresidue,
    legendre,
    padic_val,
    qmodz,
    square_class,
    square_class_name,
)
from .errors import InvalidDataError, SearchBoundExceeded, UnsupportedError
from .linking import (
    GramPairing,
    dot,
    element_table,
    gram_matrix,
    image,
    integer_gram,
    span,
)
from .seifert import SeifertData, relevant_primes
from .torsion import local_orders


# ---------------------------------------------------------------------------
# atoms and standard forms


@dataclass(frozen=True)
class Cyc:
    """Cyclic pairing (n, n') -> [n n' a / p^k] on Z/p^k."""

    p: int
    k: int
    a: int

    @classmethod
    def make(cls, p: int, k: int, a: int) -> "Cyc":
        if not is_prime(p) or k < 1:
            raise InvalidDataError(f"bad cyclic atom ({p},{k},{a})")
        if a % p == 0:
            raise InvalidDataError(f"unit {a} required mod {p}^{k}")
        # the unit matters mod p^k for odd p and mod min(2^k, 8) for p = 2
        mod = min(2**k, 8) if p == 2 else p**k
        return cls(p, k, a % mod)


@dataclass(frozen=True)
class E0:
    """Hyperbolic rank-2 even pairing on (Z/2^k)^2, Gram [[0,1],[1,0]]/2^k."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidDataError("E0 needs k >= 1")


@dataclass(frozen=True)
class E1:
    """Even, non-hyperbolic rank-2 pairing on (Z/2^k)^2, Gram [[2,1],[1,2]]/2^k."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise InvalidDataError("E1 needs k >= 2")


Atom = Cyc | E0 | E1


def _atom_key(atom: Atom):
    if isinstance(atom, Cyc):
        return (atom.p, -atom.k, 0, atom.a)
    if isinstance(atom, E0):
        return (2, -atom.k, 1, 0)
    return (2, -atom.k, 2, 0)


def _atom_prime(atom: Atom) -> int:
    return atom.p if isinstance(atom, Cyc) else 2


@dataclass(frozen=True)
class StandardForm:
    """Orthogonal sum of classification atoms, kept in canonical order."""

    atoms: tuple[Atom, ...]

    @classmethod
    def of(cls, atoms) -> "StandardForm":
        return cls(tuple(sorted(atoms, key=_atom_key)))

    @classmethod
    def empty(cls) -> "StandardForm":
        return cls(())

    def __add__(self, other: "StandardForm") -> "StandardForm":
        return StandardForm.of(self.atoms + other.atoms)

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({_atom_prime(a) for a in self.atoms}))

    def restrict(self, p: int) -> "StandardForm":
        return StandardForm.of(a for a in self.atoms if _atom_prime(a) == p)

    def group_order(self) -> int:
        total = 1
        for a in self.atoms:
            if isinstance(a, Cyc):
                total *= a.p**a.k
            else:
                total *= 4**a.k
        return total

    def negated(self) -> "StandardForm":
        out = []
        for a in self.atoms:
            if isinstance(a, Cyc):
                out.append(Cyc.make(a.p, a.k, -a.a))
            else:
                out.append(a)  # E0 and E1 are isomorphic to their negatives
        return StandardForm.of(out)

    def levels(self, p: int) -> list[tuple[int, list[int], int, int]]:
        """[(k, sorted units, #E0, #E1)] of the atoms at p, by strictly decreasing k."""
        by_k: dict[int, list[Atom]] = {}
        for a in self.atoms:
            if _atom_prime(a) == p:
                by_k.setdefault(a.k, []).append(a)
        return [
            (
                k,
                sorted(a.a for a in group if isinstance(a, Cyc)),
                sum(1 for a in group if isinstance(a, E0)),
                sum(1 for a in group if isinstance(a, E1)),
            )
            for k, group in sorted(by_k.items(), reverse=True)
        ]

    def group_structure(self) -> tuple[tuple[int, int], ...]:
        """Multiset of (p, k) of cyclic summands of the underlying group."""
        out = []
        for a in self.atoms:
            if isinstance(a, Cyc):
                out.append((a.p, a.k))
            else:
                out.extend([(2, a.k), (2, a.k)])
        return tuple(sorted(out))

    def to_json(self) -> dict:
        atoms = []
        for a in self.atoms:
            if isinstance(a, Cyc):
                atoms.append({"cyc": [a.p, a.k, a.a]})
            elif isinstance(a, E0):
                atoms.append({"E0": a.k})
            else:
                atoms.append({"E1": a.k})
        return {"atoms": atoms}

    @classmethod
    def from_json(cls, obj) -> "StandardForm":
        try:
            atoms: list[Atom] = []
            for item in obj["atoms"]:
                if "cyc" in item:
                    p, k, a = (int(x) for x in item["cyc"])
                    atoms.append(Cyc.make(p, k, a))
                elif "E0" in item:
                    atoms.append(E0(int(item["E0"])))
                elif "E1" in item:
                    atoms.append(E1(int(item["E1"])))
                else:
                    raise InvalidDataError(f"unknown atom {item!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"bad standard form: {obj!r}") from exc
        return cls.of(atoms)


def standard_form_gram(sf: StandardForm, p: int) -> GramPairing:
    """Gram pairing of the p-part of a standard form."""
    orders: list[int] = []
    rows: list[list[Fraction]] = []

    def extend(block_orders, block):
        base = len(orders)
        for row in rows:
            row.extend([Fraction(0)] * len(block_orders))
        for i, o in enumerate(block_orders):
            row = [Fraction(0)] * base + [qmodz(x) for x in block[i]]
            rows.append(row)
            orders.append(o)

    for a in sf.restrict(p).atoms:
        if isinstance(a, Cyc):
            extend([a.p**a.k], [[Fraction(a.a, a.p**a.k)]])
        else:
            q = 2**a.k
            if isinstance(a, E0):
                extend([q, q], [[Fraction(0), Fraction(1, q)], [Fraction(1, q), Fraction(0)]])
            else:
                extend([q, q], [[Fraction(2, q), Fraction(1, q)], [Fraction(1, q), Fraction(2, q)]])
    labels = tuple(f"e{i + 1}" for i in range(len(orders)))
    return GramPairing(p, labels, tuple(orders), tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# modular matrix helpers


def _int_det(M) -> int:
    """Exact determinant of a square integer matrix."""
    rank, minor = bareiss(M)
    return minor if rank == len(M) else 0


def _solve_mod(A, B, q: int, p: int):
    """Solve A X = B mod q = p^k for A with unit determinant mod p.

    B is a list of column vectors; returns the matching list of solutions.
    Pivots are always chosen to be units mod p, which succeeds exactly when
    det(A) is a unit.
    """
    n = len(A)
    M = [[A[i][j] % q for j in range(n)] + [b[i] % q for b in B] for i in range(n)]
    width = n + len(B)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if M[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            raise InvalidDataError("matrix is singular mod p")
        M[col], M[piv] = M[piv], M[col]
        inv = pow(M[col][col], -1, q)
        M[col] = [(x * inv) % q for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                c = M[i][col]
                M[i] = [(x - c * y) % q for x, y in zip(M[i], M[col])]
    return [[M[i][n + b] % q for i in range(n)] for b in range(len(B))]


# ---------------------------------------------------------------------------
# homogeneous components


@dataclass(frozen=True)
class HomogeneousComponent:
    """Nonsingular pairing on (Z/p^k)^rank, Gram matrix scaled by p^k."""

    prime: int
    k: int
    rank: int
    matrix: tuple[tuple[int, ...], ...]  # entries mod p^k

    def gram(self) -> GramPairing:
        q = self.prime**self.k
        rows = tuple(
            tuple(Fraction(x % q, q) for x in row) for row in self.matrix
        )
        labels = tuple(f"e{i + 1}" for i in range(self.rank))
        return GramPairing(self.prime, labels, (q,) * self.rank, rows)


def block_diagonalize(G: GramPairing) -> list[HomogeneousComponent]:
    """Orthogonal decomposition into homogeneous components.

    Components come out in strictly decreasing exponent.  At each stage the
    generators of maximal order are split off: their scaled Gram block has
    unit determinant mod p (else the pairing is singular and we raise), and
    the lower-order generators are corrected to be orthogonal to them.
    """
    p = G.prime
    idx = sorted(range(G.rank), key=lambda i: -G.orders[i])
    orders = [G.orders[i] for i in idx]
    gram = [[G.gram[i][j] for j in idx] for i in idx]
    components: list[HomogeneousComponent] = []
    while orders:
        q = orders[0]
        K = padic_val(q, p)
        top = [i for i, o in enumerate(orders) if o == q]
        rest = [i for i, o in enumerate(orders) if o != q]
        A = []
        for i in top:
            row = []
            for j in top:
                v = gram[i][j] * q
                if v.denominator != 1:
                    raise InvalidDataError("pairing value incompatible with orders")
                row.append(v.numerator % q)
            A.append(row)
        if _int_det(A) % p == 0:
            raise InvalidDataError(
                f"singular pairing: top block at exponent {q} has determinant "
                f"divisible by {p}"
            )
        components.append(
            HomogeneousComponent(p, K, len(top), tuple(tuple(r) for r in A))
        )
        if not rest:
            break
        B = []
        for l in rest:
            col = []
            for i in top:
                v = gram[l][i] * q
                assert v.denominator == 1
                col.append(v.numerator % q)
            B.append(col)
        coeffs = _solve_mod(A, B, q, p)
        new_gram = []
        for a, l in enumerate(rest):
            row = []
            for b, m in enumerate(rest):
                v = gram[l][m]
                for t_pos, t in enumerate(top):
                    v -= coeffs[b][t_pos] * gram[l][t]
                    v -= coeffs[a][t_pos] * gram[t][m]
                for t_pos, t in enumerate(top):
                    for s_pos, s in enumerate(top):
                        v += coeffs[a][t_pos] * coeffs[b][s_pos] * gram[t][s]
                row.append(qmodz(v))
            new_gram.append(row)
        # corrected generators keep their order: coefficients are divisible
        # by q / order_l, so this is a genuine basis change
        for a, l in enumerate(rest):
            for t_pos in range(len(top)):
                if coeffs[a][t_pos] % (q // orders[l]) != 0:
                    raise InvalidDataError("orthogonalization broke generator orders")
        orders = [orders[l] for l in rest]
        gram = new_gram
    return components


def parity(C: HomogeneousComponent) -> str:
    """Even/odd type of a 2-primary component (even iff diagonal all even)."""
    if C.prime != 2:
        raise UnsupportedError("parity is only defined at p = 2")
    return "even" if all(C.matrix[i][i] % 2 == 0 for i in range(C.rank)) else "odd"


def d_invariant(C: HomogeneousComponent) -> int:
    """Square class (+1/-1) of det of the scaled Gram matrix mod odd p."""
    if C.prime == 2:
        raise UnsupportedError("the determinant class is defined for odd p")
    det = _int_det(C.matrix)
    if det % C.prime == 0:
        raise InvalidDataError("component determinant is not a unit")
    return legendre(det, C.prime)


def _split_unit_pivot(M, i, q):
    """Split off index i (unit diagonal); returns (diagonal value, reduced M)."""
    a = M[i][i] % q
    ainv = pow(a, -1, q)
    idx = [j for j in range(len(M)) if j != i]
    out = [
        [(M[l][m] - M[l][i] * ainv * M[i][m]) % q for m in idx]
        for l in idx
    ]
    return a, out


def _gram_row_add(M, i, j, q):
    """Basis change e_i += e_j on a scaled Gram matrix (orders equal)."""
    n = len(M)
    new_ii = (M[i][i] + 2 * M[i][j] + M[j][j]) % q
    for l in range(n):
        if l != i:
            M[i][l] = M[l][i] = (M[i][l] + M[j][l]) % q
    M[i][i] = new_ii


def diagonalize_odd(C: HomogeneousComponent) -> list[Cyc]:
    """Diagonalize a component into cyclic atoms.

    Works for any component at odd p, and for odd-parity components at
    p = 2.  At p = 2 an even remainder can appear after splitting; it is
    absorbed by temporarily re-adding the last split atom and mixing it
    into the remainder, which restores an odd diagonal entry.
    """
    p, k = C.prime, C.k
    q = p**k
    M = [list(row) for row in C.matrix]
    if p == 2 and parity(C) == "even":
        raise UnsupportedError("even 2-component: use even_decompose")
    atoms: list[int] = []
    guard = 0
    while M:
        guard += 1
        if guard > 20 * C.rank + 20:
            raise InvalidDataError("diagonalization failed to terminate")
        piv = next((i for i in range(len(M)) if M[i][i] % p != 0), None)
        if piv is not None:
            a, M = _split_unit_pivot(M, piv, q)
            atoms.append(a)
            continue
        if p != 2:
            # no unit diagonal: mix in a row with a unit off-diagonal entry
            pos = next(
                (i, j)
                for i in range(len(M))
                for j in range(len(M))
                if i != j and M[i][j] % p != 0
            )
            _gram_row_add(M, pos[0], pos[1], q)
            continue
        # p = 2, fully even remainder: pull the last atom back in and mix
        if not atoms:
            raise InvalidDataError("even pairing reached diagonalize_odd")
        a = atoms.pop()
        for row in M:
            row.append(0)
        M.append([0] * (len(M)) + [a])
        _gram_row_add(M, 0, len(M) - 1, q)
        a2, M = _split_unit_pivot(M, 0, q)
        atoms.append(a2)
    return [Cyc.make(p, k, a) for a in atoms]


def even_decompose(C: HomogeneousComponent) -> tuple[int, int]:
    """Counts (E0, E1) for an even 2-primary component.

    The result is (rho/2, 0) or (rho/2 - 1, 1); at level k = 1 every even
    pairing is hyperbolic.  For k >= 2 the component is cut into rank-2
    even blocks whose type is read off the diagonal mod 4, and pairs of
    E1 blocks are traded for pairs of E0 blocks.
    """
    if C.prime != 2:
        raise UnsupportedError("even_decompose is for p = 2")
    if parity(C) != "even":
        raise UnsupportedError("odd component: use diagonalize_odd")
    if C.rank % 2:
        raise InvalidDataError("even components have even rank")
    if C.k == 1:
        return (C.rank // 2, 0)
    q = 2**C.k
    M = [list(row) for row in C.matrix]
    e1 = 0
    while M:
        j = next((j for j in range(1, len(M)) if M[0][j] % 2 != 0), None)
        if j is None:
            raise InvalidDataError("singular even component")
        if M[0][0] % 4 == 2 and M[j][j] % 4 == 2:
            e1 += 1
        bii, bij, bjj = M[0][0], M[0][j], M[j][j]
        det = (bii * bjj - bij * bij) % q
        dinv = pow(det, -1, q)
        # inverse of the 2x2 block
        binv = (
            (bjj * dinv) % q,
            (-bij * dinv) % q,
            (bii * dinv) % q,
        )
        idx = [l for l in range(len(M)) if l not in (0, j)]
        out = []
        for l in idx:
            row = []
            u1, u2 = M[l][0], M[l][j]
            c1 = (binv[0] * u1 + binv[1] * u2) % q
            c2 = (binv[1] * u1 + binv[2] * u2) % q
            for m in idx:
                v1, v2 = M[m][0], M[m][j]
                row.append((M[l][m] - c1 * v1 - c2 * v2) % q)
            out.append(row)
        M = out
    pairs = C.rank // 2
    return (pairs - (e1 % 2), e1 % 2)


def even_predicate_from_data(S: SeifertData) -> bool:
    """Data-level evenness of the 2-primary pairing.

    With the pairs ordered by descending 2-adic valuation, the pairing is
    even exactly when alpha_1/alpha_i is odd for every even cone point
    order and eps is zero or alpha_1 * eps is odd.  Meaningful when the
    2-torsion is homogeneous; see parity() for the matrix-level notion.
    """
    local = local_orders(S, 2)
    pairs, eps = local.pairs, local.eps
    r2 = sum(1 for a, _ in pairs if a % 2 == 0)
    if r2 == 0:
        return True
    v1 = padic_val(pairs[0][0], 2)
    if any(padic_val(pairs[i][0], 2) != v1 for i in range(r2)):
        return False
    return eps == 0 or padic_val(Fraction(pairs[0][0]) * eps, 2) == 0


def div4_diagonal_count(S: SeifertData) -> int:
    """Count of scaled diagonal entries divisible by 4 for the 2-component.

    Defined when all even cone point orders share the same 2-adic valuation
    k > 1 and the pairing is even (eps = 0 or alpha_1 * eps odd); together
    with the rank this count decides hyperbolicity.
    """
    local = local_orders(S, 2)
    pairs, eps = local.pairs, local.eps
    r2 = sum(1 for a, _ in pairs if a % 2 == 0)
    if r2 < 3:
        raise UnsupportedError("need at least three even cone point orders")
    k = padic_val(pairs[0][0], 2)
    if k < 2:
        raise UnsupportedError("valuation k > 1 required")
    for a, _ in pairs[:r2]:
        if padic_val(a, 2) != k:
            raise UnsupportedError("even cone point orders must share their valuation")
    a1 = pairs[0][0]
    if eps != 0 and padic_val(Fraction(a1) * eps, 2) != 0:
        raise UnsupportedError("alpha_1 * eps must vanish or be odd")
    a2, b2 = pairs[1]
    t = 0
    for i in range(2, r2):
        ai, bi = pairs[i]
        val = Fraction(a2 * bi + ai * b2, 2**k)
        assert val.denominator == 1
        if val.numerator % 4 == 0:
            t += 1
    if eps != 0:
        x = b2 + a2 * eps
        if x == 0 or padic_val(x, 2) >= 2:
            t += 1
    return t


def hyperbolic_from_counts(t: int, rho: int) -> bool:
    """Hyperbolicity decision from (t, rho) for Seifert-shaped even blocks."""
    x = t % 4
    y = (rho - t) % 4
    ab_odd = ((rho - x - y) // 4) % 2 == 1
    special = (x, y) in ((1, 3), (0, 2))
    return special if ab_odd else not special


def hyperbolic_test(C: HomogeneousComponent) -> bool:
    """Whether the component is hyperbolic (a sum of standard hyperbolic planes)."""
    if C.prime == 2:
        if parity(C) == "odd":
            return False
        return even_decompose(C) == (C.rank // 2, 0)
    if C.rank % 2:
        return False
    want = legendre(-1, C.prime) if (C.rank // 2) % 2 else 1
    return d_invariant(C) == want


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ComponentSummary:
    k: int
    rank: int
    parity: str | None  # p = 2 only
    d: int | None  # odd p only (+1/-1)
    atoms: tuple[Atom, ...]

    def to_json(self) -> dict:
        out = {"exponent_k": self.k, "rank": self.rank}
        if self.parity is not None:
            out["parity"] = self.parity
        if self.d is not None:
            out["d"] = square_class_name(self.d)
        out["atoms"] = StandardForm.of(self.atoms).to_json()["atoms"]
        return out


@dataclass(frozen=True)
class ClassificationReport:
    prime: int
    components: tuple[ComponentSummary, ...]
    standard_form: StandardForm

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "components": [c.to_json() for c in self.components],
            "standard_form": self.standard_form.to_json(),
        }


def classify(G: GramPairing) -> ClassificationReport:
    """Full classification of a Gram pairing into standard atoms."""
    if G.is_trivial():
        return ClassificationReport(G.prime, (), StandardForm.empty())
    summaries = []
    atoms: list[Atom] = []
    for C in block_diagonalize(G):
        if G.prime == 2:
            par = parity(C)
            if par == "even":
                n0, n1 = even_decompose(C)
                catoms: tuple[Atom, ...] = tuple(_e_atoms(C.k, n0, n1))
            else:
                catoms = tuple(diagonalize_odd(C))
            summaries.append(ComponentSummary(C.k, C.rank, par, None, catoms))
        else:
            d = d_invariant(C)
            catoms = tuple(diagonalize_odd(C))
            summaries.append(ComponentSummary(C.k, C.rank, None, d, catoms))
        atoms.extend(catoms)
    return ClassificationReport(G.prime, tuple(summaries), StandardForm.of(atoms))


def classify_seifert(S: SeifertData, primes=None) -> dict[int, ClassificationReport]:
    """Classification of the linking pairing of M(g;S) at each relevant prime."""
    if primes is None:
        primes = relevant_primes(S)
    return {p: classify(gram_matrix(S, p)) for p in primes}


def standard_form_of(S: SeifertData) -> StandardForm:
    """Standard form of the full linking pairing of M(g;S)."""
    total = StandardForm.empty()
    for report in classify_seifert(S).values():
        total = total + report.standard_form
    return total


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def _e_atoms(k: int, e0: int, e1: int) -> list[Atom]:
    # E1(k) must not be constructed when e1 = 0 (it rejects k = 1)
    return [E0(k)] * e0 + ([E1(k)] * e1 if e1 else [])


def _canonical_level_2(k: int, cycs: list[int], e0: int, e1: int) -> list[Atom]:
    out: list[Atom] = []
    if cycs and (e0 or e1):
        # odd level: absorb E-blocks by re-diagonalizing the whole level
        sf = StandardForm.of([Cyc.make(2, k, a) for a in cycs] + _e_atoms(k, e0, e1))
        G = standard_form_gram(sf, 2)
        comps = block_diagonalize(G)
        assert len(comps) == 1
        cycs = [at.a for at in diagonalize_odd(comps[0])]
        e0 = e1 = 0
    if cycs:
        mod = min(2**k, 8)
        res = [a % mod for a in cycs]
        if k >= 3:
            # the only sound rewrite kept here: shifting any two units by 4
            n1 = res.count(1)
            n3 = res.count(3)
            c1 = n1 + res.count(5)
            c3 = n3 + res.count(7)
            s = (n1 + n3) % 2
            if (c1 + c3) % 2 == s:
                m1, m3 = c1, c3
            elif c3 > 0:
                m1, m3 = c1, c3 - 1
            else:
                m1, m3 = c1 - 1, 0
            out += [Cyc.make(2, k, 1)] * m1 + [Cyc.make(2, k, 5)] * (c1 - m1)
            out += [Cyc.make(2, k, 3)] * m3 + [Cyc.make(2, k, 7)] * (c3 - m3)
        else:
            out += [Cyc.make(2, k, a) for a in sorted(res)]
    e0 += 2 * (e1 // 2)
    e1 %= 2
    out += _e_atoms(k, e0, e1)
    return out


def canonical_form(sf: StandardForm) -> StandardForm:
    """Deterministic normal form under sound isomorphism-preserving moves.

    Odd-primary levels reduce to rank and determinant class.  At p = 2 the
    moves applied are: absorbing E-blocks into a diagonal at the same
    level, E1 + E1 -> E0 + E0, and (for k >= 3) shifting any two diagonal
    units by 4.  Equal canonical forms imply isomorphism, but the converse
    may fail for 2-groups: decide isomorphism with is_isomorphic.  Realize
    reads the shapes of its targets from this form.
    """
    out: list[Atom] = []
    for p in sf.primes():
        for k, units, e0, e1 in sf.levels(p):
            if p != 2:
                cls = 1
                for a in units:
                    cls *= legendre(a, p)
                rep = 1 if cls == 1 else least_nonresidue(p)
                out += [Cyc.make(p, k, 1)] * (len(units) - 1) + [Cyc.make(p, k, rep)]
            else:
                out += _canonical_level_2(k, units, e0, e1)
    return StandardForm.of(out)


def _as_standard(obj) -> StandardForm:
    if isinstance(obj, StandardForm):
        return obj
    if isinstance(obj, GramPairing):
        return classify(obj).standard_form
    raise InvalidDataError(f"expected StandardForm or GramPairing, got {obj!r}")


def _gauss_arg(atom: Atom, n: int) -> int | None:
    """Argument in Z/8 of sum_x e(p^n l(x,x)) over one atom; None if the sum is 0."""
    m = atom.k - n  # closed forms of quadratic Gauss sums modulo p^m
    if isinstance(atom, E1):
        return 4 * ((m - 1) % 2) if m > 0 else 0
    if m <= 0 or isinstance(atom, E0) or (atom.p != 2 and m % 2 == 0):
        return 0
    if atom.p != 2:
        return 4 * (legendre(atom.a, atom.p) == -1) + 2 * (atom.p % 4 == 3)
    if m == 1:
        return None
    return (1 if atom.a % 4 == 1 else 7) if m % 2 == 0 else atom.a % 8


def _gauss_invariant(sf: StandardForm) -> tuple:
    """Group structure plus, per prime p and 0 <= n < K_p (the top exponent
    at p), the argument in Z/8 of sum_x e(p^n l(x,x)), or None if it is 0.

    Gauss sums multiply over orthogonal sums, so arguments add atom by atom.
    The invariant is complete: at odd p it gives rank and determinant class
    level by level, and at p = 2 ranks and these Gauss sums classify
    (Kawauchi-Kojima, Math. Ann. 253, 1980).
    """
    args = []
    for p in sf.primes():
        atoms = sf.restrict(p).atoms
        for n in range(max(a.k for a in atoms)):
            parts = [_gauss_arg(a, n) for a in atoms]
            args.append((p, n, None if None in parts else sum(parts) % 8))
    return sf.group_structure(), tuple(args)


def is_isomorphic(f, g, *, allow_negation: bool = False) -> bool:
    """Exact isomorphism test between standard forms or Gram pairings.

    Compares the complete invariants of _gauss_invariant, at every group
    order.  With ``allow_negation`` the negated pairing is accepted as well.
    """
    return isomorphism_report(f, g, allow_negation=allow_negation)["isomorphic"]


def isomorphism_report(f, g, *, allow_negation=False) -> dict:
    sg = _as_standard(g)
    want = _gauss_invariant(_as_standard(f))
    targets = [sg] + ([sg.negated()] if allow_negation else [])
    hit = next((i for i, t in enumerate(targets) if _gauss_invariant(t) == want), None)
    return {"isomorphic": hit is not None, "method": "invariants", "negated": hit == 1}


def brute_force_isomorphic(
    G1: GramPairing, G2: GramPairing, *, bound: int = 2**10
):
    """Ground-truth isomorphism search between two Gram pairings.

    Backtracks over images of the generators of G1 among elements of G2 of
    equal order, preserving all pairing values; a complete assignment that
    generates G2 is an isomorphism.  Returns (found, witness) where the
    witness maps generator labels of G1 to coefficient tuples in G2.
    Pairing values are compared as integers mod N (``integer_gram``), each
    check one dot product with the precomputed A2 z of an assigned image z.
    """
    if sorted(G1.orders) != sorted(G2.orders):
        return False, None
    size = G1.group_order()
    if size > bound:
        raise SearchBoundExceeded(
            f"group order {size} exceeds the brute-force bound {bound}"
        )
    N, A1 = integer_gram(G1)
    _, A2 = integer_gram(G2)
    table = element_table(N, A2, G2.orders)
    profile = Counter((o, q) for _, o, q in element_table(N, A1, G1.orders))
    if Counter((o, q) for _, o, q in table) != profile:
        return False, None
    # candidates for generator i: elements of its order and self-linking
    cands = [
        [y for y, o, q in table if o == G1.orders[i] and q == A1[i][i]]
        for i in range(G1.rank)
    ]

    assignment: list[tuple[int, ...]] = []
    paired: list[list[int]] = []  # A2 z for each assigned image z

    def extend(i: int):
        if i == G1.rank:
            return len(span(assignment, G2.orders)) == size
        want = A1[i]
        for y in cands[i]:
            if any(dot(y, paired[j]) % N != want[j] for j in range(i)):
                continue
            assignment.append(y)
            paired.append(image(A2, y))
            if extend(i + 1):
                return True
            assignment.pop()
            paired.pop()
        return False

    if extend(0):
        witness = {G1.labels[i]: list(assignment[i]) for i in range(G1.rank)}
        return True, witness
    return False, None


def shuffle_basis(G: GramPairing, rng: random.Random, steps: int = 12) -> GramPairing:
    """Random order-respecting change of basis; the pairing class is unchanged.

    Useful as a test oracle: classification must be invariant under this.
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
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = Fraction(0)
            for a in range(n):
                if not T[i][a]:
                    continue
                for b in range(n):
                    if T[j][b]:
                        v += T[i][a] * T[j][b] * G.gram[a][b]
            row.append(qmodz(v))
        rows.append(tuple(row))
    return GramPairing(G.prime, G.labels, G.orders, tuple(rows))


# ---------------------------------------------------------------------------
# closed-form determinant class from Seifert data (odd p, homogeneous case)


def d_formula_case(S: SeifertData, p: int) -> str | None:
    """Which closed-form branch applies, or None when preconditions fail.

    The branches need the p-torsion to be homogeneous of exponent p^k with
    unit cofactors: for eps = 0, all of alpha_1..alpha_{r_p} must have
    valuation exactly k and r_p >= 3; for eps != 0, alpha_2..alpha_{r_p}
    must have valuation k and alpha_1 * eps must be a p-adic unit.
    """
    found = _d_case(S, p)
    return found[0] if found else None


def _d_case(S: SeifertData, p: int):
    """(branch, local record at p) for d_formula_case, or None."""
    if p == 2 or S.r < 2:
        return None
    dec = local_orders(S, p)
    if not dec.orders:
        return None
    exps = {n for _, n in dec.orders}
    if len(exps) != 1:
        return None
    k = padic_val(exps.pop(), p)
    pairs, eps = dec.pairs, dec.eps
    rp = sum(1 for a, _ in pairs if a % p == 0)
    if eps == 0:
        if rp < 3:
            return None
        if any(padic_val(pairs[i][0], p) != k for i in range(rp)):
            return None
        return "flat", dec
    if rp < 2:
        return None
    if any(padic_val(pairs[i][0], p) != k for i in range(1, rp)):
        return None
    if padic_val(Fraction(pairs[0][0]) * eps, p) != 0:
        return None
    return "sphere", dec


def d_class_from_data(S: SeifertData, p: int) -> int:
    """Closed-form determinant class of a homogeneous odd-p linking pairing.

    Evaluates, directly on the Seifert invariants, the square class that
    d_invariant computes from the Gram matrix.  Preconditions as in
    d_formula_case; raises otherwise.
    """
    found = _d_case(S, p)
    if found is None:
        raise UnsupportedError("closed-form determinant class does not apply")
    case, dec = found
    pairs, eps = dec.pairs, dec.eps
    rp = sum(1 for a, _ in pairs if a % p == 0)
    k = padic_val(dec.orders[0][1], p)
    pk = p**k
    cls = 1
    for i in range(rp):
        cls *= legendre(pairs[i][1], p)
    if case == "flat":
        if (rp - 1) % 2:
            cls *= legendre(-1, p)
        cls *= square_class(Fraction(pairs[0][0], pairs[1][0]), p)
        for j in range(2, rp):
            cls *= square_class(Fraction(pairs[j][0], pk), p)
        return cls
    if rp % 2:
        cls *= legendre(-1, p)
    for j in range(1, rp):
        cls *= square_class(Fraction(pairs[j][0], pk), p)
    cls *= square_class(Fraction(pairs[0][0]) * eps, p)
    return cls
