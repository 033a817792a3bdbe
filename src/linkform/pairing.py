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
exact isomorphism test by Gauss-sum invariants at every order (read from
the atoms of a standard form, into which a Gram pairing is classified
first, or, without classifying, from Seifert data directly), a sound
normal form from which realization reads target shapes, and a brute-force
isomorphism search kept as a test oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import prod

from .arith import (
    bareiss,
    is_prime,
    least_nonresidue,
    legendre,
    padic_val,
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
)
from .seifert import SeifertData, _memo, json_int, json_keys, relevant_primes
from .torsion import local_orders, unsupported_r1_pairing


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

    @property
    def block(self) -> tuple[tuple[int, ...], ...]:
        """Gram matrix scaled by p^k."""
        return ((self.a,),)


@dataclass(frozen=True)
class E0:
    """Hyperbolic rank-2 even pairing on (Z/2^k)^2, Gram [[0,1],[1,0]]/2^k."""

    k: int
    p = 2  # class attributes, not fields: the prime and the scaled Gram matrix
    block = ((0, 1), (1, 0))

    def __post_init__(self):
        if self.k < 1:
            raise InvalidDataError("E0 needs k >= 1")


@dataclass(frozen=True)
class E1:
    """Even, non-hyperbolic rank-2 pairing on (Z/2^k)^2, Gram [[2,1],[1,2]]/2^k."""

    k: int
    p = 2
    block = ((2, 1), (1, 2))

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


def _atoms_json(atoms) -> list[dict]:
    """{"cyc": [p, k, a]}, {"E0": k} or {"E1": k} for each atom, in order."""
    return [
        {"cyc": [a.p, a.k, a.a]} if isinstance(a, Cyc) else {type(a).__name__: a.k}
        for a in atoms
    ]


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
        return tuple(sorted({a.p for a in self.atoms}))

    def restrict(self, p: int) -> "StandardForm":
        return StandardForm.of(a for a in self.atoms if a.p == p)

    def group_order(self) -> int:
        return prod(a.p ** (a.k * len(a.block)) for a in self.atoms)

    def negated(self) -> "StandardForm":
        # E0 and E1 are isomorphic to their negatives
        return StandardForm.of(
            Cyc.make(a.p, a.k, -a.a) if isinstance(a, Cyc) else a for a in self.atoms
        )

    def levels(self, p: int) -> list[tuple[int, list[int], int, int]]:
        """[(k, sorted units, #E0, #E1)] of the atoms at p, by strictly decreasing k."""
        by_k: dict[int, list[Atom]] = {}
        for a in self.atoms:
            if a.p == p:
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

    @_memo
    def gauss(self) -> tuple:
        """gauss_invariant(self), read once and kept like ``SeifertData.eps``."""
        out = []
        for p in self.primes():
            levels = []
            for k, units, e0, e1 in self.levels(p):
                d = 1 if p == 2 else prod(legendre(a, p) for a in units)
                levels.append(_level(p, k, len(units) + 2 * (e0 + e1), units, e1, d))
            out.append((p, _prime_invariant(levels)))
        return tuple(out)

    def group_structure(self) -> tuple[tuple[int, int], ...]:
        """Multiset of (p, k) of cyclic summands of the underlying group."""
        return tuple(sorted((a.p, a.k) for a in self.atoms for _ in a.block))

    def to_json(self) -> dict:
        return {"atoms": _atoms_json(self.atoms)}

    @classmethod
    def from_json(cls, obj) -> "StandardForm":
        try:
            atoms: list[Atom] = []
            items = obj["atoms"]
            json_keys(obj, ("atoms",))
            for item in items:
                # one key per atom: a second key would be dropped unread
                if not isinstance(item, dict) or len(item) != 1:
                    raise InvalidDataError(f"an atom has exactly one key, got {item!r}")
                ((name, value),) = item.items()
                if name == "cyc":
                    p, k, a = (json_int(x) for x in value)
                    atoms.append(Cyc.make(p, k, a))
                elif name == "E0":
                    atoms.append(E0(json_int(value)))
                elif name == "E1":
                    atoms.append(E1(json_int(value)))
                else:
                    raise InvalidDataError(f"unknown atom {item!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"bad standard form: {obj!r}") from exc
        return cls.of(atoms)


def standard_form_gram(sf: StandardForm, p: int) -> GramPairing:
    """Gram pairing of the p-part of a standard form."""
    blocks = [(a.p**a.k, a.block) for a in sf.restrict(p).atoms]  # (order, block)
    N = max((q for q, _ in blocks), default=1)
    orders: list[int] = []
    rows: list[list[int]] = []
    for q, block in blocks:
        base = len(orders)
        for row in rows:
            row.extend([0] * len(block))
        for brow in block:
            rows.append([0] * base + [x * (N // q) % N for x in brow])
            orders.append(q)
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
        labels = tuple(f"e{i + 1}" for i in range(self.rank))
        return GramPairing(self.prime, labels, (q,) * self.rank, self.matrix)

    @_memo
    def det(self) -> int:
        """Exact determinant of ``matrix``, computed on first use.

        block_diagonalize records the one it computes.  Kept in the instance
        ``__dict__``, outside the dataclass fields, like
        ``GramPairing.components``.
        """
        return _int_det(self.matrix)


def block_diagonalize(G: GramPairing) -> list[HomogeneousComponent]:
    """Orthogonal decomposition into homogeneous components.

    Components come out in strictly decreasing exponent.  At each stage the
    generators of maximal order are split off: their scaled Gram block has
    unit determinant mod p (else the pairing is singular and we raise), and
    the lower-order generators are corrected to be orthogonal to them.  The
    correction e_l -= sum_t C_lt e_t with W_tt C^T = W_tl leaves the Schur
    complement W_rr - C W_tr (mod N), which is exact for symmetric W only,
    so a non-symmetric matrix raises InvalidDataError.
    """
    p, N = G.prime, G.modulus
    idx = sorted(range(G.rank), key=lambda i: -G.orders[i])
    orders = [G.orders[i] for i in idx]
    W = [[G.matrix[i][j] % N for j in idx] for i in idx]  # N * values
    if any(W[i][j] != W[j][i] for i in range(len(W)) for j in range(i)):
        raise InvalidDataError("pairing matrix is not symmetric")
    components: list[HomogeneousComponent] = []
    while orders:
        q = orders[0]
        s = N // q  # a value is a multiple of 1/q iff its entry is one of s
        top = [i for i, o in enumerate(orders) if o == q]
        rest = [i for i, o in enumerate(orders) if o != q]
        if any(W[i][j] % s for i in top for j in top):
            raise InvalidDataError("pairing value incompatible with orders")
        A = [[W[i][j] // s for j in top] for i in top]
        det = _int_det(A)
        if det % p == 0:
            raise InvalidDataError(
                f"singular pairing: top block at exponent {q} has determinant "
                f"divisible by {p}"
            )
        C = HomogeneousComponent(p, padic_val(q, p), len(top), tuple(map(tuple, A)))
        C.__dict__["det"] = det
        components.append(C)
        if not rest:
            break
        assert not any(W[l][i] % s for l in rest for i in top)
        B = [[W[l][i] // s for i in top] for l in rest]
        coeffs = _solve_mod(A, B, q, p)
        new_W = [
            [(W[l][m] - sum(c * W[t][m] for c, t in zip(coeffs[a], top))) % N for m in rest]
            for a, l in enumerate(rest)
        ]
        # corrected generators keep their order: coefficients are divisible
        # by q / order_l, so this is a genuine basis change
        for a, l in enumerate(rest):
            for t_pos in range(len(top)):
                if coeffs[a][t_pos] % (q // orders[l]) != 0:
                    raise InvalidDataError("orthogonalization broke generator orders")
        orders = [orders[l] for l in rest]
        W = new_W
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
    det = C.det
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

    The result is (rho/2, 0) or (rho/2 - 1, 1), as E1 + E1 = E0 + E0; at
    level k = 1 every even pairing is hyperbolic.  For k >= 2 the entries
    are known mod 4 and the diagonal is even, so det mod 8 is an isometry
    invariant.  It is (-1)^#E0 3^#E1, so an E1 is left iff det = +-3 mod 8.
    """
    if C.prime != 2:
        raise UnsupportedError("even_decompose is for p = 2")
    if parity(C) != "even":
        raise UnsupportedError("odd component: use diagonalize_odd")
    if C.rank % 2:
        raise InvalidDataError("even components have even rank")
    if C.k == 1:
        return (C.rank // 2, 0)
    det = C.det
    if det % 2 == 0:
        raise InvalidDataError("singular even component")
    e1 = int(det % 8 in (3, 5))
    return (C.rank // 2 - e1, e1)


def div4_diagonal_count(S: SeifertData) -> int:
    """Count of scaled diagonal entries divisible by 4 for the 2-component.

    Defined when all even cone point orders share the same 2-adic valuation
    k > 1 and the pairing is even (eps = 0 or alpha_1 * eps odd); together
    with the rank this count decides hyperbolicity.
    """
    local = local_orders(S, 2)
    vals, eps = local.vals, local.eps
    r2 = sum(v > 0 for v in vals)
    if r2 < 3:
        raise UnsupportedError("need at least three even cone point orders")
    k = vals[0]
    if k < 2:
        raise UnsupportedError("valuation k > 1 required")
    if vals[r2 - 1] != k:
        raise UnsupportedError("even cone point orders must share their valuation")
    # alpha_1 * eps is odd exactly when s is kept with order 2^k
    if eps != 0 and local.orders[-1] != ("s", 2**k):
        raise UnsupportedError("alpha_1 * eps must vanish or be odd")
    a2, b2 = local.pairs[1]
    # a2 bi + ai b2 is 2^k times an integer, as every alpha has valuation k
    t = sum((a2 * bi + ai * b2) % 2 ** (k + 2) == 0 for ai, bi in local.kept)
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
        out["atoms"] = _atoms_json(sorted(self.atoms, key=_atom_key))
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
    for C in G.components:
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
        C = HomogeneousComponent(2, k, G.rank, G.matrix)
        cycs = [at.a for at in diagonalize_odd(C)]
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


def _level(p: int, k: int, rank: int, units=(), e1: int = 0, d: int = 1) -> tuple:
    """(k, rank, odd, even, dead): the Gauss sums of one level of a pairing.

    A level is given at p = 2 by its diagonal ``units`` and its number
    ``e1`` of E1 blocks, at odd p by its rank and determinant class ``d``.
    The argument in Z/8 of sum_x e(p^n l(x,x)) over the level is, at
    m = k - n, 0 for m <= 0, else ``odd`` for odd m and ``even`` for even
    m; at m = 1 it is None (the sum is 0) if ``dead``: if the level has a
    diagonal unit at p = 2.  These are closed forms of quadratic Gauss sums
    modulo p^m, added atom by atom: <a/p^k> gives 4 [a is a nonresidue] +
    2 [p = 3 mod 4] at odd m and 0 at even m for odd p; a mod 8 at odd m
    and +-1 (as a = +-1 mod 4) at even m for p = 2.  E0 gives 0, and E1
    gives 4 at even m.
    """
    if p != 2:
        return k, rank, 2 * rank * (p % 4 == 3) + 4 * (d == -1), 0, False
    even = sum(1 if a % 4 == 1 else 7 for a in units) + 4 * e1
    return k, rank, sum(units), even, bool(units)


def _prime_invariant(levels) -> tuple:
    """(ranks, args) at one prime from its _level records, by decreasing k.

    ranks holds each level's (k, rank); args holds, for 0 <= n < K (the
    top exponent), the argument in Z/8 of sum_x e(p^n l(x,x)), or None if
    the sum is 0.  Gauss sums multiply over orthogonal sums, so the
    arguments of the levels add.
    """
    args = []
    for n in range(levels[0][0] if levels else 0):
        total = 0
        for k, _, odd, even, dead in levels:
            m = k - n
            if m <= 0:
                break
            if m == 1 and dead:
                total = None
                break
            total += odd if m % 2 else even
        args.append(None if total is None else total % 8)
    return tuple((k, rank) for k, rank, *_ in levels), tuple(args)


def _unit_value(num: int, den: int, p: int, v: int) -> int | None:
    """The unit u of num/den = p^v u mod 8 (p = 2) or mod p, or None if
    num/den is 0 or has another valuation."""
    if not num:
        return None
    vn, vd = padic_val(num, p), padic_val(den, p)
    if vn - vd != v:
        return None
    # an odd unit is its own inverse mod 8
    return num // p**vn * (den // p**vd) % (8 if p == 2 else p)


def local_invariant_from_data(S: SeifertData, p: int) -> tuple:
    """The invariant at p of gram_matrix(S, p), read from the Seifert data.

    Builds no Gram matrix.  On the kept generators the pairing is
    diag(E) + (1/c) u u^T (see the ``linking`` module docstring), so after
    pivots with Euler terms x the next 1x1 pivot is E (T + x)/T, with the
    partial Euler sum T = beta_2/alpha_2 + sum x.  In integers, with
    x = xn/xd, F = E/xd and T = tn/td, a pivot is F tn'/tn where
    tn' = tn xd + xn td is the numerator of T + x over the denominator
    td xd.  So the pivots of a level multiply to prod F times the ratio of
    the level's last and first tn, whatever pivots are chosen.  After an s
    with E_s = 0 (xd = 0), td = 0: T is infinite and every later pivot is
    its E.

    Generators are taken by decreasing order.  At odd p a level gives its
    rank and the determinant class of that product.  At p = 2 a level takes
    1x1 pivots of valuation -k while one exists; what is left is even, and
    its determinant decides one E1 (k >= 2, unit +-3 mod 8).  A level whose
    determinant has the wrong valuation raises InvalidDataError (singular),
    as block_diagonalize does.
    """
    unsupported_r1_pairing(S)
    decomp = local_orders(S, p)
    a2, b2 = decomp.pairs[1]
    # (order, F numerator, F denominator, x numerator, x denominator)
    gens = [
        (order, -b2 * b2 * b, a * a, b, a)
        for (_, order), (a, b) in zip(decomp.orders, decomp.kept)
    ]
    if decomp.bezout:  # s, the last generator
        m, en, ed = decomp.bezout[0], decomp.eps.numerator, decomp.eps.denominator
        order = decomp.orders[-1][1]
        gens.append((order, -1, a2 * a2 * b2 * en, b2 * en, b2 * ed - m * a2 * a2 * en))
    gens.sort(key=lambda g: -g[0])  # stable: s follows the q_i' of its order
    tn, td = b2, a2
    levels = []
    for order, group in groupby(gens, lambda g: g[0]):
        k = padic_val(order, p)
        rest = list(group)
        rank = len(rest)
        units = []
        while p == 2 and rest:  # 1x1 pivots of valuation -k
            for j, (_, fn, fd, xn, xd) in enumerate(rest):
                t = tn * xd + xn * td
                u = _unit_value(fn * t, fd * tn, 2, -k)
                if u is not None:
                    units.append(u)  # _level reads a unit mod 2^k only at k >= 3
                    tn, td = t, td * xd
                    del rest[j]
                    break
            else:
                break
        num, den = 1, tn
        for _, fn, fd, xn, xd in rest:
            tn, td = tn * xd + xn * td, td * xd
            num, den = num * fn, den * fd
        d = _unit_value(num * tn, den, p, -k * len(rest)) if rest else 1
        if d is None:
            raise InvalidDataError(
                f"singular pairing: top block at exponent {order} has determinant "
                f"divisible by {p}"
            )
        if p != 2:
            levels.append(_level(p, k, rank, d=legendre(d, p)))
        else:
            levels.append(_level(2, k, rank, units, int(k >= 2 and d in (3, 5))))
    return _prime_invariant(levels)


def gauss_invariant(obj) -> tuple:
    """((p, (ranks, args)), ...) over the primes of a StandardForm, a
    GramPairing or the linking pairing of SeifertData: the ranks level by
    level and, for 0 <= n < K_p (the top exponent at p), the argument in Z/8
    of sum_x e(p^n l(x,x)), or None if it is 0 (see _prime_invariant).

    The invariant is complete: at odd p it gives rank and determinant class
    level by level, and at p = 2 ranks and these Gauss sums classify
    (Kawauchi-Kojima, Math. Ann. 253, 1980).  A Gram pairing is classified
    and read as its standard form, Seifert data by local_invariant_from_data
    at every relevant prime, and a standard form from its atoms, level by
    level.  A singular Gram pairing raises InvalidDataError.
    """
    if isinstance(obj, GramPairing):
        return classify(obj).standard_form.gauss
    if isinstance(obj, SeifertData):
        found = [(p, local_invariant_from_data(obj, p)) for p in relevant_primes(obj)]
        return tuple((p, inv) for p, inv in found if inv[0])
    if not isinstance(obj, StandardForm):
        raise InvalidDataError(
            f"expected StandardForm, GramPairing or SeifertData, got {obj!r}"
        )
    return obj.gauss


def is_isomorphic(f, g) -> bool:
    """Exact isomorphism test between standard forms, Gram pairings or the
    linking pairings of Seifert data.

    Compares the complete invariants of gauss_invariant, at every group
    order.
    """
    return isomorphism_report(f, g)["isomorphic"]


def isomorphism_report(f, g) -> dict:
    return {"isomorphic": gauss_invariant(f) == gauss_invariant(g), "method": "invariants"}


def brute_force_isomorphic(
    G1: GramPairing, G2: GramPairing, *, bound: int = 2**10
):
    """Ground-truth isomorphism search between two Gram pairings.

    Backtracks over images of the generators of G1 among elements of G2 of
    equal order, preserving all pairing values; a complete assignment that
    generates G2 is an isomorphism.  By Burnside's basis theorem the images
    generate the p-group G2 iff they span G2/pG2: iff their nonzero rows, on
    the coordinates of order > 1, have a determinant prime to p.  Returns
    (found, witness), the witness mapping generator labels of G1 to
    coefficient tuples in G2.
    Pairing values are compared as integers mod N (``GramPairing.matrix``),
    each check one dot product with the precomputed A2 z of an assigned
    image z.
    """
    if sorted(G1.orders) != sorted(G2.orders):
        return False, None
    size = G1.group_order()
    if size > bound:
        raise SearchBoundExceeded(
            f"group order {size} exceeds the brute-force bound {bound}"
        )
    N, A1, A2 = G1.modulus, G1.matrix, G2.matrix
    table = element_table(N, A2, G2.orders)
    profile = Counter((o, q) for _, o, q in element_table(N, A1, G1.orders))
    if Counter((o, q) for _, o, q in table) != profile:
        return False, None
    # candidates for generator i: elements of its order and self-linking
    cands = [
        [y for y, o, q in table if o == G1.orders[i] and q == A1[i][i]]
        for i in range(G1.rank)
    ]

    keep = [j for j, n in enumerate(G2.orders) if n > 1]
    assignment: list[tuple[int, ...]] = []
    paired: list[list[int]] = []  # A2 z for each assigned image z

    def extend(i: int):
        if i == G1.rank:
            rows = [[y[j] for j in keep] for y in assignment if any(y)]
            return _int_det(rows) % G2.prime != 0
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


# ---------------------------------------------------------------------------
# closed-form determinant class from Seifert data (odd p, homogeneous case)


def d_formula_case(S: SeifertData, p: int) -> str | None:
    """Which closed-form branch applies, or None when preconditions fail.

    The branches need the p-torsion to be homogeneous of exponent p^k with
    unit cofactors: for eps = 0, all of alpha_1..alpha_{r_p} must have
    valuation exactly k and r_p >= 3; for eps != 0, alpha_2..alpha_{r_p}
    must have valuation k and alpha_1 * eps must be a p-adic unit, which
    holds exactly when s is kept with order p^k.
    """
    if p == 2 or S.r < 2:
        return None
    dec = local_orders(S, p)
    vals = dec.vals
    rp = sum(v > 0 for v in vals)
    if dec.eps == 0:
        return "flat" if rp >= 3 and vals[0] == vals[rp - 1] else None
    if rp >= 2 and vals[1] == vals[rp - 1] and dec.orders[-1] == ("s", p ** vals[1]):
        return "sphere"
    return None


def d_class_from_data(S: SeifertData, p: int) -> int:
    """Closed-form determinant class of a homogeneous odd-p linking pairing.

    Evaluates, directly on the Seifert invariants, the square class that
    d_invariant computes from the Gram matrix.  Preconditions as in
    d_formula_case; raises otherwise.
    """
    case = d_formula_case(S, p)
    if case is None:
        raise UnsupportedError("closed-form determinant class does not apply")
    dec = local_orders(S, p)
    pairs, eps = dec.pairs, dec.eps
    rp = sum(v > 0 for v in dec.vals)
    pk = p ** dec.vals[rp - 1]
    flat = case == "flat"
    cls = legendre(-1, p) if (rp - flat) % 2 else 1
    for j, (a, b) in enumerate(pairs[:rp]):
        cls *= legendre(b, p)
        if j > flat:  # the unit parts of alpha_2.. (sphere) or alpha_3.. (flat)
            cls *= square_class(Fraction(a, pk), p)
    head = Fraction(pairs[0][0], pairs[1][0]) if flat else pairs[0][0] * eps
    return cls * square_class(head, p)
