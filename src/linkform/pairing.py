"""Algebra of finite linking pairings.

A nonsingular symmetric pairing on a finite abelian p-group splits as an
orthogonal sum of pairings on homogeneous summands (Z/p^k)^rho.  For odd
p each summand diagonalizes into cyclic pairings <a/p^k> and is classified
by its rank together with the square class of det mod p.  For p = 2 each
summand is either odd (some odd diagonal entry; diagonalizable, the units
mattering mod min(2^k, 8)) or even, in which case it is an orthogonal sum
of the rank-2 pairings E0(k) (hyperbolic) and at most one E1(k).

The block decomposition into homogeneous components is in ``linking``,
beside ``GramPairing``.  Atoms and standard forms are normal by
construction: ``Cyc`` reduces its unit, ``StandardForm`` sorts its atoms.
This module provides the per-component invariants, conversion to a
standard form built from Cyc/E0/E1 atoms, an exact isomorphism test by
Gauss-sum invariants at every order (read from the atoms of a standard
form, into which a Gram pairing is classified first, or, without
classifying, from Seifert data directly), a sound normal form from which
realization reads target shapes, and a brute-force isomorphism search
kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import prod
from operator import itemgetter

from .arith import is_prime, least_nonresidue, legendre, padic_val, square_class_name
from .errors import InvalidDataError, SearchBoundExceeded, UnsupportedError
from .linking import (
    GramPairing,
    HomogeneousComponent,
    _int_det,
    block_diagonalize,  # noqa: F401  (public here too, and traced as pairing.block_diagonalize)
    dot,
    gram_matrix,
    image,
)
from .seifert import SeifertData, _memo, json_int, json_keys, relevant_primes
from .torsion import local_orders, unsupported_r1_pairing


# ---------------------------------------------------------------------------
# atoms and standard forms


@dataclass(frozen=True)
class Cyc:
    """Cyclic pairing (n, n') -> [n n' a / p^k] on Z/p^k; the unit a is kept
    mod p^k for odd p and mod min(2^k, 8) for p = 2, where it matters."""

    p: int
    k: int
    a: int

    def __post_init__(self):
        p, k, a = self.p, self.k, self.a
        if not is_prime(p) or k < 1:
            raise InvalidDataError(f"bad cyclic atom ({p},{k},{a})")
        if a % p == 0:
            raise InvalidDataError(f"unit {a} required mod {p}^{k}")
        object.__setattr__(self, "a", a % (min(2**k, 8) if p == 2 else p**k))

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
    """Orthogonal sum of atoms, from any iterable, kept in ``_atom_key`` order."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms, key=_atom_key)))

    def __add__(self, other: "StandardForm") -> "StandardForm":
        return StandardForm(self.atoms + other.atoms)

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({a.p for a in self.atoms}))

    def restrict(self, p: int) -> "StandardForm":
        return StandardForm(a for a in self.atoms if a.p == p)

    def group_order(self) -> int:
        return prod(a.p ** (a.k * len(a.block)) for a in self.atoms)

    def negated(self) -> "StandardForm":
        # E0 and E1 are isomorphic to their negatives
        return StandardForm(Cyc(a.p, a.k, -a.a) if isinstance(a, Cyc) else a for a in self.atoms)

    def levels(self, p: int) -> list[tuple[int, list[int], int, int]]:
        """[(k, units, #E0, #E1)] of the atoms at p, by strictly decreasing k;
        the units ascend, as ``_atom_key`` orders them."""
        by_k: dict[int, list[Atom]] = {}
        for a in self.atoms:
            if a.p == p:
                by_k.setdefault(a.k, []).append(a)
        return [
            (
                k,
                [a.a for a in group if isinstance(a, Cyc)],
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
                    atoms.append(Cyc(p, k, a))
                elif name == "E0":
                    atoms.append(E0(json_int(value)))
                elif name == "E1":
                    atoms.append(E1(json_int(value)))
                else:
                    raise InvalidDataError(f"unknown atom {item!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"bad standard form: {obj!r}") from exc
        return cls(atoms)


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
# per-component invariants


def parity(C: HomogeneousComponent) -> str:
    """Even/odd type of a 2-primary component (even iff diagonal all even)."""
    if C.prime != 2:
        raise UnsupportedError("parity is only defined at p = 2")
    return "odd" if any(row[i] % 2 for i, row in enumerate(C.matrix)) else "even"


def d_invariant(C: HomogeneousComponent) -> int:
    """Square class (+1/-1) of det of the scaled Gram matrix mod odd p."""
    if C.prime == 2:
        raise UnsupportedError("the determinant class is defined for odd p")
    return legendre(C.det, C.prime)


def _split_unit_pivot(M, i, q):
    """Split off index i (unit diagonal); returns (diagonal value, reduced M)."""
    a = M[i][i] % q
    ainv = pow(a, -1, q)
    idx = [j for j in range(len(M)) if j != i]
    return a, [[(M[l][m] - M[l][i] * ainv * M[i][m]) % q for m in idx] for l in idx]


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
    if p == 2 and parity(C) == "even":
        raise UnsupportedError("even 2-component: use even_decompose")
    q = p**k
    M = [list(row) for row in C.matrix]
    atoms: list[int] = []
    guard, limit = 0, 20 * len(M) + 20
    while M:
        guard += 1
        if guard > limit:
            raise InvalidDataError("diagonalization failed to terminate")
        piv = next((i for i, row in enumerate(M) if row[i] % p), None)
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
        # p = 2, fully even remainder (after a split, as C is odd): pull the
        # last atom back in and mix
        a = atoms.pop()
        for row in M:
            row.append(0)
        M.append([0] * (len(M)) + [a])
        _gram_row_add(M, 0, len(M) - 1, q)
        a2, M = _split_unit_pivot(M, 0, q)
        atoms.append(a2)
    return [Cyc(p, k, a) for a in atoms]


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
    if C.k == 1:
        return (C.rank // 2, 0)
    e1 = int(C.det % 8 in (3, 5))
    return (C.rank // 2 - e1, e1)


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
    """Full classification of a Gram pairing into standard atoms; at p = 2
    each component's parity is read once and picks its decomposition."""
    p, summaries, atoms = G.prime, [], []
    for C in G.components:
        if p != 2:
            par, d, catoms = None, d_invariant(C), diagonalize_odd(C)
        elif (par := parity(C)) == "even":
            d, catoms = None, _e_atoms(C.k, *even_decompose(C))
        else:
            d, catoms = None, diagonalize_odd(C)
        summaries.append(ComponentSummary(C.k, C.rank, par, d, tuple(catoms)))
        atoms += catoms
    return ClassificationReport(p, tuple(summaries), StandardForm(atoms))


def classify_seifert(S: SeifertData, primes=None) -> dict[int, ClassificationReport]:
    """Classification of the linking pairing of M(g;S) at each relevant prime."""
    if primes is None:
        primes = relevant_primes(S)
    return {p: classify(gram_matrix(S, p)) for p in primes}


def standard_form_of(S: SeifertData) -> StandardForm:
    """Standard form of the full linking pairing of M(g;S); r = 1 is refused,
    and a prime without torsion, which adds no atom, is not classified."""
    unsupported_r1_pairing(S)
    primes = [p for p in relevant_primes(S) if local_orders(S, p).orders]
    reports = classify_seifert(S, primes).values()
    return StandardForm(a for rep in reports for a in rep.standard_form.atoms)


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def _e_atoms(k: int, e0: int, e1: int) -> list[Atom]:
    # E1(k) must not be constructed when e1 = 0 (it rejects k = 1)
    return [E0(k)] * e0 + ([E1(k)] * e1 if e1 else [])


def _canonical_level_2(k: int, cycs: list[int], e0: int, e1: int) -> list[Atom]:
    # cycs are reduced units, as Cyc keeps them; StandardForm orders the result
    out: list[Atom] = []
    if cycs and (e0 or e1):
        # odd level: absorb E-blocks by re-diagonalizing the whole level
        sf = StandardForm([Cyc(2, k, a) for a in cycs] + _e_atoms(k, e0, e1))
        G = standard_form_gram(sf, 2)
        C = HomogeneousComponent(2, k, G.matrix)
        cycs = [at.a for at in diagonalize_odd(C)]
        e0 = e1 = 0
    if cycs:
        if k >= 3:
            # the only sound rewrite kept here: shifting any two units by 4
            n1, n3 = cycs.count(1), cycs.count(3)
            c1, c3 = n1 + cycs.count(5), n3 + cycs.count(7)
            s = (n1 + n3) % 2
            if (c1 + c3) % 2 == s:
                m1, m3 = c1, c3
            elif c3 > 0:
                m1, m3 = c1, c3 - 1
            else:
                m1, m3 = c1 - 1, 0
            out += [Cyc(2, k, 1)] * m1 + [Cyc(2, k, 5)] * (c1 - m1)
            out += [Cyc(2, k, 3)] * m3 + [Cyc(2, k, 7)] * (c3 - m3)
        else:
            out += [Cyc(2, k, a) for a in cycs]
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
                out += [Cyc(p, k, 1)] * (len(units) - 1) + [Cyc(p, k, rep)]
            else:
                out += _canonical_level_2(k, units, e0, e1)
    return StandardForm(out)


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

    Only valuations are compared, and they are known but for one per step:
    the levels k are the record's ``vals``, the numerator of F is a p-adic
    unit (-beta_2^2 beta_i, as p divides alpha_i and alpha_2, or -1 for s),
    v_p of its denominator alpha_i^2 is 2k, and v_p(tn) is carried along.
    So a pivot test takes one valuation, of tn'.
    """
    unsupported_r1_pairing(S)
    decomp = local_orders(S, p)
    a2, b2 = decomp.pairs[1]
    # (k, F numerator, F denominator, its valuation, x numerator, x denominator)
    gens = [
        (k, -b2 * b2 * b, a * a, 2 * k, b, a) for k, (a, b) in zip(decomp.vals[2:], decomp.kept)
    ]
    if decomp.bezout:  # s, the last generator
        m, (en, ed) = decomp.bezout[0], decomp.euler
        fd = a2 * a2 * b2 * en
        k = padic_val(decomp.orders[-1][1], p)
        gens.append((k, -1, fd, padic_val(fd, p), b2 * en, b2 * ed - m * a2 * a2 * en))
        gens.sort(key=itemgetter(0), reverse=True)  # stable: s follows the q_i' of its order
    tn, td, vt = b2, a2, 0 if decomp.vals[1] else padic_val(b2, p)
    levels = []
    for k, group in groupby(gens, itemgetter(0)):
        rest = list(group)
        rank = len(rest)
        units = []
        while p == 2 and rest:  # 1x1 pivots of valuation -k
            for j, (_, fn, fd, vd, xn, xd) in enumerate(rest):
                t, w = tn * xd + xn * td, vt + vd - k  # the pivot F t/tn needs v(t) = w
                if t and padic_val(t, 2) == w:
                    # an odd unit is its own inverse mod 8; _level reads
                    # it mod 2^k only at k >= 3
                    units.append(fn * (t >> w) * (fd >> vd) * (tn >> vt) % 8)
                    tn, td, vt = t, td * xd, w
                    del rest[j]
                    break
            else:
                break
        d = 1
        if rest:
            num, den, vden = 1, tn, vt
            for _, fn, fd, vd, xn, xd in rest:
                tn, td = tn * xd + xn * td, td * xd
                num, den, vden = num * fn, den * fd, vden + vd
            vt = vden - k * len(rest)
            if not tn or padic_val(tn, p) != vt:
                raise InvalidDataError(
                    f"singular pairing: top block of order {p**k} has determinant "
                    f"divisible by {p}"
                )
            d = num * (tn // p**vt) * (den // p**vden) % (8 if p == 2 else p)
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
    level; the last two keep it on the instance (``gauss``).  A singular
    pairing raises InvalidDataError.
    """
    if isinstance(obj, GramPairing):
        return classify(obj).standard_form.gauss
    if isinstance(obj, SeifertData):
        return obj.gauss
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
    the coordinates of order > 1, have a determinant prime to p.  So an image
    that depends mod p on those chosen before it is skipped, as no completion
    can generate; the order of the search, the first witness and the verdict
    are those of testing complete assignments alone.  Returns (found,
    witness), the witness mapping generator labels of G1 to coefficient
    tuples in G2.
    Candidates come from ``G2.element_classes``: the elements of the
    generator's order and self-linking, in lexicographic order.  Pairing
    values are compared as integers mod N (``GramPairing.matrix``), each
    check one dot product with the precomputed A2 z of an assigned image z.
    """
    if sorted(G1.orders) != sorted(G2.orders):
        return False, None
    size = G1.group_order()
    if size > bound:
        raise SearchBoundExceeded(
            f"group order {size} exceeds the brute-force bound {bound}"
        )
    classes = G2.element_classes
    if (G1.orders, G1.matrix) != (G2.orders, G2.matrix):  # else one enumeration serves both
        sizes = {c: len(xs) for c, xs in G1.element_classes.items()}
        if sizes != {c: len(xs) for c, xs in classes.items()}:
            return False, None
    p, N, A1, A2 = G2.prime, G1.modulus, G1.matrix, G2.matrix
    cands = [classes.get((n, A1[i][i]), ()) for i, n in enumerate(G1.orders)]

    keep = [j for j, n in enumerate(G2.orders) if n > 1]
    assignment: list[tuple[int, ...]] = []
    paired: list[list[int]] = []  # A2 z for each assigned image z
    basis: list[tuple[int, list[int]]] = []  # echelon basis mod p: (pivot, row)

    def reduce(y) -> list[int]:
        """y on the coordinates of order > 1, reduced mod p by ``basis``."""
        v = [y[j] % p for j in keep]
        for piv, row in basis:
            if v[piv]:
                c = v[piv]
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def extend(i: int):
        if i == G1.rank:
            rows = [[y[j] for j in keep] for y in assignment if any(y)]
            return _int_det(rows) % p != 0
        want, grows = A1[i], G1.orders[i] > 1
        for y in cands[i]:
            if any(dot(y, paired[j]) % N != want[j] for j in range(i)):
                continue
            if grows:
                v = reduce(y)
                piv = next((j for j, a in enumerate(v) if a), None)
                if piv is None:
                    continue  # y depends on the images so far mod p
                inv = pow(v[piv], -1, p)
                basis.append((piv, [a * inv % p for a in v]))
            assignment.append(y)
            paired.append(image(A2, y))
            if extend(i + 1):
                return True
            assignment.pop()
            paired.pop()
            if grows:
                basis.pop()
        return False

    if extend(0):
        witness = {G1.labels[i]: list(assignment[i]) for i in range(G1.rank)}
        return True, witness
    return False, None
