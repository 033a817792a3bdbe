"""Witt group of Q/Z-valued linking pairings.

Modulo metabolic pairings (those with a subgroup P = P-perp), linking
pairings form a group under orthogonal sum which splits as the direct sum
over primes of the Witt groups of F_p:

    p = 2:          Z/2
    p = 3 mod 4:    Z/4   (generated by <1>; <nonsquare> is its inverse)
    p = 1 mod 4:    Z/2 x Z/2   (coordinates (x, y) over the basis <1>, <u>)

Here u is the least positive nonresidue mod p.  A local class is one int:
its residue in Z/2 or Z/4, and x + 2y at p = 1 mod 4, so the group law is
addition mod 4 at p = 3 mod 4 and exclusive or at every other prime.  The
class of a cyclic pairing a -> [a^2 b / p^k] vanishes for even k and equals
the class of <b mod p> for odd k; E0 and E1 are metabolic.  For a Seifert
manifold the class of the full pairing has a closed form in the Seifert
invariants, which witt_seifert evaluates.  A ``WittElement`` is valid and
normal by construction: one local per prime, each in range, zero locals
dropped and the rest sorted by prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import factorize, legendre
from .errors import InvalidDataError, SearchBoundExceeded
from .linking import GramPairing, dot, element_table, image, span
from .pairing import Cyc, StandardForm
from .seifert import SeifertData, euler_invariant


def _local_add(p: int, a: int, b: int) -> int:
    return (a + b) % 4 if p % 4 == 3 else a ^ b


def _local_neg(p: int, a: int) -> int:
    return -a % 4 if p % 4 == 3 else a


@dataclass(frozen=True)
class WittElement:
    """Element of the direct sum over primes of W(F_p), from any iterable of
    (p, local) pairs; ``WittElement()`` is zero.  Construction refuses
    (InvalidDataError) a prime given twice and a local outside W(F_p):
    [0, 2) at p = 2, [0, 4) elsewhere."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        entries = sorted(self.entries)
        for i, (p, v) in enumerate(entries):
            if i and entries[i - 1][0] == p:
                raise InvalidDataError(f"prime {p} given twice in a Witt element")
            if not 0 <= v < (2 if p == 2 else 4):
                raise InvalidDataError(f"local Witt class {v} at p = {p} lies outside W(F_{p})")
        object.__setattr__(self, "entries", tuple((p, v) for p, v in entries if v))

    def local(self, p: int) -> int:
        for q, v in self.entries:
            if q == p:
                return v
        return 0

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "WittElement") -> "WittElement":
        primes = {p for p, _ in self.entries} | {p for p, _ in other.entries}
        return WittElement((p, _local_add(p, self.local(p), other.local(p))) for p in primes)

    def __neg__(self) -> "WittElement":
        return WittElement((p, _local_neg(p, v)) for p, v in self.entries)

    def to_json(self) -> dict:
        # at p = 1 mod 4 the class x + 2y is written as its coordinates (x,y)
        return {
            str(p): f"({v & 1},{v >> 1})" if p % 4 == 1 else str(v)
            for p, v in self.entries
        }


def _add_unit(locals_: dict, p: int, b: int) -> None:
    """Add the class in W(F_p) of the rank-1 pairing <b> into ``locals_``.

    This is the one per-prime fold: witt_pairing adds one class per cyclic
    atom of odd k, witt_seifert one per term of odd valuation.
    """
    if b % p == 0:
        raise InvalidDataError(f"{b} is not a unit mod {p}")
    v = 1 if p == 2 or legendre(b, p) == 1 else 3 if p % 4 == 3 else 2
    locals_[p] = _local_add(p, locals_.get(p, 0), v)


def _add_rational(locals_: dict, b: int, a: int) -> None:
    """Add the class of (n, n') -> [n n' b/a] into ``locals_`` ({p: local}).

    b/a is in lowest terms with a > 0.  The pairing splits over the primes
    dividing a; the p-component is cyclic of order p^v with unit
    b * (a / p^v), and it is metabolic for even v.
    """
    for p, v in factorize(a).items():
        if v % 2:
            _add_unit(locals_, p, b * (a // p**v))


def witt_pairing(sf: StandardForm) -> WittElement:
    """Witt class of a standard form: a cyclic atom of odd k adds the class
    of <a> over F_p; even k, E0 and E1 are metabolic and add nothing."""
    locals_ = {}
    for atom in sf.atoms:
        if isinstance(atom, Cyc) and atom.k % 2:
            _add_unit(locals_, atom.p, atom.a)
    return WittElement(locals_.items())


def witt_seifert(S: SeifertData) -> WittElement:
    """Witt class of the linking pairing of M(g;S) from the Seifert data.

    For eps = 0 the class is -sum w(beta_i/alpha_i); for eps = P/Q in
    lowest terms an extra -w(1/(P*Q)) appears.  The local classes of all
    terms are summed per prime and negated once.
    """
    eps = euler_invariant(S)
    locals_ = {}
    if eps != 0:
        PQ = eps.numerator * eps.denominator
        _add_rational(locals_, 1 if PQ > 0 else -1, abs(PQ))
    for a, b in S.pairs:
        _add_rational(locals_, b, a)
    return WittElement((p, _local_neg(p, v)) for p, v in locals_.items())


def metabolic_oracle(G: GramPairing, *, bound: int = 2**16):
    """Search for a metabolizer P = P-perp; ground truth for Witt classes.

    Returns (found, generators) where the generators (coefficient tuples)
    generate a subgroup P with |P|^2 = |N| and the pairing vanishing on P.
    Groups of non-square order are immediately non-metabolic.  Refuses
    groups larger than ``bound``.
    """
    size = G.group_order()
    root = isqrt(size)
    if root * root != size:
        return False, None
    if size > bound:
        raise SearchBoundExceeded(f"group order {size} exceeds {bound}")
    if size == 1:
        return True, []
    N, A = G.modulus, G.matrix
    pool = [x for x, _, q in element_table(N, A, G.orders) if any(x) and not q]

    def extend(gens, paired, sub, start):
        # paired holds A g for each generator g, so l(x, g) = x . Ag
        if len(sub) == root:
            return list(gens)
        if len(sub) > root:
            return None
        for idx in range(start, len(pool)):
            x = pool[idx]
            if x in sub:
                continue
            if any(dot(x, ag) % N for ag in paired):
                continue
            new_sub = span(gens + [x], G.orders)
            if root % len(new_sub) == 0 or len(new_sub) == root:
                found = extend(gens + [x], paired + [image(A, x)], new_sub, idx + 1)
                if found is not None:
                    return found
        return None

    found = extend([], [], {tuple([0] * G.rank)}, 0)
    if found is None:
        return False, None
    return True, [list(g) for g in found]
