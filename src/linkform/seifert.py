"""Seifert data for orientable Seifert fibred 3-manifolds M(g; S).

S is an ordered list of coprime pairs (alpha_i, beta_i) with alpha_i >= 2
describing the exceptional fibres; g is the genus of the orientable base.
The generalized Euler number eps = -sum(beta_i/alpha_i) is kept exact and
computed once per instance (``SeifertData.eps``), as are the relevant
primes (``relevant``), each per-prime record of ``torsion.local_orders``
(``local``) and the complete invariant of the linking pairing
(``gauss``); beta_i are deliberately not normalized mod alpha_i since eps
depends on the actual integers.

Data is validated once, at construction: ``SeifertData`` raises
InvalidDataError on a violated invariant, so every function taking one may
assume g >= 0, r >= 1, alpha_i >= 2 and gcd(alpha_i, beta_i) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .arith import factorize
from .errors import InvalidDataError


class _memo:
    """An attribute computed on first use and kept in the instance
    ``__dict__`` under its own name, outside the dataclass fields.

    Later reads find it there without calling this descriptor.  Unlike
    functools.cached_property it takes no lock, which on Python 3.11 makes
    a first access several times slower.
    """

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class SeifertData:
    genus: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        problems = validate(self)
        if problems:
            raise InvalidDataError("; ".join(problems))

    def __str__(self) -> str:
        body = ",".join(f"({a},{b})" for a, b in self.pairs)
        return f"M({self.genus};{body})"

    @property
    def r(self) -> int:
        return len(self.pairs)

    @_memo
    def eps(self) -> Fraction:
        """Generalized Euler number -sum(beta_i/alpha_i); independent of genus.

        Computed on first use as -D/A in integers, with A = prod alpha_i and
        D = sum beta_i A/alpha_i, and kept in the instance ``__dict__``,
        outside the dataclass fields, so it takes no part in ==, hash, repr
        or JSON.
        """
        A = prod(a for a, _ in self.pairs)
        return Fraction(-sum(b * (A // a) for a, b in self.pairs), A)

    @_memo
    def local(self) -> dict:
        """prime -> the record of ``torsion.local_orders`` at that prime.

        Filled by local_orders and kept in ``__dict__`` like ``eps``.
        """
        return {}

    @_memo
    def relevant(self) -> tuple[int, ...]:
        """relevant_primes(self), kept in ``__dict__`` like ``eps``."""
        primes = {p for a in dict.fromkeys(a for a, _ in self.pairs) for p in factorize(a)}
        if self.eps != 0:
            primes.update(factorize(self.eps.numerator))
        return tuple(sorted(primes))

    @_memo
    def gauss(self) -> tuple:
        """``pairing.gauss_invariant(self)``, kept in ``__dict__`` like ``eps``.

        Every relevant prime is read before the trivial ones are dropped, so
        r = 1 and a singular pairing raise, on every read.
        """
        from .pairing import local_invariant_from_data  # late import avoids a cycle

        found = [(p, local_invariant_from_data(self, p)) for p in relevant_primes(self)]
        return tuple((p, inv) for p, inv in found if inv[0])

    def to_json(self) -> dict:
        return {"genus": self.genus, "pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, obj) -> "SeifertData":
        try:
            genus = json_int(obj.get("genus", 0))
            json_keys(obj, ("genus", "pairs"))
            pairs = tuple((json_int(a), json_int(b)) for a, b in obj["pairs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"bad Seifert data: {obj!r}") from exc
        return cls(genus, pairs)


def json_int(x) -> int:
    """x if it is a JSON integer; a float (even 2.0), bool or string is refused."""
    if type(x) is not int:
        raise InvalidDataError(f"expected an integer, got {x!r}")
    return x


def json_keys(obj: dict, known) -> None:
    """Refuse a key of a JSON object that is not among ``known``: it would
    be dropped unread."""
    for key in obj:
        if key not in known:
            raise InvalidDataError(f"unknown key {key!r}; expected {', '.join(known)}")


def seifert(*pairs: tuple[int, int], genus: int = 0) -> SeifertData:
    """Convenience constructor: seifert((2,1),(2,1),(2,1),(2,-1))."""
    return SeifertData(genus, tuple((int(a), int(b)) for a, b in pairs))


def validate(S: SeifertData) -> list[str]:
    """Return a list of violated invariants (empty means valid)."""
    problems = []
    if S.genus < 0:
        problems.append(f"genus {S.genus} < 0")
    if S.r < 1:
        problems.append("empty pair list (need r >= 1)")
    for i, (a, b) in enumerate(S.pairs, start=1):
        if a < 2:
            problems.append(f"pair {i}: alpha={a} < 2")
        elif gcd(a, b) != 1:
            problems.append(f"pair {i}: gcd({a},{b}) = {gcd(a, b)} != 1")
    return problems


def euler_invariant(S: SeifertData) -> Fraction:
    """Generalized Euler number of S: the value cached as ``S.eps``."""
    return S.eps


def fibre_sum(S: SeifertData, T: SeifertData) -> SeifertData:
    """Concatenate Seifert data (fibre sum of the manifolds); genera add."""
    return SeifertData(S.genus + T.genus, S.pairs + T.pairs)


def relevant_primes(S: SeifertData) -> tuple[int, ...]:
    """Primes at which the torsion of H_1(M(g;S)) can be nontrivial.

    These are the primes of the cone point orders and of the numerator of
    the Euler number, found once per instance (``SeifertData.relevant``).
    """
    return S.relevant
