"""Constructive realization of linking pairings by Seifert data.

Every construction is recipe-first, verify-always.  Each odd prime of the
target gets one piece derived from its levels, and so does the 2-part of a
mixed target; only a 2-primary target has a stream of candidates
(_two_candidates: orientation variants and small repairs).
_first_verified checks each whole candidate once by complete invariants
(verify_realization) and returns the first that verifies; running out of
candidates raises VerificationError.  A target outside the implemented
constructions raises UnrealizableError up front.  Target shapes are read
level by level via StandardForm.levels, the 2-primary ones from the
canonical form.

realize is the one dispatcher.  It reads whether the target has a 2-part,
whether that 2-part is homogeneous ("gapped" if not), and its odd primes.

  * trivial: one fixed candidate, trivial-flat or trivial-sphere;
  * 2-primary: _two_candidates, in every mode: homogeneous targets in
    both modes, even (E0/E1) or odd (diagonal), and gapped ones with the
    lower levels stacked under the top one, under the gap condition
    (exponent drops >= 2 between consecutive levels, lower levels odd);
  * odd primes, flat or auto mode: a flat piece per odd prime and the
    flat candidate of _two_candidates for the 2-part, joined by a fibre sum
    (mixed-flat[...]).  Coprime cone orders and eps = 0 make the pairings
    add orthogonally (Lemma 1).  A gapped 2-part is joined to the fibre sum
    of the odd pieces;
  * odd primes, sphere mode: one balancing cone point for every prime
    (odd-sphere/balanced, mixed-sphere/balanced), for an odd homogeneous
    2-part or none.

An UnrealizableError proves no obstruction.  Some refused targets are
realized: <1>/4+<1>/2 (gap violated) by M(0;(2,-5),(4,7),(8,5)), and
Cyc(2,2,3)+E0(1) (an even component below the top 2-exponent) by
M(0;(2,1),(2,1),(2,1),(2,-1)).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .arith import factorize, fmt_rational, least_nonresidue, legendre, padic_val
from .errors import InvalidDataError, UnrealizableError, UnsupportedError, VerificationError
from .pairing import (
    Cyc,
    StandardForm,
    canonical_form,
    gauss_invariant,
)
from .seifert import SeifertData, euler_invariant, fibre_sum


@dataclass(frozen=True)
class RealizationResult:
    seifert: SeifertData
    verified: bool
    construction: str
    euler: Fraction

    def to_json(self) -> dict:
        return {
            "seifert": self.seifert.to_json(),
            "verified": self.verified,
            "construction": self.construction,
            "euler": fmt_rational(self.euler),
        }


def verify_realization(S: SeifertData, target: StandardForm) -> bool:
    """Exact round trip: the pairing of M(0;S) matches the target at every
    prime of the target and is trivial at every other relevant prime.

    Decided prime by prime by gauss_invariant, a complete invariant: read
    from the Seifert data (no Gram matrix, no classification) and, for the
    target, once per StandardForm.  Every relevant prime of S is read first,
    so a singular pairing raises rather than reads as False.
    """
    return gauss_invariant(S) == gauss_invariant(target)


def _negate_betas(S: SeifertData) -> SeifertData:
    """Orientation reversal: realizes the negated pairing."""
    return SeifertData(S.genus, tuple((a, -b) for a, b in S.pairs))


def _balanced(alpha: int, c: int, rest) -> SeifertData:
    """M(0; (alpha, c - sum alpha*b/a), *rest), so that eps = -c/alpha exactly.

    Every cone order a of ``rest`` divides alpha, which makes the balancing
    numerator an integer.
    """
    assert all(alpha % a == 0 for a, _ in rest)
    return SeifertData(0, ((alpha, c - sum(alpha // a * b for a, b in rest)), *rest))


def _first_verified(candidates, target: StandardForm) -> RealizationResult:
    """The first (label, data) candidate that verifies, each checked once.

    Exhausting the candidates raises VerificationError.
    """
    tried = []
    for label, S in candidates:
        if verify_realization(S, target):
            return RealizationResult(S, True, label, euler_invariant(S))
        tried.append(label)
    shown = tried if len(tried) <= 12 else tried[:12] + [f"... {len(tried) - 12} more"]
    raise VerificationError(
        f"no construction candidate verified for {target.to_json()}; tried {shown}"
    )


# ---------------------------------------------------------------------------
# odd p, eps = 0


def _sum_zero_unit_tuple(p: int, m: int, want_cls: int) -> tuple[int, ...]:
    """The first tuple of m units mod p with exact sum 0 and given class of product.

    Deterministic order; used for the top block of the flat odd-p recipe.
    Each tail of m - 2 units is completed by a pair (b1, b2).  The
    alternating +-1 tail comes first, then the same tail ending in 2.  The
    latter sums to 2 or 3, a unit for p >= 5, and a tail with a unit sum
    has pairs with |b2| < 4p of either class.  At p = 3 the tail's sum
    fixes the class of the pair, so both can miss a class.  The tails with
    j non-residues (j = 0..m-2) follow; at p = 3 these reach every class
    that a sum-zero tuple has.
    """
    base = tuple(1 if i % 2 == 0 else -1 for i in range(m - 2))
    nonres = -1 if legendre(-1, p) == -1 else least_nonresidue(p)
    tails = [base, base[:-1] + (2,)]
    tails += [(nonres,) * j + (1,) * (m - 2 - j) for j in range(m - 1)]
    for tail in tails:
        if any(b % p == 0 for b in tail):
            continue
        t = sum(tail)
        cls_tail = prod(legendre(b, p) for b in tail) if tail else 1
        for b2 in itertools.chain.from_iterable((v, -v) for v in range(1, 4 * p)):
            if b2 % p == 0:
                continue
            b1 = -t - b2
            if b1 == 0 or b1 % p == 0:
                continue
            if legendre(b1, p) * legendre(b2, p) * cls_tail == want_cls:
                return (b1, b2) + tail
    raise VerificationError(f"no sum-zero unit tuple of length {m} and class {want_cls} mod {p}")


def _odd_flat_piece(target: StandardForm, p: int) -> tuple[str, SeifertData]:
    """(label, data) realizing the p-part of target (p odd) with all cone
    orders powers of p and eps = 0 exactly (genus 0)."""
    blocks = target.levels(p)
    k1, units1, _, _ = blocks[0]
    m1 = len(units1) + 2
    d1 = prod(legendre(a, p) for a in units1)

    lower: list[tuple[int, int]] = []
    for kj, unitsj, _, _ in blocks[1:]:
        dj = prod(legendre(a, p) for a in unitsj)
        closer_cls = dj * (legendre(-1, p) if len(unitsj) % 2 else 1)
        closer = 1 if closer_cls == 1 else least_nonresidue(p)
        lower += [(p**kj, 1)] * (len(unitsj) - 1) + [(p**kj, closer)]

    want = d1 * (legendre(-1, p) if (m1 - 1) % 2 else 1)
    if p == 3 and m1 == 4 and want == -1:
        # with four order-3^k cone points and exact sum 0 only the other
        # class is reachable; bump the first two cone orders instead
        big = 3 ** (k1 + 1)
        bump = _balanced(big, 0, [(big, 5), (3**k1, -1), (3**k1, -1), *lower])
        return "odd-flat/base-order-bump", bump
    # the top betas sum to 0, so balancing the first against the rest keeps it
    q1 = p**k1
    betas = _sum_zero_unit_tuple(p, m1, want)
    return "odd-flat/sum-zero[0]", _balanced(q1, 0, [(q1, b) for b in betas[1:]] + lower)


# ---------------------------------------------------------------------------
# odd order, eps != 0


def _small_unit_rep(a: int, mod: int) -> int:
    """Representative of a mod `mod` with minimal absolute value (ties > 0)."""
    a %= mod
    return a if a <= mod - a else a - mod


def _odd_prime_tail(p: int, blocks) -> list[tuple[int, int]]:
    """The tail of one odd prime in the balanced construction: a cone point
    (p^k, -a) for each unit a of each level k."""
    return [(p**k, _small_unit_rep(-a, p**k)) for k, units, _, _ in blocks for a in units]


def _two_tail_for_sphere(k: int, units: list[int], alpha_big: int) -> list[tuple[int, int]]:
    """The 2-primary tail for the balanced construction.

    The extra generator coming from the balancing pair carries the least
    target unit x; its value is -(2m + beta_2^{-1}) mod 8 where m is the
    odd part of alpha_big, which pins beta_2 (-x - 2m is odd, so it is
    invertible).  The remaining numerators are solved slot by slot mod 8,
    in sorted order.  Because m is odd, the cross terms between the
    corrected generators sit in 2 + 4Z, so each diagonalization pivot
    shifts the still-open slots by 4; slot j is therefore solved against
    b_j + 4j.  A numerator c gives the slot the value -c - beta_2 - x^{-1}
    mod 8 (c^2 = beta_2^2 = 1 mod 8), which takes every odd class as c
    does: every slot has a solution, so there is one tail and no search.
    """
    q = 2**k
    mod = min(q, 8)
    m = alpha_big >> (k + 1)
    assert m % 2 == 1
    x, *rest = units  # reduced and sorted, as StandardForm.levels gives them
    beta2 = pow((-x - 2 * m) % 8, -1, 8)
    x_inv = pow(x, -1, mod)
    return [(q, _small_unit_rep(beta2, 8))] + [
        (q, _small_unit_rep(-b - 4 * j - beta2 - x_inv, mod)) for j, b in enumerate(rest)
    ]


def _balanced_sphere(form: StandardForm, label: str, target: StandardForm) -> RealizationResult:
    """Rational-homology-sphere realization of target, isomorphic to the
    standard form ``form``, via one balancing cone point.

    S = ((A, B)) + per-prime tails with B = -1 - A * sum(beta/alpha), so
    eps = 1/A exactly (see _balanced).  p^(k+1) divides A for the top
    exponent k at p, so the p-part of the pairing depends only on A and the
    p-tail: each prime has one tail, derived from its levels.
    """
    primes = form.primes()
    per_prime = {p: form.levels(p) for p in primes}
    alpha_big = prod(p ** (per_prime[p][0][0] + 1) for p in primes)
    tails = [
        _two_tail_for_sphere(per_prime[2][0][0], per_prime[2][0][1], alpha_big)
        if p == 2
        else _odd_prime_tail(p, per_prime[p])
        for p in primes
    ]
    S = _balanced(alpha_big, -1, [pair for tail in tails for pair in tail])
    return _first_verified([(label, S)], target)


# ---------------------------------------------------------------------------
# 2-primary targets


def _even_beta_pattern(rho: int, has_e1: bool, r: int) -> list[int]:
    if not has_e1:
        return [(-1) ** i for i in range(1, r + 1)]
    if rho % 4 == 2:
        return [-3, 1, 1] + [(-1) ** i for i in range(4, r + 1)]
    return [-5, 1, 1, 1, 1] + [(-1) ** i for i in range(6, r + 1)]


def _sphere2_candidates(k: int, residues, lower_targets, tag: str):
    """Sphere-mode candidates for a 2-primary target with odd top level.

    ``residues`` are the top-level diagonal classes, ``lower_targets`` the
    wanted (k_j, b_j) of strictly lower levels (gap >= 2).  Three families
    are produced, each with an orientation-flipped twin whose lower-level
    targets are negated consistently: one big cone point whose extra
    generator carries a slot congruent to 3 (after optional pair shifts),
    the <1,-1> three-cone-point shape, and exact-determinant lens shapes
    for rank-1 top levels.  All have 2-power homology by construction.
    """
    mk = min(2**k, 8)
    q = 2**k
    three = 3 % mk

    def lower_variants(flip: bool):
        # the derived mod-8 numerators come first (the second-largest cone
        # order in these shapes is 2^k, so a level with k - k_j = 2 needs a
        # twist); cross-level corrections can still move classes, so the
        # remaining odd residues follow as verified alternatives
        options = []
        for kj, b in lower_targets:
            bb = (-b) % 8 if flip else b % 8
            wanted = (-bb - 4) % 8 if k - kj == 2 else (-bb) % 8
            mkj = min(2**kj, 8)
            slot = [_small_unit_rep(wanted, mkj)]
            slot += [
                _small_unit_rep(u, mkj)
                for u in (1, 3, 5, 7)
                if _small_unit_rep(u, mkj) not in slot
            ]
            options.append([(2**kj, c) for c in slot])
        return itertools.islice(itertools.product(*options), 256)

    def shapes(top, top_variants, low, j):
        for i, tv in enumerate(top_variants):
            if three in tv:
                # the big pair's generator carries the slot congruent to 3,
                # the small cone points carry 4 - b for the other slots
                others = list(tv)
                others.remove(three)
                rest = [(q, 1)] + [(q, _small_unit_rep(4 - b, 8)) for b in others]
                yield f"odd-sphere-z3[{i},{j}]", _balanced(4 * q, 1, rest + low)
        if mk == 8 and top == [1, 7]:
            yield f"odd-sphere-pm1[{j}]", _balanced(2 * q, 1, [(q, 1), (q, -1), *low])
        if len(top) == 1:
            # l(s,s) = (4 - b2^-1)/q and lower levels see b2^2 = 1 mod 8, so
            # the pairing depends on b2 mod 8 only: b2 -+ 8 would repeat these
            for b2 in (1, -1, 3, -3):
                yield f"lens[2,{b2},1,{j}]", _balanced(4 * q, 1, [(q, b2), *low])

    for flipped in (False, True):
        top = sorted((-b) % mk for b in residues) if flipped else residues
        suffix = "/flipped" if flipped else ""
        top_variants = [top]
        if mk == 8:
            for b in sorted(set(top)):
                if top.count(b) >= 2:
                    shifted = list(top)
                    shifted.remove(b)
                    shifted.remove(b)
                    top_variants.append(sorted(shifted + [(b + 4) % 8] * 2))
        for j, low in enumerate(lower_variants(flipped)):
            for name, S in shapes(top, top_variants, list(low), j):
                yield f"{tag}/{name}{suffix}", _negate_betas(S) if flipped else S


def _two_candidates(target: StandardForm, mode: str):
    """(label, data) candidates realizing a 2-primary pairing with all cone
    orders powers of 2, refusing a target up front.

    The top level gets its homogeneous recipe: diagonal or even (E0/E1),
    flat or sphere.  A homogeneous target is this case alone (tag
    two-homog).  An inhomogeneous target stacks its lower levels under the
    top one (tag gap-stacked), which needs exponent drops k_j >= k_{j+1} + 2
    and odd components below the top level.  Other inhomogeneous targets
    raise UnrealizableError as outside the implemented constructions, which
    is not a proof that no Seifert manifold realizes them.  Lower-level
    numerators are derived from the wanted mod-8 residues, with a bounded
    search via orientation variants.
    """
    blocks = canonical_form(target).levels(2)
    if any(e0 or e1 for _, _, e0, e1 in blocks[1:]):
        raise UnrealizableError(
            "an even component below the top 2-exponent is outside the "
            "implemented constructions"
        )
    for (ka, *_), (kb, *_) in zip(blocks, blocks[1:]):
        if ka < kb + 2:
            raise UnrealizableError(
                f"consecutive 2-exponents {ka}, {kb} drop by less than 2, which "
                "is outside the implemented (gap condition) constructions"
            )
    k1, cycs1, e0_1, e1_1 = blocks[0]
    q = 2**k1
    rho1 = len(cycs1) + 2 * (e0_1 + e1_1)
    tag = "two-homog" if len(blocks) == 1 else "gap-stacked"

    def lower_pairs(top_alpha: int) -> list[tuple[int, int]]:
        out = []
        for kj, cycsj, _, _ in blocks[1:]:
            g = padic_val(top_alpha, 2) - kj
            for b in cycsj:
                wanted = (-b - 4) % 8 if g == 2 else (-b) % 8
                out.append((2**kj, _small_unit_rep(wanted, min(2**kj, 8))))
        return out

    def candidates():
        for m in ("flat", "sphere") if mode == "auto" else (mode,):
            if not cycs1:
                # the pattern sums to 0 (flat) or -1 (sphere): eps = 0 or 1/2^k1
                r = rho1 + 2 if m == "flat" else rho1 + 1
                pattern = _even_beta_pattern(rho1, e1_1 > 0, r)
                rest = [(q, b) for b in pattern[1:]] + lower_pairs(q)
                kind = ("e1-" if e1_1 else "hyperbolic-") if len(blocks) == 1 else ""
                yield f"{tag}/even-{kind}{m}", _balanced(q, sum(pattern), rest)
            elif m == "flat":
                rest = [(4 * q, 1)] + [(q, _small_unit_rep(3 * b, 8)) for b in cycs1]
                yield f"{tag}/odd-flat", _balanced(4 * q, 0, rest + lower_pairs(4 * q))
            else:
                lower = [(kj, b) for kj, cycsj, _, _ in blocks[1:] for b in cycsj]
                yield from _sphere2_candidates(k1, cycs1, lower, tag)

    return candidates()


# ---------------------------------------------------------------------------
# dispatcher


def _fibre_sum_of(pieces) -> tuple[str, SeifertData]:
    """The labelled fibre sum of (label, data) pieces; flat pieces at coprime
    primes add orthogonally (Lemma 1), so it realizes the orthogonal sum."""
    labels, data = zip(*pieces)
    return f"mixed-flat[{'+'.join(labels)}]", functools.reduce(fibre_sum, data)


def realize(target: StandardForm, mode: str = "auto") -> RealizationResult:
    """Realize a standard form by Seifert data M(0;S), if a construction exists.

    mode is "flat" (eps = 0), "sphere" (eps != 0), or "auto" (flat first;
    only _two_candidates has sphere candidates left to try after flat ones).

      target                  flat, auto                        sphere
      trivial                 trivial-flat                      trivial-sphere
      2-primary               _two_candidates                   _two_candidates
      one odd prime           _odd_flat_piece                   odd-sphere/balanced
      odd primes              mixed-flat[odd pieces]            odd-sphere/balanced
      odd + homogeneous 2     mixed-flat[odd pieces + two]      mixed-sphere/balanced,
                                                                refused if the 2-part is even
      odd + gapped 2          mixed-flat[two + mixed-flat[odd   refused
                              pieces]]
    """
    if mode not in ("auto", "flat", "sphere"):
        raise UnsupportedError(f"unknown mode {mode!r}")
    if not target.atoms:
        pairs = ((2, 1), (3, -1)) if mode == "sphere" else ((2, 1), (2, -1))
        label = "trivial-sphere" if mode == "sphere" else "trivial-flat"
        return _first_verified([(label, SeifertData(0, pairs))], target)
    odd = StandardForm(a for a in target.atoms if a.p != 2)
    if not odd.atoms:
        return _first_verified(_two_candidates(target, mode), target)
    two = target.restrict(2)
    gapped = len(two.levels(2)) > 1  # canonical_form keeps every level
    if mode == "sphere":
        if gapped:
            raise UnrealizableError(
                "sphere mode with an inhomogeneous 2-part is outside the "
                "implemented constructions"
            )
        two_atoms = canonical_form(two).atoms
        if any(not isinstance(a, Cyc) for a in two_atoms):
            raise UnrealizableError(
                "sphere-mode realization with an even 2-part is outside the "
                "implemented constructions; use flat mode"
            )
        # balance the 2-part's canonical diagonal
        label = "mixed-sphere/balanced" if two_atoms else "odd-sphere/balanced"
        return _balanced_sphere(odd + StandardForm(two_atoms), label, target)
    # one flat piece per prime, the 2-part's first: a gapped one may be refused
    two_piece = next(_two_candidates(two, "flat")) if two.atoms else None
    pieces = [_odd_flat_piece(odd, p) for p in odd.primes()]
    if gapped:  # the 2-part is joined to the fibre sum of the odd pieces
        pieces = [two_piece, _fibre_sum_of(pieces)]
    elif two_piece:
        pieces.append(two_piece)
    return _first_verified([_fibre_sum_of(pieces) if len(pieces) > 1 else pieces[0]], target)


# ---------------------------------------------------------------------------
# exhaustive search


def exhaustive_search(
    target: StandardForm,
    *,
    max_r: int,
    max_beta: int,
    alphas,
) -> list[SeifertData]:
    """All genus-0 Seifert data within bounds whose pairing is isomorphic to
    target (the pairing does not depend on the genus).

    Candidates are multisets of pairs from the pool of admissible (a, b),
    listed by r, then lexicographically by pool position (a repeated alpha
    repeats its pairs), so the result is closed under pair permutation up to
    the sorted representative.  r = 1 candidates are only reported for the
    trivial target: lens-space pairings are not computed by this pipeline.

    The pool falls into blocks, one per entry of alphas.  A candidate takes
    m_k pairs from block k: an alpha multiset (the m_k) and, per block, a
    multiset of m_k betas.  With A = prod a_i and c_k = A / a_k,

      D = sum_i b_i prod_{j != i} a_j = -A eps = sum_k c_k s_k,

    where s_k is the sum of block k's betas, so D is linear in the s_k.
    The search runs in two stages, and only integers enter either.

      * Alpha multisets, depth first over the blocks, one block at a time
        with each multiplicity m_k in turn.  Per prime p (of an alpha or of
        the target) a multiset keeps its sorted nonzero v_p(a_i);
        local_orders makes each of them outside the two largest a summand
        Z/p^v, plus Z/p^s with s = v_p(D) - (their sum) when D != 0.
        Adding a cone point only adds to that rest, so a multiset whose rest
        is not a sub-multiset of the target's p-exponents is cut together
        with every superset of it.  A multiset with r >= 2 passes iff its
        rest lacks none of the target's exponents (then D is 0 or +-|T|) or
        at most one, which v_p(D) = v_p(|T|) supplies (then D = +-|T|).
        For D != 0 the torsion of H_1 has order |D|, which must be the
        target's order |T|; D = 0 (eps = 0) says nothing about it.
      * Betas, by a join.  A surviving multiset fixes A, the c_k and the
        allowed D.  A value of D that is not a multiple of gcd(c_k), or
        exceeds max_beta sum_k c_k m_k in size, is dropped at once.  Per
        block and multiplicity, a table maps each sum of m_k betas to the
        pool position tuples that give it; it is built on first use from
        combinations_with_replacement and shared by every multiset.  The
        join walks the distinct sums of every block but the one with the
        most sums, and solves that block's sum for each allowed D.

    A survivor is decided once per manifold: M(0; S) depends only on the
    multiset of pairs (a_i, b_i mod a_i) and on eps (Seifert's
    classification; Orlik, Seifert Manifolds, LNM 291, 1972), and the alphas
    fix A, so that multiset and D name it.  Each residue class (a, b mod a)
    of the pool is a digit of base max_r + 1, read once per pool position,
    and a survivor's key is (the sum of its positions' digits, D): the sum
    counts the pairs per class, at most max_r each.  verify_realization runs
    on the first survivor of each key in the order of the result, the only
    one whose SeifertData is built before it is reported; a later one reuses
    the verdict.  That SeifertData decides the orientation reversal too:
    b_i -> -b_i negates the pairing, so the key of the classes
    (a_i, -b_i mod a_i) with -D realizes target iff S realizes
    target.negated(), a comparison with the invariant kept on S.  The
    survivors are closed under reversal, so each manifold is still checked
    once.
    """
    alphas = sorted(alphas)
    if max_r < 1 or max_beta < 1 or not alphas or alphas[0] < 2:
        raise InvalidDataError(
            "search bounds need max_r >= 1, max_beta >= 1 and alphas, all >= 2 "
            f"(got max_r={max_r}, max_beta={max_beta}, alphas={alphas})"
        )
    want = {p: [k for _, k in target.restrict(p).group_structure()] for p in target.primes()}
    order = prod(p**k for p, ks in want.items() for k in ks)
    primes = sorted(set(want).union(*map(factorize, alphas)))
    wants = [Counter(want.get(p, ())) for p in primes]
    totals = [w.total() for w in wants]
    pool, blocks = [], []
    for a in alphas:
        betas = [b for b in range(-max_beta, max_beta + 1) if b and gcd(a, b) == 1]
        vals = [(i, padic_val(a, p)) for i, p in enumerate(primes) if a % p == 0]
        blocks.append((a, range(len(pool), len(pool) + len(betas)), vals))
        pool += [(a, b) for b in betas]
    # r = 1: M(0; (a, b)) has H_1 = Z/|b|, so only |b| = 1 can give the trivial target
    hits = [SeifertData(0, (ab,)) for ab in pool if not target.atoms and abs(ab[1]) == 1]
    tables, survivors = {}, []

    def table(k, m):
        # sum of m betas of block k -> the pool position tuples giving it
        if (k, m) not in tables:
            sums = tables[k, m] = {}
            for js in itertools.combinations_with_replacement(blocks[k][1], m):
                sums.setdefault(sum(pool[j][1] for j in js), []).append(js)
        return tables[k, m]

    def join(chosen, A, leaf):
        # D = sum_k c_k s_k is a multiple of gcd(c_k) and at most
        # max_beta sum_k c_k m_k in size
        cs = [A // blocks[k][0] for k, _ in chosen]
        reach = max_beta * sum(c * m for c, (_, m) in zip(cs, chosen))
        leaf = [d for d in leaf if abs(d) <= reach and d % gcd(*cs) == 0]
        if not leaf:
            return
        parts = [(c, table(k, m)) for c, (k, m) in zip(cs, chosen)]
        solved = max(range(len(parts)), key=lambda i: len(parts[i][1]))
        c, last = parts.pop(solved)
        for picks in itertools.product(*(t.items() for _, t in parts)):
            partial = sum(ck * s for (ck, _), (s, _) in zip(parts, picks))
            for d in leaf:
                s, off = divmod(d - partial, c)
                if not off and s in last:
                    tuples = [ix for _, ix in picks]
                    tuples.insert(solved, last[s])
                    for js in itertools.product(*tuples):
                        survivors.append((sum(js, ()), d))

    def add(levels, k):
        # levels[i]: the sorted nonzero v_p(a_j) at primes[i].  Returns the
        # levels with one more cone point of block k and the values of D at
        # which such a multiset passes, or None if it is cut
        child = list(levels)
        for i, v in blocks[k][2]:
            vs = child[i] = tuple(sorted(levels[i] + (v,)))
            if len(vs) > 2:
                e = min(v, levels[i][-2])  # the one exponent that joins the rest
                if vs[:-2].count(e) > wants[i][e]:
                    return None
        gaps = [t - len(vs[:-2]) for t, vs in zip(totals, child)]
        leaf = (-order, 0, order) if not any(gaps) else (-order, order)
        return child, leaf if max(gaps) < 2 else ()

    def walk(first, r, A, levels, chosen):
        # chosen: the (block, m) of the multiset so far, r cone points in all
        for k in range(first, len(blocks)):
            a = blocks[k][0]
            step = levels
            for m in range(1, max_r - r + 1):
                got = add(step, k)
                if got is None:
                    break
                step, leaf = got
                grown, Am = chosen + [(k, m)], A * a**m
                if r + m > 1 and leaf:
                    join(grown, Am, leaf)
                if r + m < max_r:
                    walk(k + 1, r + m, Am, step, grown)

    walk(0, 0, 1, [()] * len(primes), [])
    survivors.sort(key=lambda s: (len(s[0]), s[0]))  # by r, then by pool position
    # each residue class (a, b mod a) is a digit of base max_r + 1, so the
    # sum over a survivor's pool positions counts its pairs per class
    digits = {}

    def digit(a, b):
        return digits.setdefault((a, b % a), (max_r + 1) ** len(digits))

    codes = [digit(a, b) for a, b in pool]
    flips = [digit(a, -b) for a, b in pool]
    verdicts, negated = {}, target.negated()
    for js, d in survivors:
        key = (sum(map(codes.__getitem__, js)), d)
        S = None
        if key not in verdicts:
            S = SeifertData(0, tuple(map(pool.__getitem__, js)))
            verdicts[key] = verify_realization(S, target)
            flipped = (sum(map(flips.__getitem__, js)), -d)
            if flipped not in verdicts:
                verdicts[flipped] = verify_realization(S, negated)
        if verdicts[key]:
            hits.append(S or SeifertData(0, tuple(map(pool.__getitem__, js))))
    return hits
