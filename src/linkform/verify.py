"""Seeded, reproducible property suites.

Each suite draws its trial data from a ``random.Random`` seeded through
RunConfig, so identical configurations give byte-identical reports.  The
suites are the machine-checkable statements behind the acceptance tests:
closed-form invariants against matrix computations, realization round
trips, Smith-form structure checks, fibre-sum orthogonality, Witt-class
consistency, and the bounded non-realizability search.

The closed forms that only these suites check (thm3's determinant class
and thm7's hyperbolicity rule) are defined here, beside their suites.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import factorize, legendre, padic_val, square_class
from .errors import InvalidDataError, LinkformError, UnsupportedError
from .linking import HomogeneousComponent, block_diagonalize, gram_matrix
from .pairing import (
    Cyc,
    E0,
    E1,
    StandardForm,
    brute_force_isomorphic,
    canonical_form,
    d_invariant,
    even_decompose,
    is_isomorphic,
    parity,
    standard_form_gram,
    standard_form_of,
)
from .realize import exhaustive_search, realize
from .seifert import SeifertData, euler_invariant, fibre_sum
from .torsion import local_orders, structure_check, torsion_order
from .witt import WittElement, metabolic_oracle, witt_pairing, witt_seifert

SEED_ENV = "LINKFORM_SEED"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int | None = None  # None = suite default
    max_r: int = 5
    max_alpha: int = 8
    max_beta: int = 7
    oracle_bound: int = 2**10

    @classmethod
    def from_env(cls, **overrides) -> "RunConfig":
        seed = overrides.pop("seed", None)
        if seed is None:
            text = os.environ.get(SEED_ENV, "0")
            try:
                seed = int(text)
            except ValueError as exc:
                raise InvalidDataError(f"{SEED_ENV}={text!r} is not an integer") from exc
        return cls(seed=seed, **overrides)


# ---------------------------------------------------------------------------
# random generators


def _rand_unit(rng: random.Random, p: int, bound: int) -> int:
    while True:
        b = rng.randint(-bound, bound)
        if b and b % p:
            return b


def _coprime_padding(rng: random.Random, avoid: set[int]) -> tuple[tuple[int, int], ...]:
    """A pair of cone points with eps-contribution 0 and trivial torsion."""
    choices = [m for m in (3, 5, 7, 11) if m not in avoid]
    if not choices or rng.random() < 0.5:
        return ()
    m = rng.choice(choices)
    c = rng.choice([1, 2])
    return ((m, c), (m, -c))


def rand_flat_homogeneous(
    rng: random.Random, p: int, *, kmax: int = 3, rpmax: int = 6, avoid=()
) -> SeifertData:
    """Random S with eps = 0 and homogeneous p-torsion of exponent p^k.

    Cone point orders avoid the primes in ``avoid`` entirely, so two such
    data sets with disjoint prime support stay coprime for fibre sums.
    """
    avoid = set(avoid)
    while True:
        k = rng.randint(1, kmax)
        rp = rng.randint(3, rpmax)
        u = rng.choice([1, 1, 1, 2]) if p != 2 and 2 not in avoid else 1
        a = p**k * u
        betas = [_rand_unit(rng, p, 3 * p) for _ in range(rp - 1)]
        b1 = -sum(betas)
        if b1 != 0 and b1 % p and gcd(a, b1) == 1 and all(gcd(a, b) == 1 for b in betas):
            pairs = tuple((a, b) for b in [b1] + betas)
            return SeifertData(0, pairs + _coprime_padding(rng, avoid | {p, u}))


def rand_sphere_homogeneous(
    rng: random.Random, p: int, *, kmax: int = 3, rpmax: int = 6
) -> SeifertData:
    """Random S with eps != 0 and homogeneous p-torsion (alpha_1*eps a unit)."""
    while True:
        k = rng.randint(1, kmax)
        rp = rng.randint(2, rpmax)
        bump = rng.random() < 0.4
        betas = [_rand_unit(rng, p, 3 * p) for _ in range(rp)]
        if sum(betas) % p == 0 and not bump:
            continue
        alphas = [p**k] * rp
        if bump:
            # a larger first cone order; homogeneity is then automatic since
            # the leading numerator stays a p-unit
            alphas[0] = p ** (k + 1)
        # eps != 0, in integers: every alpha divides alphas[0]
        if sum(b * (alphas[0] // a) for a, b in zip(alphas, betas)) != 0 and all(
            gcd(a, b) == 1 for a, b in zip(alphas, betas)
        ):
            pairs = tuple(zip(alphas, betas))
            return SeifertData(0, pairs + _coprime_padding(rng, {p}))


def rand_seifert(rng: random.Random, cfg: RunConfig) -> SeifertData:
    """Random valid Seifert data within the configured bounds."""
    while True:
        r = rng.randint(1, cfg.max_r)
        pairs = []
        for _ in range(r):
            a = rng.randint(2, cfg.max_alpha)
            b = rng.randint(-cfg.max_beta, cfg.max_beta)
            if b == 0 or gcd(a, b) != 1:
                break
            pairs.append((a, b))
        else:
            return SeifertData(rng.choice([0, 0, 1, 2]), tuple(pairs))


def rand_odd_standard_form(
    rng: random.Random, *, primes=(3, 5, 7), kmax: int = 3, rankmax: int = 5
) -> StandardForm:
    """Random nontrivial odd-order standard form."""
    atoms = []
    total = rng.randint(1, rankmax)
    while len(atoms) < total:
        p = rng.choice(primes)
        k = rng.randint(1, kmax)
        atoms.append(Cyc(p, k, _rand_unit(rng, p, p**k)))
    return StandardForm(atoms)


def all_two_homogeneous_forms(kmax: int = 3, rhomax: int = 4) -> list[StandardForm]:
    """Standard forms covering every isomorphism class of pairings on (Z/2^k)^rho.

    Diagonal forms are listed once per canonical form, which is incomplete
    at p = 2, and even forms are listed separately, so a class can appear
    twice: the 56 forms for k <= 3, rho <= 4 cover 53 classes.  The
    isomorphic pairs listed are 4<1>/4 and 4<3>/4, 4<1>/8 and 4<3>/8, and
    <1,1,1,5>/8 and <3,3,3,7>/8.
    """
    forms: list[StandardForm] = []
    seen = set()
    for k in range(1, kmax + 1):
        units = [1] if k == 1 else ([1, 3] if k == 2 else [1, 3, 5, 7])
        for rho in range(1, rhomax + 1):
            for combo in itertools.combinations_with_replacement(units, rho):
                sf = canonical_form(StandardForm(Cyc(2, k, a) for a in combo))
                if sf not in seen:
                    seen.add(sf)
                    forms.append(sf)
        for pairs in range(1, rhomax // 2 + 1):
            forms.append(StandardForm([E0(k)] * pairs))
            if k >= 2:
                forms.append(StandardForm([E0(k)] * (pairs - 1) + [E1(k)]))
    return forms


# ---------------------------------------------------------------------------
# suites


def _report(name: str, cfg: RunConfig, trials: int, failures: list, extra=None) -> dict:
    out = {
        "suite": name,
        "seed": cfg.seed,
        "trials": trials,
        "passes": trials - len(failures),
        "failures": failures[:10],
        "failure_count": len(failures),
        "ok": not failures,
    }
    if extra:
        out.update(extra)
    return out


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


def suite_thm3(cfg: RunConfig) -> dict:
    """Closed-form determinant class against the Gram-matrix computation."""
    per_prime = cfg.trials or 500
    rng = random.Random(cfg.seed)
    failures = []
    trials = 0
    cases = {"flat": 0, "sphere": 0}
    for p in (3, 5, 7):
        done = 0
        while done < per_prime:
            S = (
                rand_flat_homogeneous(rng, p)
                if rng.random() < 0.5
                else rand_sphere_homogeneous(rng, p)
            )
            case = d_formula_case(S, p)
            if case is None:
                continue
            comps = block_diagonalize(gram_matrix(S, p))
            if len(comps) != 1:
                continue
            trials += 1
            done += 1
            cases[case] += 1
            if d_class_from_data(S, p) != d_invariant(comps[0]):
                failures.append({"prime": p, "seifert": S.to_json(), "case": case})
    return _report("thm3", cfg, trials, failures, {"cases": cases})


def suite_structure(cfg: RunConfig) -> dict:
    """Smith-normal-form oracle against the localized cyclic decompositions."""
    n = cfg.trials or 500
    rng = random.Random(cfg.seed)
    failures = []
    for i in range(n):
        S = rand_seifert(rng, cfg)
        rep = structure_check(S)
        if not rep["ok"]:
            failures.append({"trial": i, "seifert": S.to_json(), "report": rep})
    return _report("structure", cfg, n, failures)


def suite_lemma1(cfg: RunConfig) -> dict:
    """Fibre sums of coprime flat pieces carry the orthogonal sum pairing."""
    n = cfg.trials or 200
    rng = random.Random(cfg.seed)
    failures = []
    methods = {"brute-force": 0, "canonical": 0}
    for i in range(n):
        p, q = rng.sample([2, 3, 5, 7], 2)
        A = rand_flat_homogeneous(rng, p, kmax=2, rpmax=5, avoid={q})
        B = rand_flat_homogeneous(rng, q, kmax=2, rpmax=5, avoid=set(
            pr for a, _ in A.pairs for pr in factorize(a)
        ))
        C = fibre_sum(A, B)
        if euler_invariant(C) != 0:
            failures.append({"trial": i, "reason": "eps not additive to 0"})
            continue
        want = standard_form_of(A) + standard_form_of(B)
        got = standard_form_of(C)
        small = got.group_order() <= cfg.oracle_bound
        # "canonical" counts the decisions by complete invariants
        # (is_isomorphic); renaming the key would change the lemma1 report
        # digests that the verify benchmark records
        methods["brute-force" if small else "canonical"] += 1
        if small:
            ok = all(
                brute_force_isomorphic(
                    standard_form_gram(got, pp),
                    standard_form_gram(want, pp),
                    bound=cfg.oracle_bound,
                )[0]
                for pp in set(got.primes()) | set(want.primes())
            )
        else:
            ok = is_isomorphic(got, want)
        if not ok:
            failures.append(
                {"trial": i, "sum": C.to_json(), "want": want.to_json(), "got": got.to_json()}
            )
    return _report("lemma1", cfg, n, failures, {"methods": methods})


def _check_round_trip(target: StandardForm, mode: str, failures: list) -> None:
    try:
        res = realize(target, mode)
    except LinkformError as exc:
        failures.append({"target": target.to_json(), "mode": mode, "error": str(exc)})
        return
    eps = euler_invariant(res.seifert)
    if mode == "flat" and eps != 0:
        failures.append({"target": target.to_json(), "mode": mode, "reason": "eps != 0"})
    elif mode == "sphere" and eps == 0:
        failures.append({"target": target.to_json(), "mode": mode, "reason": "eps = 0"})
    elif not res.verified:
        failures.append({"target": target.to_json(), "mode": mode, "reason": "unverified"})


def suite_realize(cfg: RunConfig) -> dict:
    """Round trips: realize(target) in each mode gives data that realize
    itself verified (by gauss_invariant, ``verified``) and whose Euler
    number fits the mode, eps = 0 in flat and eps != 0 in sphere mode.
    A refusal or error counts as a failure.

    Random odd-order targets run in both modes, and so do the forms of
    all_two_homogeneous_forms: every 2-homogeneous class with k <= 3,
    rho <= 4 (53 classes in 56 forms; the report's
    two_homogeneous_classes counts the forms).
    """
    n = cfg.trials or 200
    rng = random.Random(cfg.seed)
    failures = []
    trials = 0
    for _ in range(n):
        target = rand_odd_standard_form(rng)
        for mode in ("flat", "sphere"):
            trials += 1
            _check_round_trip(target, mode, failures)
    two_forms = all_two_homogeneous_forms()
    for target in two_forms:
        for mode in ("flat", "sphere"):
            trials += 1
            _check_round_trip(target, mode, failures)
    return _report(
        "realize", cfg, trials, failures, {"two_homogeneous_classes": len(two_forms)}
    )


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


def rand_thm7_data(rng: random.Random, rho: int) -> SeifertData:
    """Random S whose 2-pairing is even homogeneous with k = 2, given rank."""
    while True:
        flat = rng.random() < 0.5
        r2 = rho + 2 if flat else rho + 1
        u = rng.choice([1, 1, 3])
        a = 4 * u
        betas = [rng.choice([-5, -3, -1, 1, 3, 5]) for _ in range(r2 - 1)]
        if flat:
            b1 = -sum(betas)
            if b1 == 0 or b1 % 2 == 0:
                continue
        else:
            b1 = rng.choice([-5, -3, -1, 1, 3, 5])
            if (b1 + sum(betas)) % 2 == 0:  # alpha_1 * eps must be odd
                continue
        betas = [b1] + betas
        if any(gcd(a, b) != 1 for b in betas):
            continue
        return SeifertData(0, tuple((a, b) for b in betas))


def suite_thm7(cfg: RunConfig) -> dict:
    """Hyperbolicity of even 2-components: counting rule vs matrix reduction
    vs brute-force identification with the standard hyperbolic form."""
    n = cfg.trials or 200
    rng = random.Random(cfg.seed)
    failures = []
    trials = 0
    # one pairing per rank, so each is enumerated once by brute_force_isomorphic
    hyperbolic = {
        rho: standard_form_gram(StandardForm([E0(2)] * (rho // 2)), 2) for rho in (2, 4)
    }
    for i in range(n):
        rho = rng.choice([2, 4])
        S = rand_thm7_data(rng, rho)
        comps = block_diagonalize(gram_matrix(S, 2))
        comp = next((c for c in comps if parity(c) == "even"), None)
        if comp is None or comp.rank != rho or comp.k != 2:
            failures.append({"trial": i, "seifert": S.to_json(), "reason": "not even homogeneous"})
            continue
        trials += 1
        by_matrix = hyperbolic_test(comp)
        by_counts = hyperbolic_from_counts(div4_diagonal_count(S), rho)
        by_force = brute_force_isomorphic(
            comp.gram(), hyperbolic[rho], bound=cfg.oracle_bound
        )[0]
        if not (by_matrix == by_counts == by_force):
            failures.append(
                {
                    "trial": i,
                    "seifert": S.to_json(),
                    "matrix": by_matrix,
                    "counts": by_counts,
                    "brute_force": by_force,
                }
            )
    return _report("thm7", cfg, trials, failures)


def suite_witt(cfg: RunConfig) -> dict:
    """Witt-class consistency, metabolic certificates, and group axioms."""
    n = cfg.trials or 200
    rng = random.Random(cfg.seed)
    failures = []
    sign = None
    trials = 0
    found = 0
    while found < n:
        S = rand_seifert(rng, cfg)
        if S.r < 2 or torsion_order(S) > 2**12:
            continue
        found += 1
        trials += 1
        from_data = witt_seifert(S)
        from_atoms = witt_pairing(standard_form_of(S))
        if sign is None and not from_atoms.is_zero():
            sign = 1 if from_data == from_atoms else (-1 if from_data == -from_atoms else 0)
            if sign == 0:
                failures.append({"seifert": S.to_json(), "reason": "no consistent sign"})
                sign = 1
                continue
        expected = from_atoms if sign in (None, 1) else -from_atoms
        if from_data != expected:
            failures.append(
                {
                    "seifert": S.to_json(),
                    "data": from_data.to_json(),
                    "atoms": from_atoms.to_json(),
                }
            )
    # metabolic atoms are certified metabolic and Witt-trivial
    for atom in [E0(1), E0(2), E0(3), E1(2), E1(3)]:
        sf = StandardForm([atom])
        trials += 1
        ok, _ = metabolic_oracle(standard_form_gram(sf, 2), bound=2**16)
        if not ok or not witt_pairing(sf).is_zero():
            failures.append({"atom": sf.to_json(), "reason": "metabolic certificate failed"})
    # f + (-f) is metabolic for small random forms
    for _ in range(10):
        sf = rand_odd_standard_form(rng, primes=(3, 5), kmax=1, rankmax=2)
        doubled = sf + sf.negated()
        if doubled.group_order() ** 2 > 2**16:
            continue
        trials += 1
        G = standard_form_gram(doubled, sf.primes()[0])
        ok, _ = metabolic_oracle(G, bound=2**16)
        if not ok:
            failures.append({"form": doubled.to_json(), "reason": "f+(-f) not metabolic"})
    # local group laws, exhaustively per representative prime
    for p, elems in (
        (2, [0, 1]),
        (3, [0, 1, 2, 3]),
        (5, [0, 1, 2, 3]),
    ):
        trials += 1
        bad = _check_local_group(p, elems)
        if bad:
            failures.append({"prime": p, "reason": bad})
    return _report("witt", cfg, trials, failures, {"sign_convention": sign or 1})


def _check_local_group(p: int, elems) -> str | None:
    def lift(v):
        return WittElement(((p, v),))

    zero = WittElement()
    for a in elems:
        ea = lift(a)
        if ea + zero != ea or ea + (-ea) != zero:
            return f"identity/inverse fails at {a}"
        for b in elems:
            if lift(a) + lift(b) != lift(b) + lift(a):
                return f"commutativity fails at {a},{b}"
            for c in elems:
                if (lift(a) + lift(b)) + lift(c) != lift(a) + (lift(b) + lift(c)):
                    return f"associativity fails at {a},{b},{c}"
    if p % 4 == 3:
        x = lift(1)
        powers = {1: x, 2: x + x, 3: x + x + x, 4: x + x + x + x}
        if powers[4] != zero or powers[2] == zero:
            return "generator order is not 4"
    elif p != 2 and lift(1) + lift(1) != zero:
        return "order-2 law fails"
    return None


def suite_search_nonrealizable(cfg: RunConfig) -> dict:
    """Bounded corroboration that E0(2)+E0(1) is not a Seifert pairing,
    and that the search does find the known realization of its odd cousin."""
    bad = StandardForm([E0(2), E0(1)])
    alphas = [a for a in (2, 4, 8) if a <= cfg.max_alpha]
    hits_bad = exhaustive_search(
        bad, max_r=cfg.max_r, alphas=alphas, max_beta=cfg.max_beta
    )
    nil_class = StandardForm([Cyc(2, 2, 3), E0(1)])
    hits_nil = exhaustive_search(
        nil_class, max_r=min(cfg.max_r, 4), alphas=alphas, max_beta=cfg.max_beta
    )
    nil = tuple(sorted(((2, 1), (2, 1), (2, 1), (2, -1))))
    found_nil = any(tuple(sorted(S.pairs)) == nil for S in hits_nil)
    failures = []
    if hits_bad:
        failures.append({"unexpected": [S.to_json() for S in hits_bad[:5]]})
    if not found_nil:
        failures.append({"missing": "known half-Nil realization"})
    return _report(
        "search-nonrealizable",
        cfg,
        2,
        failures,
        {
            "even_even_hits": len(hits_bad),
            "nil_class_hits": len(hits_nil),
            "nil_data_found": found_nil,
        },
    )


SUITES = {
    "thm3": suite_thm3,
    "thm7": suite_thm7,
    "realize": suite_realize,
    "witt": suite_witt,
    "structure": suite_structure,
    "lemma1": suite_lemma1,
    "search-nonrealizable": suite_search_nonrealizable,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](cfg)
