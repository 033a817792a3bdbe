"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All randomized criteria are seeded and deterministic.
"""

import itertools
import time

from linkform.linking import gram_matrix
from linkform.pairing import (
    Cyc,
    E0,
    E1,
    StandardForm,
    brute_force_isomorphic,
    classify,
    gauss_invariant,
    standard_form_gram,
)
from linkform.seifert import euler_invariant, seifert
from linkform.verify import RunConfig, all_two_homogeneous_forms, run_suite
from linkform.realize import realize

SEED = 20260808
NIL = seifert((2, 1), (2, 1), (2, 1), (2, -1))


def _announce(num, detail, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"[criterion {num:2d}] PASS ({elapsed:6.2f}s)  {detail}")


def test_criterion_01_nil_classification():
    t0 = time.time()
    got = classify(gram_matrix(NIL, 2)).standard_form
    plus = StandardForm([Cyc(2, 2, 3), E0(1)])
    minus = StandardForm([Cyc(2, 2, 1), E0(1)])
    assert got in (plus, minus)
    sign = "computed orientation (+)" if got == plus else "reversed orientation (-)"
    _announce(1, f"quarter-turn Nil space is {got.to_json()['atoms']}; {sign}", t0, 1.0)


def test_criterion_02_determinant_formula():
    t0 = time.time()
    rep = run_suite("thm3", RunConfig(seed=SEED, trials=500))
    assert rep["ok"], rep["failures"][:3]
    assert rep["trials"] >= 1500
    _announce(
        2,
        f"{rep['trials']} homogeneous data sets over p in (3,5,7); "
        f"formula = matrix class in 100% (cases: {rep['cases']})",
        t0,
        60,
    )


def test_criterion_03_odd_realization_round_trip():
    t0 = time.time()
    import random

    from linkform.verify import rand_odd_standard_form

    rng = random.Random(SEED)
    checked = 0
    for _ in range(200):
        target = rand_odd_standard_form(rng)
        for mode in ("flat", "sphere"):
            res = realize(target, mode)
            assert res.verified, (target, mode)
            eps = euler_invariant(res.seifert)
            if mode == "flat":
                assert eps == 0
            else:
                assert eps.numerator == 1
                assert eps.denominator == res.seifert.pairs[0][0]
            checked += 1
    _announce(3, f"{checked} verified odd-order round trips (both modes)", t0, 120)


def test_criterion_04_two_homogeneous_round_trip():
    t0 = time.time()
    forms = all_two_homogeneous_forms(kmax=3, rhomax=4)
    checked = 0
    for target in forms:
        for mode in ("flat", "sphere"):
            res = realize(target, mode)
            assert res.verified, (target.to_json(), mode)
            eps = euler_invariant(res.seifert)
            assert (eps == 0) == (mode == "flat")
            checked += 1
    _announce(
        4,
        f"{len(forms)} forms covering all 2-homogeneous classes (k<=3, rank<=4), "
        "both modes",
        t0,
        120,
    )


def _every_two_homogeneous_atom_list(kmax, rhomax):
    """Every atom list on (Z/2^k)^rho: diagonal units, E0/E1 blocks and mixes."""
    for k in range(1, kmax + 1):
        units = range(1, min(2**k, 8), 2)
        evens = [E0(k)] + ([E1(k)] if k >= 2 else [])
        for rho in range(1, rhomax + 1):
            for blocks in range(rho // 2 + 1):
                for es in itertools.combinations_with_replacement(evens, blocks):
                    for us in itertools.combinations_with_replacement(units, rho - 2 * blocks):
                        yield StandardForm([Cyc(2, k, a) for a in us] + list(es))


def test_two_homogeneous_forms_cover_every_class():
    # gauss_invariant is complete, so equal sets of invariants mean the
    # listed forms hit every class; three classes are listed twice
    forms = all_two_homogeneous_forms(kmax=3, rhomax=4)
    listed = [gauss_invariant(f) for f in forms]
    every = {gauss_invariant(f) for f in _every_two_homogeneous_atom_list(3, 4)}
    assert set(listed) == every
    assert len(every) == 53 and len(listed) == 56


def test_criterion_05_structure_oracle():
    t0 = time.time()
    rep = run_suite("structure", RunConfig(seed=SEED, trials=500))
    assert rep["ok"], rep["failures"][:3]
    _announce(
        5, f"{rep['trials']} random data sets: SNF orders and free rank match", t0, 60
    )


def test_criterion_06_fibre_sum_orthogonality():
    t0 = time.time()
    rep = run_suite("lemma1", RunConfig(seed=SEED, trials=200))
    assert rep["ok"], rep["failures"][:3]
    _announce(
        6,
        f"{rep['trials']} coprime flat fibre sums: pairing is the orthogonal sum "
        f"(methods: {rep['methods']})",
        t0,
        120,
    )


def test_criterion_07_even_hyperbolicity_rule():
    t0 = time.time()
    rep = run_suite("thm7", RunConfig(seed=SEED, trials=200))
    assert rep["ok"], rep["failures"][:3]
    assert rep["trials"] >= 200
    _announce(
        7,
        f"{rep['trials']} even components (k=2, rank 2 or 4): counting rule = "
        "matrix reduction = brute force",
        t0,
        120,
    )


def test_criterion_08_witt_consistency():
    t0 = time.time()
    rep = run_suite("witt", RunConfig(seed=SEED, trials=200))
    assert rep["ok"], rep["failures"][:3]
    _announce(
        8,
        f"{rep['trials']} checks: data formula = atom classes "
        f"(sign convention {rep['sign_convention']:+d}), metabolic atoms certified, "
        "local group laws exhaustive",
        t0,
        120,
    )


def test_criterion_09_nonrealizable_search():
    t0 = time.time()
    rep = run_suite(
        "search-nonrealizable",
        RunConfig(seed=SEED, max_r=5, max_alpha=8, max_beta=7),
    )
    assert rep["ok"], rep["failures"][:3]
    assert rep["even_even_hits"] == 0
    assert rep["nil_data_found"]
    _announce(
        9,
        "no realization of E0(2)+E0(1) with r<=5, alpha in {2,4,8}, |beta|<=7; "
        f"the odd cousin has {rep['nil_class_hits']} realizations incl. the Nil data",
        t0,
        600,
    )


def test_criterion_10_two_e1_isomorphism_witness():
    t0 = time.time()
    ok, witness = brute_force_isomorphic(
        standard_form_gram(StandardForm([E1(2), E1(2)]), 2),
        standard_form_gram(StandardForm([E0(2), E0(2)]), 2),
        bound=2**10,
    )
    assert ok and witness is not None
    _announce(10, f"explicit isomorphism 2*E1(2) = 2*E0(2): {witness}", t0, 60)
