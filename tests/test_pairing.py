import itertools
import random
from collections import Counter

import pytest

from linkform.errors import InvalidDataError, UnsupportedError
from linkform.linking import (
    GramPairing,
    HomogeneousComponent,
    _int_det,
    block_diagonalize,
    gram_matrix,
    welldefined_check,
)
from linkform.pairing import (
    Cyc,
    E0,
    E1,
    StandardForm,
    brute_force_isomorphic,
    canonical_form,
    classify,
    classify_seifert,
    d_invariant,
    diagonalize_odd,
    even_decompose,
    gauss_invariant,
    is_isomorphic,
    parity,
    standard_form_gram,
    standard_form_of,
)
from linkform.seifert import relevant_primes, seifert
from linkform.verify import (
    d_class_from_data,
    d_formula_case,
    div4_diagonal_count,
    hyperbolic_from_counts,
    hyperbolic_test,
)
from support import (
    elements,
    eval_pair,
    even_predicate_from_data,
    rand_block_seifert,
    reference_block_diagonalize,
    reorder_at_prime,
    shuffle_basis,
    sorting_block_diagonalize,
)

NIL = seifert((2, 1), (2, 1), (2, 1), (2, -1))


def comp(p, k, rows):
    return HomogeneousComponent(p, k, tuple(tuple(r) for r in rows))


def sf(*atoms):
    return StandardForm(atoms)


# ---------------------------------------------------------------------------
# block diagonalization


def test_block_diagonalize_nil():
    comps = block_diagonalize(gram_matrix(NIL, 2))
    assert [(c.k, c.rank) for c in comps] == [(2, 1), (1, 2)]
    assert comps[0].matrix == ((3,),)


def test_block_diagonalize_homogeneous_passthrough():
    G = standard_form_gram(sf(Cyc(3, 2, 1), Cyc(3, 2, 2)), 3)
    comps = block_diagonalize(G)
    assert len(comps) == 1 and comps[0].rank == 2 and comps[0].k == 2


def test_block_diagonalize_already_orthogonal():
    G = standard_form_gram(sf(Cyc(3, 2, 1), Cyc(3, 1, 1)), 3)
    comps = block_diagonalize(G)
    assert [(c.k, c.rank) for c in comps] == [(2, 1), (1, 1)]


def test_block_diagonalize_rejects_singular():
    from linkform.linking import GramPairing

    bad = GramPairing(2, ("x",), (2,), ((0,),))
    with pytest.raises(InvalidDataError):
        block_diagonalize(bad)


def test_block_diagonalize_preserves_class_under_scramble():
    rng = random.Random(31)
    forms = [
        sf(Cyc(2, 2, 3), E0(1)),
        sf(Cyc(3, 2, 1), Cyc(3, 1, 2), Cyc(3, 1, 1)),
        sf(E1(2), Cyc(2, 1, 1)),
        sf(Cyc(5, 2, 2), Cyc(5, 1, 1)),
    ]
    for form in forms:
        for p in form.primes():
            G = standard_form_gram(form, p)
            for _ in range(4):
                H = shuffle_basis(G, rng)
                got = classify(H).standard_form
                assert is_isomorphic(got, form.restrict(p)), (form, p)


def test_block_diagonalize_refuses_a_non_symmetric_matrix():
    # the Schur complement update is exact only for symmetric matrices; this
    # one used to be reduced silently.  It is refused where it is built, so
    # neither block_diagonalize nor welldefined_check ever sees it
    with pytest.raises(InvalidDataError, match="not a symmetric"):
        GramPairing(3, ("x", "y"), (9, 3), ((1, 3), (6, 3)))
    G = GramPairing(3, ("x", "y"), (9, 3), ((1, 3), (3, 3)))
    assert welldefined_check(G) == []
    assert [(C.k, C.matrix) for C in block_diagonalize(G)] == [(2, ((1,),)), (1, ((1,),))]


def test_block_diagonalize_matches_the_reference_on_seifert_pairings():
    rng = random.Random(4343)
    mixed = 0
    for n in range(300):
        S = rand_block_seifert(rng, flat=n % 2 == 0, max_r=8, max_alpha=200)
        for p in relevant_primes(S):
            G = gram_matrix(S, p)
            want = reference_block_diagonalize(p, G.orders, G.gram)
            assert [(C.k, C.rank, C.matrix) for C in block_diagonalize(G)] == want, (S, p)
            mixed += len(want) > 1
    assert mixed >= 40, mixed


def _random_atom(rng, p, k=None):
    k = k or rng.randint(1, 3)
    kind = rng.choice(["cyc", "cyc", "E0", "E1"]) if p == 2 else "cyc"
    if kind == "E0":
        return E0(k)
    if kind == "E1":
        return E1(max(k, 2))
    return Cyc(p, k, rng.choice([a for a in range(1, p**k) if a % p]))


def test_block_diagonalize_matches_the_fraction_reference():
    # random symmetric pairings (mostly singular) and basis-shuffled
    # standard forms (nonsingular, with mixed orders to orthogonalize)
    from fractions import Fraction

    from linkform.linking import GramPairing

    rng = random.Random(4242)
    seen = {"singular": 0, "nonsingular": 0, "mixed": 0}
    for n in range(240):
        p = rng.choice([2, 3, 5])
        if n % 2:
            form = sf(*(_random_atom(rng, p) for _ in range(rng.randint(1, 3))))
            G = shuffle_basis(standard_form_gram(form, p), rng)
            gram = G.gram
        else:
            ks = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            r, N = len(ks), p ** max(ks)
            gram = [[Fraction(0)] * r for _ in range(r)]
            for i in range(r):
                for j in range(i, r):
                    q = p ** min(ks[i], ks[j])
                    gram[i][j] = gram[j][i] = Fraction(rng.randrange(q), q)
            matrix = tuple(tuple(int(v * N) for v in row) for row in gram)
            labels = tuple(f"e{i + 1}" for i in range(r))
            G = GramPairing(p, labels, tuple(p**k for k in ks), matrix)
            assert G.gram == tuple(map(tuple, gram))
        try:
            want = reference_block_diagonalize(p, G.orders, gram)
        except InvalidDataError:
            want = None
        try:
            got = [(C.k, C.rank, C.matrix) for C in block_diagonalize(G)]
        except InvalidDataError:
            got = None
        assert got == want, G
        seen["singular" if want is None else "nonsingular"] += 1
        seen["mixed"] += want is not None and len(want) > 1
    assert min(seen.values()) >= 30, seen


def _listed(G, perm):
    """G with its generators listed in the order perm."""
    return GramPairing(
        G.prime,
        tuple(G.labels[i] for i in perm),
        tuple(G.orders[i] for i in perm),
        tuple(tuple(G.matrix[i][j] for j in perm) for i in perm),
    )


def _components_or_message(decompose, G):
    try:
        return [(C.prime, C.k, C.matrix, C.det) for C in decompose(G)]
    except InvalidDataError as exc:
        return str(exc)


def test_block_diagonalize_matches_the_sorting_reference():
    # the levels are taken in place, largest order first, without sorting
    # the generators; the components (and their determinants) and every
    # refusal must be those of the decomposition that sorts them first
    rng = random.Random(2626)
    seen = Counter()
    for n in range(360):
        p = rng.choice([2, 3, 5])
        ks = rng.sample(range(1, 5), rng.randint(2, 4))  # 2-4 levels (E1(1) is E1(2))
        if n % 3:  # nonsingular: a shuffled basis of a standard form
            form = sf(*(_random_atom(rng, p, k) for k in ks for _ in range(rng.randint(1, 2))))
            G = shuffle_basis(standard_form_gram(form, p), rng)
        else:  # mostly singular: random order-compatible symmetric values
            orders = [p**k for k in ks for _ in range(rng.randint(1, 2))]
            N, r = max(orders), len(orders)
            M = [[0] * r for _ in range(r)]
            for i in range(r):
                for j in range(i, r):
                    q = min(orders[i], orders[j])
                    M[i][j] = M[j][i] = N // q * rng.randrange(q)
            labels = tuple(f"e{i + 1}" for i in range(r))
            G = GramPairing(p, labels, tuple(orders), tuple(map(tuple, M)))
        perm = list(range(G.rank))
        rng.shuffle(perm)
        if n % 2:  # a generator of the top order listed last, like s
            top = next(i for i in perm if G.orders[i] == G.modulus)
            perm.remove(top)
            perm.append(top)
        if sorted(G.orders[i] for i in perm) == [G.orders[i] for i in perm][::-1]:
            perm.append(perm.pop(0))  # orders listed out of decreasing order
        G = _listed(G, perm)
        assert list(G.orders) != sorted(G.orders, reverse=True)
        want = _components_or_message(sorting_block_diagonalize, G)
        assert _components_or_message(block_diagonalize, G) == want, G
        seen["refused" if isinstance(want, str) else "components"] += 1
        seen["top last"] += G.orders[-1] == G.modulus
    # Seifert pairings list s last, and it can have the largest order
    for n in range(300):
        S = rand_block_seifert(rng, flat=False, max_r=6, max_alpha=200)
        for p in relevant_primes(S):
            G = gram_matrix(S, p)
            want = _components_or_message(sorting_block_diagonalize, G)
            assert _components_or_message(block_diagonalize, G) == want, (S, p)
            seen["s above q"] += G.labels[-1:] == ("s",) and G.orders[-1] > G.orders[0]
    assert min(seen.values()) >= 30, seen


# ---------------------------------------------------------------------------
# component invariants


def test_parity_examples():
    assert parity(comp(2, 2, [[0, 1], [1, 0]])) == "even"
    assert parity(comp(2, 3, [[3]])) == "odd"
    assert parity(comp(2, 2, [[2, 1], [1, 2]])) == "even"
    with pytest.raises(UnsupportedError):
        parity(comp(3, 1, [[1]]))


def test_d_invariant_examples():
    assert d_invariant(comp(3, 1, [[1]])) == 1
    assert d_invariant(comp(5, 1, [[1, 0], [0, 2]])) == -1
    # rank-2 hyperbolic at p=3 has class of -1, a nonsquare mod 3
    hyp = block_diagonalize(standard_form_gram(sf(Cyc(3, 1, 1), Cyc(3, 1, 2)), 3))
    assert d_invariant(hyp[0]) == -1 == hyperbolic_test(hyp[0]) - 2  # True and -1


def test_d_invariant_basis_independent():
    rng = random.Random(5)
    form = sf(Cyc(7, 2, 3), Cyc(7, 2, 1), Cyc(7, 2, 1))
    G = standard_form_gram(form, 7)
    base = d_invariant(block_diagonalize(G)[0])
    for _ in range(6):
        H = shuffle_basis(G, rng)
        assert d_invariant(block_diagonalize(H)[0]) == base


def test_d_formula_examples():
    S = seifert((9, 1), (9, 1), (9, 1), (9, -1), (9, -1), (9, -1))
    assert d_formula_case(S, 3) == "flat"
    assert d_class_from_data(S, 3) == 1
    S = seifert((9, 7), (3, -1), (3, -1))
    assert d_formula_case(S, 3) == "sphere"
    assert d_class_from_data(S, 3) == 1
    S = seifert((5, 1), (5, 2), (5, -3))
    assert d_class_from_data(S, 5) == 1  # (-1)^2 * (1*2*-3) = 4 mod 5


def test_d_formula_matches_matrix_on_known_cases():
    for S, p in [
        (seifert((9, 1), (9, 1), (9, 1), (9, -1), (9, -1), (9, -1)), 3),
        (seifert((9, 7), (3, -1), (3, -1)), 3),
        (seifert((5, 1), (5, 2), (5, -3)), 5),
        (seifert((15, 1), (5, 3), (3, -1), (3, -1)), 3),
        (seifert((9, -4), (3, 1)), 3),
    ]:
        comps = block_diagonalize(gram_matrix(S, p))
        assert len(comps) == 1
        assert d_class_from_data(S, p) == d_invariant(comps[0]), S


# ---------------------------------------------------------------------------
# diagonalization of odd components


def test_diagonalize_rank1():
    assert diagonalize_odd(comp(2, 3, [[3]])) == [Cyc(2, 3, 3)]


def test_diagonalize_two_by_two_at_two():
    # odd 2x2 with odd corner a: result is <a> + <d - b^2/a> mod 8
    C = comp(2, 3, [[3, 2], [2, 5]])
    atoms = diagonalize_odd(C)
    got = sorted(a.a for a in atoms)
    d2 = (5 - pow(3, -1, 8) * 4) % 8
    assert got == sorted([3, d2])
    ok, _ = brute_force_isomorphic(
        C.gram(), standard_form_gram(StandardForm(atoms), 2), bound=2**10
    )
    assert ok


def test_diagonalize_mod9():
    C = comp(3, 2, [[1, 3], [3, 1]])
    atoms = diagonalize_odd(C)
    assert all(a.p == 3 and a.k == 2 for a in atoms)
    # determinant class preserved: det = 1 - 9 = -8 = 1 mod 9, square class +1
    from linkform.arith import legendre

    prod_cls = 1
    for a in atoms:
        prod_cls *= legendre(a.a, 3)
    assert prod_cls == d_invariant(C)


def test_diagonalize_odd_rejects_even():
    with pytest.raises(UnsupportedError):
        diagonalize_odd(comp(2, 2, [[0, 1], [1, 0]]))


def test_diagonalize_absorbs_even_remainder():
    # odd form whose greedy split leaves an even 2x2 block behind
    C = comp(2, 3, [[1, 1, 1], [1, 1, 2], [1, 2, 1]])
    atoms = diagonalize_odd(C)
    assert len(atoms) == 3
    ok, _ = brute_force_isomorphic(
        C.gram(), standard_form_gram(StandardForm(atoms), 2), bound=2**10
    )
    assert ok


def test_diagonalize_random_components_brute_checked():
    rng = random.Random(11)
    pool = [
        sf(Cyc(2, 2, 1), Cyc(2, 2, 3), Cyc(2, 2, 3)),
        sf(Cyc(2, 3, 1), Cyc(2, 3, 7)),
        sf(Cyc(2, 1, 1), E0(1)),
        sf(Cyc(2, 2, 51 % 4), E1(2)),
        sf(Cyc(3, 1, 1), Cyc(3, 1, 2)),
    ]
    for form in pool:
        p = form.primes()[0]
        G = standard_form_gram(form, p)
        for _ in range(3):
            H = shuffle_basis(G, rng)
            C = block_diagonalize(H)
            for part in C:
                if part.prime == 2 and parity(part) == "even":
                    continue
                atoms = diagonalize_odd(part)
                ok, _ = brute_force_isomorphic(
                    part.gram(),
                    standard_form_gram(StandardForm(atoms), p),
                    bound=2**10,
                )
                assert ok


# ---------------------------------------------------------------------------
# even components


def test_even_decompose_examples():
    assert even_decompose(comp(2, 2, [[0, 1], [1, 0]])) == (1, 0)
    assert even_decompose(comp(2, 2, [[2, 1], [1, 2]])) == (0, 1)
    assert even_decompose(comp(2, 2, [[0, 1], [1, 2]])) == (1, 0)
    assert even_decompose(comp(2, 1, [[0, 1], [1, 0]])) == (1, 0)


def test_even_decompose_pairs_of_e1():
    G = standard_form_gram(sf(E1(2), E1(2)), 2)
    C = block_diagonalize(G)[0]
    assert even_decompose(C) == (2, 0)


def test_even_decompose_agrees_with_brute_force_identification():
    rng = random.Random(3)
    bases = (
        sf(E0(2)), sf(E1(2)), sf(E0(2), E0(2)), sf(E0(2), E1(2)),
        sf(E0(3)), sf(E1(3)), sf(E1(2), E1(2)), sf(E0(1), E0(1)),
    )
    for base in bases:
        G = standard_form_gram(base, 2)
        k = base.atoms[0].k
        for _ in range(3):
            H = shuffle_basis(G, rng)
            C = block_diagonalize(H)[0]
            n0, n1 = even_decompose(C)
            rebuilt = StandardForm([E0(k)] * n0 + ([E1(k)] if n1 else []))
            ok, _ = brute_force_isomorphic(
                C.gram(), standard_form_gram(rebuilt, 2), bound=2**10
            )
            assert ok


def test_even_predicate_matches_matrix_parity():
    # for 2-homogeneous torsion the data-level predicate agrees with the
    # diagonal-entry test on the (single) component
    import random as _random

    from linkform.verify import rand_flat_homogeneous, rand_sphere_homogeneous

    rng = _random.Random(23)
    checked = 0
    while checked < 60:
        S = (
            rand_flat_homogeneous(rng, 2, kmax=3, rpmax=5)
            if rng.random() < 0.5
            else rand_sphere_homogeneous(rng, 2, kmax=3, rpmax=5)
        )
        comps = block_diagonalize(gram_matrix(S, 2))
        if len(comps) != 1:
            continue
        checked += 1
        assert even_predicate_from_data(S) == (parity(comps[0]) == "even"), S


def test_parity_count_relation():
    # when all even cone orders share their valuation, alpha_1 * eps is odd
    # exactly when the number of even cone orders is odd
    import random as _random

    from linkform.arith import padic_val
    from linkform.seifert import euler_invariant

    rng = _random.Random(29)
    from linkform.verify import RunConfig, rand_seifert

    cfg = RunConfig(seed=0, max_r=6, max_alpha=12, max_beta=9)
    checked = 0
    while checked < 80:
        S = rand_seifert(rng, cfg)
        S2, _ = reorder_at_prime(S, 2)
        r2 = sum(1 for a, _ in S2.pairs if a % 2 == 0)
        if r2 == 0:
            continue
        v1 = padic_val(S2.pairs[0][0], 2)
        if any(padic_val(S2.pairs[i][0], 2) != v1 for i in range(r2)):
            continue
        checked += 1
        x = S2.pairs[0][0] * euler_invariant(S2)
        odd = x != 0 and padic_val(x, 2) == 0
        assert odd == (r2 % 2 == 1), S


def test_div4_count_example():
    S = seifert((4, -1), (4, 1), (4, -1), (4, 1))
    assert div4_diagonal_count(S) == 1
    assert hyperbolic_from_counts(1, 2)
    with pytest.raises(UnsupportedError):
        div4_diagonal_count(seifert((4, 1), (4, 1), (2, 1)))


def test_hyperbolic_counts_divisible_by_four():
    # t = rho = 4 alternates into E0 + E1 (brute-force checked below);
    # divisibility of t and rho by 4 alone does not force hyperbolicity
    assert hyperbolic_from_counts(0, 4) is False
    assert hyperbolic_from_counts(4, 4) is False
    assert hyperbolic_from_counts(0, 8) is True
    assert hyperbolic_from_counts(4, 8) is True


def test_counts_rule_brute_forced_at_t4_rho4():
    S = seifert((4, -13), (4, 1), (4, 3), (4, 3), (4, 3), (4, 3))
    assert div4_diagonal_count(S) == 4
    C = next(
        c for c in block_diagonalize(gram_matrix(S, 2)) if parity(c) == "even"
    )
    assert C.rank == 4
    hyp = sf(E0(2), E0(2))
    ok, _ = brute_force_isomorphic(
        C.gram(), standard_form_gram(hyp, 2), bound=2**10
    )
    assert not ok
    assert even_decompose(C) == (1, 1)


def test_hyperbolic_test_examples():
    hyp3 = block_diagonalize(standard_form_gram(sf(Cyc(3, 1, 1), Cyc(3, 1, 2)), 3))[0]
    assert hyperbolic_test(hyp3)
    e1 = comp(2, 2, [[2, 1], [1, 2]])
    assert not hyperbolic_test(e1)
    odd1 = comp(2, 1, [[1]])
    assert not hyperbolic_test(odd1)


def test_hyperbolic_test_matches_metabolizer_search():
    from linkform.witt import metabolic_oracle

    # odd p, rank 2: a metabolizer is automatically a direct summand, so
    # metabolic and hyperbolic coincide
    for form in [
        sf(Cyc(3, 1, 1), Cyc(3, 1, 2)),
        sf(Cyc(3, 1, 1), Cyc(3, 1, 1)),
        sf(Cyc(5, 1, 1), Cyc(5, 1, 4)),
        sf(Cyc(5, 1, 1), Cyc(5, 1, 2)),
    ]:
        p = form.primes()[0]
        G = standard_form_gram(form, p)
        C = block_diagonalize(G)[0]
        found, _ = metabolic_oracle(G, bound=2**12)
        assert hyperbolic_test(C) == found, form
    # at p = 2 only the implication holds: E1 is metabolic but not hyperbolic
    e0 = block_diagonalize(standard_form_gram(sf(E0(2)), 2))[0]
    assert hyperbolic_test(e0) and metabolic_oracle(standard_form_gram(sf(E0(2)), 2))[0]
    e1 = block_diagonalize(standard_form_gram(sf(E1(2)), 2))[0]
    assert not hyperbolic_test(e1)
    assert metabolic_oracle(standard_form_gram(sf(E1(2)), 2))[0]


# ---------------------------------------------------------------------------
# classification and standard forms


def test_classify_nil():
    rep = classify(gram_matrix(NIL, 2))
    assert rep.standard_form == sf(Cyc(2, 2, 3), E0(1))
    assert [c.parity for c in rep.components] == ["odd", "even"]


def test_classify_e02():
    rep = classify(gram_matrix(seifert((4, -1), (4, 1), (4, -1), (4, 1)), 2))
    assert rep.standard_form == sf(E0(2))


def test_classify_trivial():
    rep = classify(gram_matrix(seifert((3, 1), (3, -1)), 3))
    assert rep.standard_form == StandardForm(())
    assert rep.components == ()


def test_classify_invariant_under_pair_permutation():
    pairs = [(4, 1), (6, 1), (9, 2), (8, 3), (5, -4)]
    base = {p: classify_seifert(seifert(*pairs))[p].standard_form for p in (2, 3, 5)}
    rng = random.Random(17)
    for _ in range(4):
        rng.shuffle(pairs)
        got = classify_seifert(seifert(*pairs))
        for p in (2, 3, 5):
            assert is_isomorphic(got[p].standard_form, base[p])


def test_standard_form_json_round_trip():
    form = sf(Cyc(3, 2, 1), E0(2), E1(3))
    assert StandardForm.from_json(form.to_json()) == form
    assert form.to_json() == {"atoms": [{"E1": 3}, {"E0": 2}, {"cyc": [3, 2, 1]}]}


def test_a_cyclic_atom_is_valid_and_reduced_by_construction():
    # the dataclass constructor used to accept any fields as given
    for p, k, a in ((4, 1, 1), (3, 0, 1), (2, 2, 0)):
        with pytest.raises(InvalidDataError):
            Cyc(p, k, a)
    assert Cyc(2, 3, 9) == Cyc(2, 3, 1)  # mod min(2^k, 8) at p = 2
    assert Cyc(2, 5, 13).a == 5 and Cyc(2, 1, -1).a == 1 and Cyc(5, 2, -1).a == 24


def test_a_standard_form_is_sorted_by_construction():
    atoms = (Cyc(3, 1, 1), E0(1))
    forward, backward = StandardForm(atoms), StandardForm(reversed(atoms))
    assert forward == backward and forward.to_json() == backward.to_json()
    assert forward.atoms == (E0(1), Cyc(3, 1, 1))


def test_negation():
    assert sf(Cyc(2, 2, 3)).negated() == sf(Cyc(2, 2, 1))
    assert sf(E0(2), E1(2)).negated() == sf(E0(2), E1(2))
    assert sf(Cyc(5, 1, 2)).negated() == sf(Cyc(5, 1, 3))


# ---------------------------------------------------------------------------
# isomorphism


def test_two_e1_is_two_e0():
    assert is_isomorphic(sf(E1(2), E1(2)), sf(E0(2), E0(2)))
    ok, witness = brute_force_isomorphic(
        standard_form_gram(sf(E1(2), E1(2)), 2),
        standard_form_gram(sf(E0(2), E0(2)), 2),
    )
    assert ok and witness is not None


def test_e0_differs_from_diagonal():
    assert not is_isomorphic(sf(E0(1)), sf(Cyc(2, 1, 1), Cyc(2, 1, 1)))


def test_self_isomorphic():
    form = sf(Cyc(3, 2, 1), E0(2), Cyc(2, 3, 5))
    assert is_isomorphic(form, form)


def _conjugated(invariant):
    """The invariant with every Gauss-sum argument conjugated."""
    return tuple(
        (p, (ranks, tuple(None if a is None else -a % 8 for a in args)))
        for p, (ranks, args) in invariant
    )


def test_negation_conjugates_the_gauss_sums():
    a = sf(Cyc(3, 1, 1))
    b = sf(Cyc(3, 1, 2))
    assert not is_isomorphic(a, b)
    assert gauss_invariant(b) == _conjugated(gauss_invariant(a))


def test_brute_force_reorder_witness():
    g1 = standard_form_gram(sf(Cyc(3, 1, 1), Cyc(3, 1, 2)), 3)
    g2 = standard_form_gram(sf(Cyc(3, 1, 2), Cyc(3, 1, 1)), 3)
    ok, witness = brute_force_isomorphic(g1, g2)
    assert ok and len(witness) == 2


def test_brute_force_e0_vs_e1():
    ok, witness = brute_force_isomorphic(
        standard_form_gram(sf(E0(2)), 2), standard_form_gram(sf(E1(2)), 2)
    )
    assert not ok and witness is None


def test_pair_shift_move_is_sound():
    # {a, b} and {a+4, b+4} mod 8 give isomorphic pairings at level 3
    units = (1, 3, 5, 7)
    for a, b in itertools.combinations_with_replacement(units, 2):
        f = sf(Cyc(2, 3, a), Cyc(2, 3, b))
        g = sf(Cyc(2, 3, a + 4), Cyc(2, 3, b + 4))
        assert canonical_form(f) == canonical_form(g)
        ok, _ = brute_force_isomorphic(
            standard_form_gram(f, 2), standard_form_gram(g, 2)
        )
        assert ok, (a, b)


def test_unshifted_pairs_not_merged():
    # <1,1> and <3,3> are genuinely different at level 3
    f = sf(Cyc(2, 3, 1), Cyc(2, 3, 1))
    g = sf(Cyc(2, 3, 3), Cyc(2, 3, 3))
    assert canonical_form(f) != canonical_form(g)
    ok, _ = brute_force_isomorphic(
        standard_form_gram(f, 2), standard_form_gram(g, 2)
    )
    assert not ok


def test_canonical_absorbs_mixed_level():
    # a diagonal unit plus E0 at the same level diagonalizes
    mixed = sf(Cyc(2, 3, 1), E0(3))
    canon = canonical_form(mixed)
    assert all(isinstance(a, Cyc) for a in canon.atoms)
    ok, _ = brute_force_isomorphic(
        standard_form_gram(mixed, 2), standard_form_gram(canon, 2)
    )
    assert ok


def _assert_isometry(f, g, images):
    """images (coefficient tuples in g, one per generator of f) define an
    isomorphism: orders are respected and every pairing value is kept.  A
    map that keeps a nonsingular pairing is injective, and the groups have
    equal order, so it is bijective."""
    from linkform.linking import element_table

    G, H = standard_form_gram(f, 2), standard_form_gram(g, 2)
    assert sorted(G.orders) == sorted(H.orders)
    order = {x: o for x, o, _ in element_table(H.modulus, H.matrix, H.orders)}
    for i, y in enumerate(images):
        assert G.orders[i] % order[tuple(y)] == 0
        for j, z in enumerate(images):
            assert eval_pair(H, y, z) == G.gram[i][j]


def test_isomorphism_report_above_oracle_bound():
    # orders 2^12 and 2^11, above the brute-force search's former fallback
    # bound of 2^10; the invariants decide here as at every order
    from linkform.pairing import isomorphism_report

    big1 = sf(*(Cyc(2, 3, 1) for _ in range(4)))
    big2 = sf(*(Cyc(2, 3, 5) for _ in range(4)))
    rep = isomorphism_report(big1, big1 + StandardForm(()))
    assert rep == {"isomorphic": True, "method": "invariants"}
    rep = isomorphism_report(big1, big2)
    assert rep["isomorphic"]
    # <1,1,1,1>/8 and <3,3,3,3>/8 are isomorphic
    big3 = sf(*(Cyc(2, 3, 3) for _ in range(4)))
    rep = isomorphism_report(big1, big3)
    assert rep == {"isomorphic": True, "method": "invariants"}
    _assert_isometry(big1, big3, [(0, 1, 1, 1), (1, 0, 1, 7), (1, 1, 3, 4), (1, 7, 4, 5)])
    # 4 <1>/4 + <1>/8 and 4 <3>/4 + <1>/8 (the <1>/8 atom comes first)
    four = sf(*(Cyc(2, 2, 1) for _ in range(4)), Cyc(2, 3, 1))
    three = sf(*(Cyc(2, 2, 3) for _ in range(4)), Cyc(2, 3, 1))
    assert is_isomorphic(four, three)
    _assert_isometry(
        four,
        three,
        [(1, 0, 0, 0, 0), (0, 0, 1, 1, 1), (0, 1, 0, 1, 3), (0, 1, 1, 1, 2), (0, 1, 3, 2, 3)],
    )


def _direct_gauss_arg(sf_p, p, n):
    """Argument in Z/8 of sum_x e(p^n l(x,x)) by summing over the group."""
    import cmath

    G = standard_form_gram(sf_p, p)
    z = sum(
        cmath.exp(2j * cmath.pi * float(p**n * eval_pair(G, x, x)))
        for x in elements(G.orders)
    )
    if abs(z) < 1e-6:
        return None
    eighths = cmath.phase(z) / (cmath.pi / 4)
    assert abs(eighths - round(eighths)) < 1e-6
    return round(eighths) % 8


def test_gauss_arguments_match_direct_sums():
    # one atom: the invariant lists n < k; at n >= k the sum is |G|, argument 0
    for p, kmax in ((2, 5), (3, 4), (5, 3), (7, 2)):
        for k in range(1, kmax + 1):
            units = (1, 3, 5, 7) if p == 2 else (1, 2, 3, 6)
            atoms = [Cyc(p, k, a) for a in units if a % p]
            if p == 2:
                atoms += [E0(k)] + ([E1(k)] if k >= 2 else [])
            for atom in atoms:
                [(q, (_, args))] = gauss_invariant(sf(atom))
                assert q == p and len(args) == k
                for n in range(k + 2):
                    got = args[n] if n < k else 0
                    assert got == _direct_gauss_arg(sf(atom), p, n), (atom, n)


def test_gauss_invariant_adds_over_atoms():
    for form in (
        sf(Cyc(2, 3, 3), Cyc(2, 2, 1), E1(2)),
        sf(Cyc(2, 3, 5), E0(1), Cyc(2, 1, 1)),
        sf(Cyc(3, 2, 2), Cyc(3, 1, 1), Cyc(3, 1, 2)),
        sf(Cyc(5, 1, 2), Cyc(5, 2, 3), Cyc(7, 1, 3)),
    ):
        invariant = gauss_invariant(form)
        structure = [(p, k) for p, (ranks, _) in invariant for k, rho in ranks for _ in range(rho)]
        assert tuple(sorted(structure)) == form.group_structure()
        for p, (_, args) in invariant:
            for n, arg in enumerate(args):
                assert arg == _direct_gauss_arg(form.restrict(p), p, n), (form, p, n)



def _gram_pairings():
    """Gram pairings of random data (r <= 10, alphas <= 1000) at each
    relevant prime, every 2-homogeneous form with k <= 3 and rho <= 4, and
    a random change of basis of each."""
    from linkform.seifert import relevant_primes
    from linkform.verify import all_two_homogeneous_forms

    rng = random.Random(16)
    for i in range(150):
        S = rand_block_seifert(rng, flat=i % 2 == 0)
        for p in relevant_primes(S):
            G = gram_matrix(S, p)
            yield G
            yield shuffle_basis(G, rng)
    for form in all_two_homogeneous_forms():
        G = standard_form_gram(form, 2)
        yield G
        yield shuffle_basis(G, rng)


def test_gram_invariant_is_kept_by_a_change_of_basis():
    # the invariant of a Gram pairing is that of its class: a change of basis
    # keeps it, and negating the pairing conjugates every Gauss sum
    rng = random.Random(19)
    seen = 0
    for G in _gram_pairings():
        assert gauss_invariant(shuffle_basis(G, rng)) == gauss_invariant(G), G
        if G.orders:
            seen += 1
            neg = standard_form_gram(classify(G).standard_form.negated(), G.prime)
            assert gauss_invariant(neg) == _conjugated(gauss_invariant(G)), G
    assert seen > 500


def test_singular_gram_pairing_raises_rather_than_reads_false():
    # p divides the determinant of each top block below
    for singular in (
        GramPairing(2, ("e1", "e2"), (2, 2), ((1, 0), (0, 0))),
        GramPairing(3, ("e1", "e2"), (3, 3), ((1, 1), (1, 1))),
    ):
        p = singular.prime
        fine = standard_form_gram(sf(Cyc(p, 1, 1), Cyc(p, 1, 1)), p)
        for call in (
            lambda: gauss_invariant(singular),
            lambda: is_isomorphic(singular, fine),
            lambda: is_isomorphic(fine, singular),
        ):
            with pytest.raises(InvalidDataError, match="singular"):
                call()


def test_component_determinant_recorded_once():
    # every component computes its determinant once, at construction, and
    # keeps it outside ==, hash, repr and the dataclass fields
    from dataclasses import fields

    for G in _gram_pairings():
        for C in G.components:
            fresh = HomogeneousComponent(C.prime, C.k, C.matrix)
            assert [f.name for f in fields(C)] == ["prime", "k", "matrix"]
            assert vars(C)["det"] == vars(fresh)["det"] == _int_det(C.matrix)
            assert C == fresh and hash(C) == hash(fresh) and repr(C) == repr(fresh)
            assert "det" not in repr(C) and C.rank == len(C.matrix)
            if C.prime != 2:
                assert d_invariant(C) == d_invariant(fresh)
            elif parity(C) == "even":
                assert even_decompose(C) == even_decompose(fresh)


@pytest.mark.parametrize(
    "build, args, message",
    [
        # one row of two entries (the old rank-2 claim on one row): read as one atom
        (HomogeneousComponent, (3, 1, ((1, 0),)), "not a symmetric"),
        # a singular block: escaped from diagonalize_odd as StopIteration
        (HomogeneousComponent, (3, 1, ((0,),)), "divisible by 3"),
        # p = 4 and k = 0: read as determinant class 1
        (HomogeneousComponent, (4, 1, ((1,),)), "p = 4, k = 1"),
        (HomogeneousComponent, (3, 0, ((1,),)), "p = 3, k = 0"),
        (HomogeneousComponent, (3, 1, ((1, 1), (2, 1))), "not a symmetric"),
        (HomogeneousComponent, (3, 1, ((4,),)), r"\[0, 3\)"),
        (HomogeneousComponent, (2, 2, ((-1,),)), r"\[0, 4\)"),
        (HomogeneousComponent, (2, 2, ((2, 0), (0, 2))), "divisible by 2"),
        # the message names the block's order p^k (it read "exponent 9")
        (HomogeneousComponent, (3, 2, ((3,),)), "top block of order 9 has determinant"),
        (GramPairing, (3, ("x", "y"), (3, 3), ((1, 2), (1, 1))), "not a symmetric"),
        (GramPairing, (3, ("x",), (9,), ((9,),)), r"\[0, 9\)"),
        (GramPairing, (5, ("x", "y"), (5, 5), ((1, -1), (-1, 1))), r"\[0, 5\)"),
        # l(x, y) = 1/9 on x of order 3
        (GramPairing, (3, ("x", "y"), (3, 9), ((0, 1), (1, 1))), r"order 3 \* entry \(0,1\)"),
        # l(x, x) = 1/2 on x of order 1
        (GramPairing, (2, ("x", "y"), (1, 2), ((1, 0), (0, 1))), r"order 1 \* entry \(0,0\)"),
    ],
)
def test_malformed_pairings_refused_at_construction(build, args, message):
    with pytest.raises(InvalidDataError, match=message):
        build(*args)


def _valid(G):
    """The facts construction guarantees, checked entry by entry."""
    N, A = G.modulus, G.matrix
    return all(
        A[i][j] == A[j][i] and 0 <= A[i][j] < N and G.orders[i] * A[i][j] % N == 0
        for i in range(G.rank)
        for j in range(G.rank)
    )


def test_every_built_pairing_and_component_is_valid():
    # gram_matrix, standard_form_gram, block_diagonalize and
    # HomogeneousComponent.gram build only pairings that construct
    rng = random.Random(2525)
    seen = Counter()
    for n in range(200):
        S = rand_block_seifert(rng, flat=n % 2 == 0, max_r=8, max_alpha=200)
        for p in relevant_primes(S):
            G = gram_matrix(S, p)
            H = standard_form_gram(classify(G).standard_form, p)
            for pairing in (G, H):
                assert _valid(pairing), (S, p)
                for C in block_diagonalize(pairing):
                    assert C.det == _int_det(C.matrix) and C.det % p, (S, p, C)
                    assert _valid(C.gram()) and C.gram().matrix == C.matrix
                    seen[p == 2] += 1
    assert min(seen.values()) > 100, seen


TWO_UNITS = {1: (1,), 2: (1, 3), 3: (1, 3, 5, 7)}


def _two_level_forms(k, rank):
    """Every multiset of atoms of total rank ``rank`` at 2-adic level k."""
    kinds = [E0(k)] + ([E1(k)] if k >= 2 else [])
    return [
        list(blocks) + [Cyc(2, k, a) for a in units]
        for nblocks in range(rank // 2 + 1)
        for blocks in itertools.combinations_with_replacement(kinds, nblocks)
        for units in itertools.combinations_with_replacement(TWO_UNITS[k], rank - 2 * nblocks)
    ]


def _two_forms_by_structure(max_log):
    """Every standard form on every 2-group with exponent <= 8 and order
    <= 2^max_log, grouped by group structure."""
    for r3 in range(max_log // 3 + 1):
        for r2 in range((max_log - 3 * r3) // 2 + 1):
            for r1 in range(max_log - 3 * r3 - 2 * r2 + 1):
                if r1 + r2 + r3:
                    yield [
                        sf(*a, *b, *c)
                        for a in _two_level_forms(3, r3)
                        for b in _two_level_forms(2, r2)
                        for c in _two_level_forms(1, r1)
                    ]


def is_isomorphic_vs_brute_force(max_log):
    """(group structures, forms, disagreements) of is_isomorphic against
    brute_force_isomorphic on every 2-form with k <= 3 and order <= 2^max_log.

    Both relations are equivalences, so it is enough that each form is
    brute-force isomorphic to the representative of its is_isomorphic class
    and that the representatives are pairwise not isomorphic.  Brute force
    answers "not isomorphic" without a search when the self-link profiles
    differ, so only representatives with equal profiles are searched.
    """
    from linkform.linking import self_link_profile

    structures = forms_seen = 0
    bad = []
    for forms in _two_forms_by_structure(max_log):
        structures += 1
        forms_seen += len(forms)
        grams = [standard_form_gram(f, 2) for f in forms]
        reps: dict[int, object] = {}  # representative -> its self-link profile
        for i, f in enumerate(forms):
            j = next((j for j in reps if is_isomorphic(forms[j], f)), None)
            if j is not None:
                if not brute_force_isomorphic(grams[j], grams[i], bound=2**max_log)[0]:
                    bad.append((forms[j], f, "brute force finds no isomorphism"))
                continue
            profile = self_link_profile(grams[i])
            for j, other in reps.items():
                if other == profile and brute_force_isomorphic(
                    grams[j], grams[i], bound=2**max_log
                )[0]:
                    bad.append((forms[j], f, "brute force finds an isomorphism"))
            reps[i] = profile
    return structures, forms_seen, bad


def test_is_isomorphic_equals_brute_force_on_small_two_forms():
    structures, forms, bad = is_isomorphic_vs_brute_force(8)
    assert (structures, bad) == (40, [])
    assert forms == 355


def test_is_isomorphic_equals_brute_force_up_to_order_2_to_the_10():
    structures, forms, bad = is_isomorphic_vs_brute_force(10)
    assert (structures, bad) == (66, [])
    assert forms == 993


@pytest.mark.slow
def test_is_isomorphic_equals_brute_force_up_to_order_2_to_the_12():
    # about a minute; run with pytest -m slow
    structures, forms, bad = is_isomorphic_vs_brute_force(12)
    assert (structures, bad) == (101, [])
    assert forms == 2515


def test_canonical_odd_prime_reduces_to_rank_and_det():
    f = sf(Cyc(5, 1, 2), Cyc(5, 1, 3))
    g = sf(Cyc(5, 1, 1), Cyc(5, 1, 1))
    # 2*3 = 6 = 1 mod 5, a square; so both are rank 2 with square det
    assert canonical_form(f) == canonical_form(g)


def test_classify_preserves_self_link_profile():
    # the multiset of (element order, self-linking) is an isomorphism
    # invariant; classify's atoms must reproduce it exactly
    import random as _random

    from linkform.linking import self_link_profile
    from linkform.verify import RunConfig, rand_seifert

    rng = _random.Random(515)
    cfg = RunConfig(seed=0, max_r=5, max_alpha=9, max_beta=7)
    checked = 0
    while checked < 80:
        S = rand_seifert(rng, cfg)
        if S.r < 2:
            continue
        from linkform.seifert import relevant_primes

        for p in relevant_primes(S):
            G = gram_matrix(S, p)
            if not 1 < G.group_order() <= 512:
                continue
            rebuilt = standard_form_gram(classify(G).standard_form, p)
            assert self_link_profile(rebuilt) == self_link_profile(G), (S, p)
            checked += 1


def test_adjacent_level_two_adic_scramble_round_trip():
    # mixed 2-adic levels exercise the cross-level orthogonalization; the
    # classify output must stay isomorphic to the source atoms
    rng = random.Random(987)
    units = {1: [1], 2: [1, 3], 3: [1, 3, 5, 7]}
    pool = []
    for _ in range(60):
        atoms = []
        for k in (3, 2, 1):
            if rng.random() < 0.55:
                atoms += [
                    Cyc(2, k, rng.choice(units[k]))
                    for _ in range(rng.randint(0, 2))
                ]
            if rng.random() < 0.3:
                atoms.append(E0(k))
            if k >= 2 and rng.random() < 0.2:
                atoms.append(E1(k))
        form = sf(*atoms)
        if form.atoms and form.group_order() <= 2**10:
            pool.append(form)
    assert len(pool) >= 20
    for form in pool:
        G = standard_form_gram(form, 2)
        H = shuffle_basis(G, rng, steps=16)
        got = classify(H).standard_form
        assert is_isomorphic(got, form), form


def test_seifert_standard_form_total():
    S = seifert((4, 1), (6, 1), (9, 2), (8, 3), (5, -4))
    total = standard_form_of(S)
    # the Euler number is -77/360, so primes 7 and 11 appear via its numerator
    assert total.primes() == (2, 3, 7, 11)
