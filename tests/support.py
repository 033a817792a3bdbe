"""Helpers used only by the tests: a random change of basis, the value of
the pairing on two elements, the elements of a finite abelian group, Seifert
data reordered at a prime, a data-level evenness predicate, random
Seifert data with large cone orders, and, kept as references, the
piece-by-piece realization selection, the sum-zero unit tuples over the
full list of fixed tails, the three-term orthogonalisation of
the block decomposition, the block decomposition that sorts the generators
by order first, and a Smith normal form with divisibility repair."""

import importlib
import itertools
import random
from fractions import Fraction
from math import gcd, prod

from linkform.arith import bareiss, ext_gcd, least_nonresidue, legendre, padic_val
from linkform.errors import (
    InvalidDataError,
    UnrealizableError,
    UnsupportedError,
    VerificationError,
)
from linkform.linking import GramPairing, HomogeneousComponent, _int_det, _solve_mod, dot, image
from linkform.pairing import Cyc, StandardForm, canonical_form
from linkform.pairing import gauss_invariant, local_invariant_from_data
from linkform.seifert import SeifertData
from linkform.torsion import local_orders

# the package re-exports the function realize under the submodule's name
R = importlib.import_module("linkform.realize")


def shuffle_basis(G: GramPairing, rng: random.Random, steps: int = 12) -> GramPairing:
    """Random order-respecting change of basis; the pairing class is unchanged.

    Classification must be invariant under this.
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
    # new entry (i, j) = T_i . A T_j mod N
    images = [image(G.matrix, t) for t in T]
    rows = tuple(tuple(dot(t, y) % G.modulus for y in images) for t in T)
    return GramPairing(G.prime, G.labels, G.orders, rows)


def eval_pair(G: GramPairing, x, y) -> Fraction:
    """Pairing of two elements given by generator coefficients."""
    N = G.modulus
    return Fraction(dot(x, image(G.matrix, y)) % N, N)


def elements(orders):
    """All elements of the group +Z/n_i, as coefficient tuples."""
    return itertools.product(*(range(n) for n in orders))


def valuation_order(pairs, p: int) -> tuple[int, ...]:
    """Stable sort of the pairs by descending p-adic valuation of alpha.

    After reordering, alpha_{i+1} divides alpha_i in the localization at p.
    The permutation maps new positions to original 0-based indices.
    """
    return tuple(sorted(range(len(pairs)), key=lambda i: -padic_val(pairs[i][0], p)))


def reorder_at_prime(S: SeifertData, p: int) -> tuple[SeifertData, tuple[int, ...]]:
    """S with its pairs in valuation_order at p, and that permutation."""
    perm = valuation_order(S.pairs, p)
    return SeifertData(S.genus, tuple(S.pairs[i] for i in perm)), perm


def even_predicate_from_data(S: SeifertData) -> bool:
    """Data-level evenness of the 2-primary pairing.

    With the pairs ordered by descending 2-adic valuation, the pairing is
    even exactly when alpha_1/alpha_i is odd for every even cone point
    order and eps is zero or alpha_1 * eps is odd.  Meaningful when the
    2-torsion is homogeneous; see pairing.parity for the matrix-level notion.
    """
    local = local_orders(S, 2)
    pairs, eps = local.pairs, local.eps
    r2 = sum(1 for a, _ in pairs if a % 2 == 0)
    if r2 == 0:
        return True
    v1 = padic_val(pairs[0][0], 2)
    if any(padic_val(pairs[i][0], 2) != v1 for i in range(r2)):
        return False
    if eps == 0:
        return True
    return padic_val(pairs[0][0] * eps.numerator, 2) == padic_val(eps.denominator, 2)


def reversed_orientation(S: SeifertData) -> SeifertData:
    """M(g; S) with its orientation reversed, b_i -> -b_i: the pairing negates."""
    return SeifertData(S.genus, tuple((a, -b) for a, b in S.pairs))


def rand_block_seifert(rng: random.Random, flat: bool, max_r: int = 10, max_alpha: int = 1000):
    """Random Seifert data with 2 <= r <= max_r and alphas <= max_alpha,
    with eps = 0 exactly if ``flat`` and eps != 0 otherwise.

    The pairs fall into one or two blocks.  Every alpha of a block divides
    the block's largest one, L, whose beta sets the block's share of eps to
    -c/L, with c = 0 for flat data and 0 < |c| <= 3 otherwise, so the
    numerator of eps stays small while the cone orders share many primes.
    """
    while True:
        r = rng.randint(2, max_r)
        split = rng.randint(2, r - 2) if r >= 4 and rng.random() < 0.5 else r
        pairs = []
        for m in (split, r - split):
            if not m:
                continue
            L = rng.randint(2, max_alpha)
            divisors = [d for d in range(2, L + 1) if L % d == 0]
            for _ in range(m - 1):
                a = rng.choice(divisors)
                b = rng.choice([b for b in range(-a, a + 1) if gcd(a, b) == 1])
                pairs.append((a, b))
            c = 0 if flat else rng.choice((-3, -2, -1, 1, 2, 3))
            pairs.append((L, c - sum(L // a * b for a, b in pairs[len(pairs) - m + 1 :])))
        if all(gcd(a, b) == 1 for a, b in pairs):
            rng.shuffle(pairs)
            S = SeifertData(0, tuple(pairs))
            if (S.eps == 0) == flat:
                return S


def reference_realize(target: StandardForm, mode: str = "auto") -> tuple[str, SeifertData]:
    """(construction, data) chosen piece by piece, as realize chose before it
    derived one piece per odd prime and checked only the whole.

    Each flat piece must verify against its own part of the target (the
    2-part's is the first candidate of its stream that does), and the fibre
    sum of the pieces is then checked; in sphere mode each prime's tail must
    match the invariant at p (later primes start at their default tails)
    before the whole is checked.  The pieces and tails are realize's own, so
    this pins the selection, not the recipes.
    """

    def first(candidates, form):
        for label, S in candidates:
            if R.verify_realization(S, form):
                return label, S
        raise VerificationError(f"no candidate verified for {form.to_json()}")

    if mode not in ("auto", "flat", "sphere"):
        raise UnsupportedError(mode)
    if not target.atoms:
        label = "trivial-sphere" if mode == "sphere" else "trivial-flat"
        pairs = ((2, 1), (3, -1)) if mode == "sphere" else ((2, 1), (2, -1))
        return first([(label, SeifertData(0, pairs))], target)
    odd = StandardForm(a for a in target.atoms if isinstance(a, Cyc) and a.p != 2)
    if not odd.atoms:
        return first(R._two_candidates(target, mode), target)
    two = target.restrict(2)
    gapped = len(two.levels(2)) > 1
    if mode == "sphere":
        if gapped:
            raise UnrealizableError("gapped 2-part in sphere mode")
        two_atoms = canonical_form(two).atoms
        if any(not isinstance(a, Cyc) for a in two_atoms):
            raise UnrealizableError("even 2-part in sphere mode")
        label = "mixed-sphere/balanced" if two_atoms else "odd-sphere/balanced"
        return first([(label, _reference_balanced(odd + StandardForm(two_atoms)))], target)

    def piece(p):
        part = two if p == 2 else odd.restrict(p)
        stream = R._two_candidates(two, "flat") if p == 2 else [R._odd_flat_piece(part, p)]
        return first(stream, part)

    if gapped:
        two_piece = piece(2)
        odd_sum = R._fibre_sum_of([piece(p) for p in odd.primes()])
        return first([R._fibre_sum_of([two_piece, odd_sum])], target)
    pieces = [piece(p) for p in odd.primes()] + ([piece(2)] if two.atoms else [])
    return pieces[0] if len(pieces) == 1 else first([R._fibre_sum_of(pieces)], target)


def reference_sum_zero_unit_tuple(p: int, m: int, want_cls: int) -> tuple[int, ...]:
    """realize._sum_zero_unit_tuple as it was before its fixed tails were cut
    to ``base`` and ``base[:-1] + (2,)``: every tail ending or (m >= 4)
    starting in +-2, +-3 or +-4 was tried after base, in this order."""
    base = tuple(1 if i % 2 == 0 else -1 for i in range(m - 2))
    tails = [base]
    for v in (2, -2, 3, -3, 4, -4):
        tails.append(base[:-1] + (v,))
        if m >= 4:
            tails.append((v,) + base[1:])
    nonres = -1 if legendre(-1, p) == -1 else least_nonresidue(p)
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


def _reference_balanced(form: StandardForm) -> SeifertData:
    primes = form.primes()
    per_prime = {p: form.levels(p) for p in primes}
    alpha_big = prod(p ** (per_prime[p][0][0] + 1) for p in primes)
    tails = {
        p: [
            (p**k, R._small_unit_rep(a, min(p**k, 8) if p == 2 else p**k))
            for k, units, _, _ in per_prime[p]
            for a in units
        ]
        for p in primes
    }

    def assemble(tails):
        return R._balanced(alpha_big, -1, [pair for p in primes for pair in tails[p]])

    for p in primes:
        ((_, want),) = gauss_invariant(form.restrict(p))
        tail = (
            R._two_tail_for_sphere(per_prime[2][0][0], per_prime[2][0][1], alpha_big)
            if p == 2
            else R._odd_prime_tail(p, per_prime[p])
        )
        if local_invariant_from_data(assemble({**tails, p: tail}), p) != want:
            raise VerificationError(f"the tail at p={p} does not match")
        tails[p] = tail
    return assemble(tails)


def reference_block_diagonalize(p, orders, gram):
    """block_diagonalize on Fraction Gram entries, with the three-term update
    of each corrected pair that it replaced by the Schur complement, as it
    was before the pairing values were stored as integers; returns
    [(k, rank, matrix)]."""
    idx = sorted(range(len(orders)), key=lambda i: -orders[i])
    orders = [orders[i] for i in idx]
    gram = [[gram[i][j] for j in idx] for i in idx]
    components = []
    while orders:
        q = orders[0]
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
            raise InvalidDataError("singular pairing")
        components.append((padic_val(q, p), len(top), tuple(map(tuple, A))))
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
                row.append(v % 1)
            new_gram.append(row)
        for a, l in enumerate(rest):
            for t_pos in range(len(top)):
                if coeffs[a][t_pos] % (q // orders[l]) != 0:
                    raise InvalidDataError("orthogonalization broke generator orders")
        orders = [orders[l] for l in rest]
        gram = new_gram
    return components


def sorting_block_diagonalize(G: GramPairing) -> list[HomogeneousComponent]:
    """block_diagonalize as it was before its rounds took the levels in
    place: the generators are stably sorted by decreasing order and the
    whole matrix is copied in that order first, and every block is copied
    (divided by N/q) even when G is homogeneous."""
    p, N = G.prime, G.modulus
    idx = sorted(range(G.rank), key=lambda i: -G.orders[i])
    orders = [G.orders[i] for i in idx]
    W = [[G.matrix[i][j] for j in idx] for i in idx]  # N * values
    components: list[HomogeneousComponent] = []
    while orders:
        q = orders[0]
        s = N // q
        top = [i for i, o in enumerate(orders) if o == q]
        rest = [i for i, o in enumerate(orders) if o != q]
        if any(W[i][j] % s for i in top for j in top):
            raise InvalidDataError("pairing value incompatible with orders")
        A = [[W[i][j] // s for j in top] for i in top]
        components.append(HomogeneousComponent(p, padic_val(q, p), tuple(map(tuple, A))))
        if not rest:
            break
        assert not any(W[l][i] % s for l in rest for i in top)
        B = [[W[l][i] // s for i in top] for l in rest]
        coeffs = _solve_mod(A, B, q, p)
        new_W = [
            [(W[l][m] - sum(c * W[t][m] for c, t in zip(coeffs[a], top))) % N for m in rest]
            for a, l in enumerate(rest)
        ]
        for a, l in enumerate(rest):
            for t_pos in range(len(top)):
                if coeffs[a][t_pos] % (q // orders[l]) != 0:
                    raise InvalidDataError("orthogonalization broke generator orders")
        orders = [orders[l] for l in rest]
        W = new_W
    return components


def reference_smith_normal_form(matrix) -> tuple[int, ...]:
    """Smith diagonal by the algorithm torsion.smith_normal_form replaced.

    Over Z/|D|, with D a nonzero rank x rank minor from Bareiss, each step
    clears the pivot's row and column by Bezout steps until no entry is left,
    takes gcd(pivot, D) and repairs divisibility of the rest by adding a
    column the pivot does not divide, so every pivot is already the next
    invariant factor.
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
            g = A[t][t] = gcd(A[t][t], D)
            bad = next((j for row in A[t + 1 :] for j in range(t + 1, n) if row[j] % g), None)
            if bad is None:
                break
            for row in A[t + 1 :]:  # column t += column bad
                row[t] = row[bad]
        diag.append(g)
    return tuple(diag) + (0,) * (min(m, n) - rank)
