"""The linking pairing of M(g;S) at a prime, and its homogeneous split.

With the Seifert data reordered so the p-valuations of the cone point
orders descend, the p-primary torsion is generated by q_i' (3 <= i <= r)
and, when eps != 0, by s.  On these generators the pairing has the exact
rational values

    l(q_i', q_i') = -beta_2 beta_i (alpha_i beta_2 + alpha_2 beta_i) / alpha_i^2
    l(q_i', q_j') = -beta_2 beta_i beta_j alpha_2 / (alpha_i alpha_j)
    l(s,    q_i') = beta_i / alpha_i
    l(s,    s)    = -(alpha_1 + n alpha_1 alpha_2 eps) / (alpha_1 alpha_2^2 eps)

where m alpha_2 + n beta_2 = 1.  With c = -alpha_2 beta_2 this matrix is

    diag(E) + (1/c) u u^T,
    E_i = -beta_2^2 beta_i / alpha_i,                    u_i = c beta_i / alpha_i,
    E_s = -(beta_2 - m alpha_2^2 eps) / (alpha_2^2 beta_2 eps),   u_s = 1,

so Gram-Schmidt needs one running partial Euler sum,
T = beta_2/alpha_2 + sum x_i over the generators already pivoted, with
x_i = beta_i/alpha_i and x_s = beta_2 eps / (beta_2 - m alpha_2^2 eps): a
1x1 pivot is E_i (T + x_i)/T and a 2x2 pivot has determinant
E_i E_j (T + x_i + x_j)/T.  When E_s = 0 the s pivot is -1/(alpha_2^2 T)
and every later pivot is its E_i.  pairing.local_invariant_from_data reads
each prime's invariant from these pivots without building a Gram matrix.

Every p-primary value lies in (1/N)Z/Z, where N = p^K is the largest
generator order, so a pairing is stored as the integer matrix
N l(e_i, e_j) mod N: each closed-form value is converted once, from its
integer numerator and denominator, by ``arith.p_part``, and a value off
the 1/N grid is refused, never truncated.  A ``GramPairing`` is valid by
construction (symmetric, reduced to [0, N), and order * value integral on
each generator), so ``welldefined_check`` decides only singularity.  No
rescaling to pure p-power denominators of the underlying 1-cycles is
performed.  The JSON output writes an entry x as x/N reduced by one gcd;
``GramPairing.gram`` is a Fraction view in [0, 1).

The pairing of two elements is then an integer dot product mod N, so the
element-level oracles (self-linking profiles, brute-force isomorphism,
metabolizer search) make no Fraction per element.

A nonsingular pairing splits orthogonally into homogeneous summands
(Z/p^k)^rho: ``block_diagonalize`` builds the ``HomogeneousComponent``s
that ``GramPairing.components`` keeps, so ``welldefined_check`` and
``pairing.classify`` share one split.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .arith import bareiss, is_prime, p_part, padic_val
from .errors import InvalidDataError
from .seifert import SeifertData, _memo
from .torsion import local_orders, unsupported_r1_pairing


@dataclass(frozen=True)
class GramPairing:
    """A finite symmetric pairing: p-power generator orders plus Gram matrix.

    ``matrix[i][j]`` is N l(e_i, e_j) mod N, an integer in [0, N), where
    N = ``modulus`` is the largest generator order; row/column order
    follows ``labels``.  Construction refuses (InvalidDataError) a p that
    is not prime, an order that is not a power of p (1 is p^0), labels or
    rows that are not one full row per order, and a matrix that is not
    symmetric, not reduced, or not order-compatible (some order times a
    value in its row is not an integer).
    """

    prime: int
    labels: tuple[str, ...]
    orders: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p, n = self.prime, len(self.orders)
        if not is_prime(p):
            raise InvalidDataError(f"pairing prime {p} is not a prime")
        for order in self.orders:
            q = order
            while q > 1 and q % p == 0:
                q //= p
            if q != 1:
                raise InvalidDataError(f"generator order {order} is not a power of {p}")
        rows = list(map(len, self.matrix))
        if len(self.labels) != n or rows != [n] * n:
            raise InvalidDataError(
                f"orders {self.orders} need one label and one row of {n} entries each; "
                f"got {len(self.labels)} labels and rows of lengths {rows}"
            )
        if not n:
            return
        M, N = self.matrix, max(self.orders)
        _check_reduced_symmetric(M, N)
        for i, order in enumerate(self.orders):  # l(e_i, -) has order dividing order
            if order < N and gcd(*M[i]) % (N // order):
                j = next(j for j, x in enumerate(M[i]) if x % (N // order))
                v = Fraction(order * M[i][j], N)
                raise InvalidDataError(f"order {order} * entry ({i},{j}) = {v} is not an integer")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def modulus(self) -> int:
        return max(self.orders, default=1)

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """The pairing values l(e_i, e_j) as Fractions, a read-only view of ``matrix``."""
        N = self.modulus
        return tuple(tuple(Fraction(x, N) for x in row) for row in self.matrix)

    @_memo
    def components(self) -> tuple[HomogeneousComponent, ...]:
        """``block_diagonalize(self)``, computed on first use.

        Kept in the instance ``__dict__``, outside the dataclass fields, so
        ``welldefined_check`` and ``classify`` share one decomposition.  A
        singular pairing raises InvalidDataError on every read.
        """
        return tuple(block_diagonalize(self))

    @_memo
    def element_classes(self) -> dict[tuple[int, int], list[tuple[int, ...]]]:
        """The elements x grouped by class (order of x, N l(x, x) mod N), each
        class in lexicographic order, from one ``element_table`` pass.

        Computed on first use and kept like ``components``, so the oracles
        that compare a pairing with others enumerate it once.  Read-only.
        """
        classes = defaultdict(list)
        for x, o, q in element_table(self.modulus, self.matrix, self.orders):
            classes[o, q].append(x)
        return dict(classes)

    def group_order(self) -> int:
        return prod(self.orders) if self.orders else 1

    def to_json(self) -> dict:
        N = self.modulus
        return {
            "prime": self.prime,
            "labels": list(self.labels),
            "orders": list(self.orders),
            "gram": [[_fmt_over(x, N) for x in row] for row in self.matrix],
        }


def _check_reduced_symmetric(M, N: int) -> None:
    """Refuse (InvalidDataError) a nonempty matrix that is not a symmetric
    (so square) tuple of int tuples with entries in [0, N): one transpose
    comparison and one min and max over the concatenated rows."""
    if tuple(zip(*M)) != M:
        raise InvalidDataError("pairing matrix is not a symmetric tuple of rows")
    entries = sum(M, ())
    if min(entries) < 0 or max(entries) >= N:
        raise InvalidDataError(f"pairing matrix entries must lie in [0, {N})")


def _fmt_over(x: int, N: int) -> str:
    """``fmt_rational(Fraction(x, N))``, by one gcd."""
    g = gcd(x, N)
    return str(x // g) if g == N else f"{x // g}/{N // g}"


def gram_matrix(S: SeifertData, p: int) -> GramPairing:
    """Gram matrix of the p-primary linking pairing of M(g;S).

    Requires r >= 2.  Generators with trivial p-order are dropped, so the
    result is nonsingular; the trivial pairing (no generators) is returned
    when the p-torsion vanishes.  Independent of genus.  The generators are
    those of ``local_orders(S, p).orders``: its ``kept`` q_i', then s.
    """
    unsupported_r1_pairing(S)
    decomp = local_orders(S, p)
    if not decomp.orders:
        return GramPairing(p, (), (), ())
    labels, orders = zip(*decomp.orders)
    N = max(orders)
    (a1, _), (a2, b2) = decomp.pairs[:2]
    kept, m, bezout = decomp.kept, len(decomp.kept), decomp.bezout
    A = [[0] * len(orders) for _ in orders]
    for i, (ai, bi) in enumerate(kept):
        A[i][i] = p_part(-b2 * bi * (ai * b2 + a2 * bi), ai * ai, p, N)
        for j, (aj, bj) in enumerate(kept[i + 1 :], i + 1):
            A[i][j] = A[j][i] = p_part(-b2 * bi * bj * a2, ai * aj, p, N)
        if bezout:
            A[i][m] = A[m][i] = p_part(bi, ai, p, N)
    if bezout:  # l(s, s), both terms times the denominator of eps
        n = bezout[1]
        en, ed = decomp.euler
        A[m][m] = p_part(-(a1 * ed + n * a1 * a2 * en), a1 * a2 * a2 * en, p, N)
    return GramPairing(p, labels, orders, tuple(map(tuple, A)))


# ---------------------------------------------------------------------------
# homogeneous components


def _int_det(M) -> int:
    """Exact determinant of a square integer matrix."""
    rank, minor = bareiss(M)
    return minor if rank == len(M) else 0


def _solve_mod(A, B, q: int, p: int):
    """Solve A X = B mod q = p^k for A with unit determinant mod p.

    B is a list of column vectors; returns the matching list of solutions.
    Pivots are always chosen to be units mod p, which succeeds exactly when
    det(A) is a unit, as it is for the matrix of a HomogeneousComponent.
    """
    n = len(A)
    M = [[A[i][j] % q for j in range(n)] + [b[i] % q for b in B] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if M[i][col] % p)
        M[col], M[piv] = M[piv], M[col]
        inv = pow(M[col][col], -1, q)
        M[col] = [(x * inv) % q for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                c = M[i][col]
                M[i] = [(x - c * y) % q for x, y in zip(M[i], M[col])]
    return [[M[i][n + b] % q for i in range(n)] for b in range(len(B))]


@dataclass(frozen=True)
class HomogeneousComponent:
    """Nonsingular pairing on (Z/p^k)^rank, Gram matrix scaled by p^k.

    Construction refuses (InvalidDataError) a p that is not prime, k < 1,
    and a matrix that is not square, symmetric, reduced to [0, p^k) and of
    unit determinant mod p.  ``rank`` is the size of ``matrix``, and the
    exact determinant is kept as ``det``, outside the dataclass fields.
    """

    prime: int
    k: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p, k, M = self.prime, self.k, self.matrix
        if not is_prime(p) or k < 1:
            raise InvalidDataError(f"bad homogeneous component at p = {p}, k = {k}")
        q = p**k
        if M:  # a matrix equal to its transpose is square
            _check_reduced_symmetric(M, q)
        det = _int_det(M)
        if det % p == 0:
            raise InvalidDataError(
                f"singular pairing: top block of order {q} has determinant "
                f"divisible by {p}"
            )
        self.__dict__["det"] = det

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def gram(self) -> GramPairing:
        q = self.prime**self.k
        labels = tuple(f"e{i + 1}" for i in range(self.rank))
        return GramPairing(self.prime, labels, (q,) * self.rank, self.matrix)


def block_diagonalize(G: GramPairing) -> list[HomogeneousComponent]:
    """Orthogonal decomposition into homogeneous components.

    Components come out in strictly decreasing exponent.  Each round splits
    off the generators of the largest order q left, in their order in G, so
    nothing is sorted, and a homogeneous G passes its own matrix on.  Their
    scaled Gram block has unit determinant mod p (else the pairing is
    singular, and the component refuses it), and the lower-order generators
    are corrected to be orthogonal to them.  The correction e_l -= sum_t
    C_lt e_t with W_tt C^T = W_tl leaves the Schur complement W_rr - C W_tr
    (mod N), exact because a GramPairing is symmetric.
    """
    p, N = G.prime, G.modulus
    orders, W = G.orders, G.matrix  # N * values
    components: list[HomogeneousComponent] = []
    while orders:
        q = max(orders)
        s = N // q  # a value is a multiple of 1/q iff its entry is one of s
        top = [i for i, o in enumerate(orders) if o == q]
        rest = [i for i, o in enumerate(orders) if o != q]
        if s > 1 and any(W[i][j] % s for i in top for j in top):
            raise InvalidDataError("pairing value incompatible with orders")
        A = W if s == 1 and not rest else tuple(tuple(W[i][j] // s for j in top) for i in top)
        components.append(HomogeneousComponent(p, padic_val(q, p), A))
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


# ---------------------------------------------------------------------------
# element-level evaluation (shared by the brute-force oracles), in integers
# mod N = G.modulus: l(x, y) = (x^T A y mod N) / N with A = G.matrix


def element_table(N: int, A, orders) -> list[tuple[tuple[int, ...], int, int]]:
    """(x, order of x, x^T A x mod N) for every element x, in lexicographic order.

    Built as an odometer, one coordinate at a time, that carries integers
    only: over the prefixes x_0..x_{k-1}, one flat list each holds the value
    q, the order and every cross term lin[j] = sum_{i<k} x_i (A_ij + A_ji),
    j >= k.  Setting x_k adds x_k lin[k] + x_k^2 A_kk to q and
    x_k (A_kj + A_jk) to lin[j], so each element costs O(rank) integer
    additions.  The tuples x come from ``itertools.product``, in the same order.
    """
    r = len(orders)
    qs, ords = [0], [1]
    lin = [[0] for _ in range(r)]
    for k, n in enumerate(orders):
        d, cs = A[k][k], range(n)
        qs = [(q + c * (l + d * c)) % N for q, l in zip(qs, lin[k]) for c in cs]
        step = [n // gcd(n, c) for c in cs]
        ords = [lcm(o, s) for o in ords for s in step]
        for j in range(k + 1, r):
            steps = [c * (A[k][j] + A[j][k]) % N for c in cs]
            lin[j] = [v + s for v in lin[j] for s in steps]
    return list(zip(product(*map(range, orders)), ords, qs))


def span(gens, orders) -> set[tuple[int, ...]]:
    """The subgroup of +Z/n_i generated by ``gens``, as coefficient tuples."""
    seen = {(0,) * len(orders)}
    for g in gens:
        for base in list(seen):
            x = base
            while True:
                x = tuple((a + b) % n for a, b, n in zip(x, g, orders))
                if x in seen:
                    break
                seen.add(x)
    return seen


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def image(A, y) -> list[int]:
    """A y: the pairing with y becomes one dot product, l(x, y) = x . Ay."""
    return [dot(row, y) for row in A]


def self_link_profile(G: GramPairing) -> Counter:
    """Multiset of (element order, self-linking value); an isomorphism invariant.

    A view of ``G.element_classes``: each class counted by its size."""
    N = G.modulus
    return Counter({(o, Fraction(q, N)): len(xs) for (o, q), xs in G.element_classes.items()})


def welldefined_check(G: GramPairing) -> list[str]:
    """Diagnostics: ``[]`` for a nonsingular pairing, else one ``singular: ...`` line.

    Construction guarantees every other fact.  Singularity is decided exactly
    by ``G.components`` (``block_diagonalize``, reused by ``classify``): some
    homogeneous top block has determinant divisible by p.
    """
    try:
        G.components  # raises on a singular pairing
    except InvalidDataError as exc:
        return [f"singular: {exc}"]
    return []

