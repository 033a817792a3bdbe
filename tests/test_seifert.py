import dataclasses
import io
import json
from contextlib import redirect_stderr
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import linkform.pairing as pairing
from linkform.cli import main
from linkform.errors import InvalidDataError, UnsupportedError
from linkform.pairing import gauss_invariant, standard_form_of
from linkform.seifert import (
    SeifertData,
    euler_invariant,
    fibre_sum,
    relevant_primes,
    seifert,
    validate,
)
from support import reorder_at_prime


def valid_seifert(max_r=5, max_alpha=12, max_beta=9):
    pair = st.tuples(
        st.integers(2, max_alpha), st.integers(-max_beta, max_beta)
    ).filter(lambda ab: ab[1] != 0 and __import__("math").gcd(*ab) == 1)
    return st.builds(
        SeifertData,
        st.integers(0, 2),
        st.lists(pair, min_size=1, max_size=max_r).map(tuple),
    )


def test_validate_examples():
    # invalid data cannot be built: construction runs validate and raises
    assert validate(seifert((2, 1), (3, 1))) == []
    with pytest.raises(InvalidDataError, match="gcd"):
        seifert((4, 2))
    with pytest.raises(InvalidDataError, match="alpha"):
        seifert((1, 5))
    with pytest.raises(InvalidDataError, match="empty"):
        SeifertData(0, ())


def _violations(genus, pairs):
    """The invariants of Seifert data that (genus, pairs) breaks, by name."""
    bad = set()
    if genus < 0:
        bad.add("genus")
    if not pairs:
        bad.add("empty")
    for a, b in pairs:
        if a < 2:
            bad.add("alpha")
        elif gcd(a, b) != 1:
            bad.add("gcd")
    return bad


raw_data = st.tuples(
    st.integers(-2, 2),
    st.lists(st.tuples(st.integers(-1, 12), st.integers(-9, 9)), max_size=4),
)


@settings(max_examples=200)
@given(raw_data)
def test_construction_validates(data):
    genus, pairs = data
    bad = _violations(genus, pairs)
    if not bad:
        S = SeifertData(genus, tuple(pairs))
        assert validate(S) == []
        return
    with pytest.raises(InvalidDataError) as info:
        SeifertData(genus, tuple(pairs))
    for word in bad:
        assert word in str(info.value)


@settings(max_examples=40, deadline=None)
@given(raw_data.filter(lambda data: _violations(*data)))
def test_compute_exits_2_on_invalid_data(data):
    genus, pairs = data
    stdin = io.StringIO(json.dumps({"genus": genus, "pairs": [list(p) for p in pairs]}))
    with mock.patch("sys.stdin", stdin), redirect_stderr(io.StringIO()) as err:
        assert main(["compute", "-"]) == 2
    assert "invalid data" in err.getvalue()


def test_euler_examples():
    assert euler_invariant(seifert((2, 1), (2, 1), (2, 1), (2, -1))) == -1
    assert euler_invariant(seifert((3, 1), (3, 1), (3, -2), genus=1)) == 0
    assert euler_invariant(seifert((9, -4), (3, 1))) == Fraction(1, 9)


def test_reorder_examples():
    S, perm = reorder_at_prime(seifert((3, 1), (9, 2), (2, 1)), 3)
    assert S.pairs == ((9, 2), (3, 1), (2, 1))
    assert perm == (1, 0, 2)
    again, perm2 = reorder_at_prime(S, 3)
    assert again == S and perm2 == (0, 1, 2)
    unchanged, _ = reorder_at_prime(seifert((4, 1), (8, 3), (2, 1)), 3)
    assert unchanged.pairs == ((4, 1), (8, 3), (2, 1))


def test_fibre_sum_examples():
    A = seifert((3, 1), (3, -1))
    B = seifert((5, 2), (5, -2))
    C = fibre_sum(A, B)
    assert C.pairs == ((3, 1), (3, -1), (5, 2), (5, -2))
    assert euler_invariant(C) == 0
    with pytest.raises(InvalidDataError):
        fibre_sum(A, SeifertData(0, ()))


@given(valid_seifert(), valid_seifert())
def test_fibre_sum_euler_additive(A, B):
    assert euler_invariant(fibre_sum(A, B)) == euler_invariant(A) + euler_invariant(B)


@given(valid_seifert(), st.sampled_from([2, 3, 5]))
def test_reorder_idempotent_and_multiset(S, p):
    S1, _ = reorder_at_prime(S, p)
    S2, perm = reorder_at_prime(S1, p)
    assert S1 == S2
    assert perm == tuple(range(S.r))
    assert sorted(S1.pairs) == sorted(S.pairs)


def test_relevant_primes_sees_euler_numerator():
    # cone orders contribute {2,3}; the numerator of eps brings in 5
    S = seifert((2, 1), (3, 1))
    assert euler_invariant(S) == Fraction(-5, 6)
    assert relevant_primes(S) == (2, 3, 5)


def test_relevant_primes_found_once_and_outside_the_fields(monkeypatch):
    # compute asks twice per op (its report and structure_check); the cone
    # orders and the Euler numerator are factorized on the first call only
    import linkform.seifert as seifert_module

    calls = []
    inner = seifert_module.factorize
    monkeypatch.setattr(seifert_module, "factorize", lambda n: calls.append(n) or inner(n))
    S = seifert((4, 1), (6, 1), (9, 2), (10, -3))
    seen = (hash(S), repr(S), S.to_json())
    primes = relevant_primes(S)
    assert primes == (2, 3, 5, 61)  # 61 from the Euler numerator
    assert relevant_primes(S) is primes and len(calls) == 5
    assert "relevant" in vars(S) and S == seifert((4, 1), (6, 1), (9, 2), (10, -3))
    assert (hash(S), repr(S), S.to_json()) == seen


def test_json_round_trip():
    S = seifert((2, 1), (2, 1), (2, 1), (2, -1), genus=1)
    assert SeifertData.from_json(S.to_json()) == S


def _euler_sum(S):
    return -sum(Fraction(b, a) for a, b in S.pairs)


@given(valid_seifert())
def test_euler_cached_once_and_outside_the_fields(S):
    fresh = SeifertData(S.genus, S.pairs)
    seen = (hash(S), repr(S), S.to_json(), dataclasses.asdict(S))
    eps = euler_invariant(S)
    assert eps == _euler_sum(S)
    assert euler_invariant(S) is eps and S.eps is eps  # computed once
    assert "eps" in vars(S) and "eps" not in vars(fresh)
    assert S == fresh and hash(S) == hash(fresh)
    assert (hash(S), repr(S), S.to_json(), dataclasses.asdict(S)) == seen
    assert [f.name for f in dataclasses.fields(S)] == ["genus", "pairs"]


@settings(max_examples=60, deadline=None)
@given(valid_seifert(max_r=6).filter(lambda S: S.r >= 2))
def test_gauss_kept_once_and_outside_the_fields(S):
    fresh = SeifertData(S.genus, S.pairs)
    seen = (hash(S), repr(S), S.to_json(), dataclasses.asdict(S))
    reads = []
    inner = pairing.local_invariant_from_data
    with mock.patch.object(
        pairing, "local_invariant_from_data", lambda T, p: reads.append(p) or inner(T, p)
    ):
        inv = gauss_invariant(S)
        assert reads == list(relevant_primes(S))  # every relevant prime, once
        assert gauss_invariant(S) is inv and S.gauss is inv
        assert reads == list(relevant_primes(S))  # not read again
    assert "gauss" in vars(S) and "gauss" not in vars(fresh)
    assert inv == gauss_invariant(fresh) == gauss_invariant(standard_form_of(S))
    assert S == fresh and hash(S) == hash(fresh)
    assert (hash(S), repr(S), S.to_json(), dataclasses.asdict(S)) == seen


def test_gauss_raises_on_every_read_for_r1_and_a_singular_pairing(monkeypatch):
    # nothing is kept when the first read raises, so a later read raises too
    S = seifert((5, 2))
    for _ in range(2):
        with pytest.raises(UnsupportedError):
            S.gauss
    assert "gauss" not in vars(S)
    T = seifert((4, 1), (2, 1))
    assert relevant_primes(T) == (2, 3)
    read = pairing.local_invariant_from_data

    def singular_at_3(S, p):
        if p == 3:
            raise InvalidDataError("singular pairing at 3")
        return read(S, p)

    monkeypatch.setattr(pairing, "local_invariant_from_data", singular_at_3)
    for _ in range(2):
        with pytest.raises(InvalidDataError, match="singular"):
            gauss_invariant(T)
    assert "gauss" not in vars(T)
    monkeypatch.undo()
    assert T.gauss == gauss_invariant(standard_form_of(T))


@given(valid_seifert(), valid_seifert(), st.sampled_from([2, 3, 5]))
def test_derived_data_carry_their_own_euler(A, B, p):
    for S in (A, B):  # fill both caches first
        euler_invariant(S)
    R, _ = reorder_at_prime(A, p)
    assert euler_invariant(R) == _euler_sum(R) == euler_invariant(A)
    C = fibre_sum(A, B)
    assert euler_invariant(C) == _euler_sum(C)
    D = dataclasses.replace(A, pairs=B.pairs)
    assert euler_invariant(D) == euler_invariant(B)
