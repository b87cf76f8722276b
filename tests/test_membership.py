from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from puiseux import factorization, membership
from puiseux.errors import DomainError
from puiseux.factorization import Factorization, enumerate_all, evaluate, min_normal_form
from puiseux.membership import MembershipResult, _complete_index, divides, is_member
from puiseux.monoid import parse_monoid, s_index
from puiseux.oracle import oracle_enumerate
from puiseux.ratio import Ratio

from test_factorization import expanding_queries

CONST = parse_monoid("r=2/3; delta=const(1)")


class TestIsMember:
    def test_zero(self):
        for M in (CONST, parse_monoid("r=3/2; delta=const(1)")):
            res = is_member(Ratio(0), M)
            assert res.is_member
            assert res.witness.coeffs == ()

    def test_denominator_obstruction(self):
        res = is_member(Ratio(1, 5), CONST)
        assert res.status == "not-member"
        assert "5" in res.reason

    def test_bounded_search_witness(self):
        res = is_member(Ratio(4, 3), CONST, 4)
        assert res.is_member
        assert evaluate(res.witness) == Ratio(4, 3)
        assert res.witness.length == 2  # minimum-length normal form

    def test_witness_is_normal(self):
        res = is_member(Ratio(4), CONST, 5)
        assert res.is_member
        for i, c in res.witness.coeffs:
            if i >= 1:
                assert c < 3 ** CONST.delta.delta(i - 1)

    def test_unresolved_within_tiny_bound(self):
        res = is_member(Ratio(1, 9), CONST, 1)
        assert res.status == "unresolved"
        assert res.bound == 1

    def test_monotone_in_bound(self):
        res = is_member(Ratio(4, 3), CONST, 2)
        assert res.is_member
        for extra in (1, 3, 5):
            assert is_member(Ratio(4, 3), CONST, 2 + extra).is_member

    def test_negative_soundness_under_larger_bound(self):
        for q in (Ratio(1, 5), Ratio(3, 7), Ratio(2, 15)):
            base = is_member(q, CONST)
            assert base.status == "not-member"
            bumped = is_member(q, CONST, _complete_index(q, CONST, 512) + 7)
            assert bumped.status == "not-member"

    def test_expanding_base_always_decides(self):
        big = parse_monoid("r=3/2; delta=const(1)")
        for p in range(1, 11):
            for q in (1, 2, 4):
                res = is_member(Ratio(p, q), big)
                assert res.status in ("member", "not-member")

    def test_base_one_decides(self):
        flat = parse_monoid("r=1/1; delta=const(1)")
        assert is_member(Ratio(3), flat).is_member
        assert is_member(Ratio(1, 2), flat).status == "not-member"
        # every atom is 1, so x atoms at level 0 on a finite window too
        window = parse_monoid("r=1/1; delta=prefix(1,2); finite")
        assert is_member(Ratio(3), window).witness.as_pairs() == [[0, 3]]

    def test_a_least_complete_index_of_512_is_walked_there(self):
        # the default bound is capped at index 512, where r^{512} is complete
        x = CONST.r ** 512
        assert is_member(x, CONST).witness.as_pairs() == [[512, 1]]
        assert is_member(x * CONST.r, CONST) == MembershipResult("unresolved", bound=512)

    def test_finite_window_decides(self):
        fin = parse_monoid("r=2/3; delta=prefix(1,2); finite")
        assert is_member(Ratio(2, 3), fin).is_member
        res = is_member(Ratio(16, 81), fin)  # r^4: outside the window
        assert res.status == "not-member"

    @pytest.mark.parametrize("spec,q", [
        ("r=2/3; delta=const(1)", Ratio(1, 9)),   # bounded search
        ("r=2/3; delta=const(1)", Ratio(1, 5)),   # denominator obstruction
        ("r=3/2; delta=const(1)", Ratio(3)),      # expanding base
        ("r=2/3; delta=prefix(1,2); finite", Ratio(2, 3)),  # finite window
    ])
    def test_negative_bound_is_rejected_on_every_path(self, spec, q):
        with pytest.raises(DomainError, match=r"^support bound must be >= 0$"):
            is_member(q, parse_monoid(spec), -1)


class TestDivides:
    def test_positive_case(self):
        res = divides(Ratio(2, 3), Ratio(2), CONST)
        assert res.is_member
        assert evaluate(res.witness) == Ratio(4, 3)

    def test_equal_arguments(self):
        res = divides(Ratio(2), Ratio(2), CONST)
        assert res.is_member
        assert res.witness.coeffs == ()

    def test_negative_difference(self):
        res = divides(Ratio(3), Ratio(2), CONST)
        assert res.status == "not-member"
        assert res.reason == "negative difference"


def test_default_bound_tracks_denominator():
    assert _complete_index(Ratio(5, 1), CONST, 512) == 0
    assert _complete_index(Ratio(1, 9), CONST, 512) == 2
    assert is_member(Ratio(1, 9), CONST).bound == 5   # m=2 plus slack


# ---------------------------------------------------------------------------
# The search stops at the least complete index
# ---------------------------------------------------------------------------

# r < 1 with an infinite tail, antimatter included: the bounded-search branch
SEARCHED = [parse_monoid(text) for text in (
    "r=2/3; delta=const(1)", "r=2/3; delta=geom(1,2)", "r=2/3; delta=poly(1,1)",
    "r=3/4; delta=periodic(1,2)", "r=3/4; delta=prefix(2,1);const(1)",
    "r=2/5; delta=prefix(1);periodic(2,3)", "r=2/3; delta=recurrence(2,3,2)",
    "r=1/3; delta=const(1)")]


def _least_complete(q, M):
    """Reference: the least m with d(q) | d(r)^{s_m}, d^{s_m} formed in full."""
    m = 0
    while M.r.den ** s_index(M, m) % q.den:
        m += 1
    return m


@st.composite
def searched_queries(draw):
    """(q, M, B): a few atoms at indices up to B + 2, plus an optional offset
    that may leave the monoid; d(q) always divides a power of d(r)."""
    M = draw(st.sampled_from(SEARCHED))
    B = draw(st.integers(0, 5))
    support = draw(st.dictionaries(st.integers(0, B + 2), st.integers(1, 4), max_size=3))
    offset = Ratio(draw(st.integers(0, 2)), M.r.den ** draw(st.integers(0, 4)))
    return evaluate(Factorization(M, tuple(sorted(support.items())))) + offset, M, B


@settings(max_examples=200, deadline=None)
@given(searched_queries())
def test_the_search_at_the_complete_index_answers_as_the_search_at_the_bound(query):
    q, M, B = query
    found = enumerate_all(q, M, B)
    if not found:
        searched = MembershipResult("unresolved", bound=B)
    else:
        searched = MembershipResult("member", min_normal_form(found[0]))
    assert is_member(q, M, B) == searched


@settings(max_examples=200, deadline=None)
@given(searched_queries(), st.sampled_from([None, 0, 1, 2, 5, 9, 30]))
def test_the_search_never_passes_the_complete_index(query, bound):
    # one walk, never deeper than m, and one walk of the gaps to find m
    q, M, _ = query
    depths, scans = [], []
    walk, scan = membership._least_form, membership._complete_index
    with patch.object(membership, "_least_form",
                      lambda x, M, B: depths.append(B) or walk(x, M, B)), \
            patch.object(membership, "_complete_index",
                         lambda *args: scans.append(args) or scan(*args)):
        is_member(q, M, bound)
    assert len(depths) == 1
    assert depths[0] <= _least_complete(q, M)
    assert len(scans) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(searched_queries().map(lambda query: query[:2]), expanding_queries()))
def test_membership_never_enters_the_search(query):
    q, M = query

    def banned(*args):
        raise AssertionError("is_member entered _leaves")

    with patch.object(factorization, "_leaves", banned):
        res = is_member(q, M)
    if res.witness is not None:
        assert evaluate(res.witness) == q


# ---------------------------------------------------------------------------
# Against the frozen oracle: at the least complete index the oracle finds a
# factorization exactly when is_member answers member
# ---------------------------------------------------------------------------

ORACLE_NODES = 100_000


def _oracle_volume(q, M, m):
    """An upper bound on the oracle's search nodes on [0, m]: the partial
    vectors at level i lie in a simplex whose volume, widened by one unit per
    axis, bounds their number."""
    n, d = M.r.num, M.r.den
    s = [s_index(M, i) for i in range(m + 1)]
    D = d ** s[m]
    T = q.num * (D // q.den)
    w = [n ** s[i] * d ** (s[m] - s[i]) for i in range(m + 1)]
    work, W, prod, fact = 0, 0, 1, 1
    for i in range(m + 1):
        W, prod, fact = W + w[i], prod * w[i], fact * (i + 1)
        work += (T + W) ** (i + 1) // (fact * prod) + 1
    return work


@settings(max_examples=200, deadline=None)
@given(searched_queries())
def test_membership_agrees_with_the_oracle_at_the_complete_index(query):
    q, M, _ = query
    m = _least_complete(q, M)
    assume(_oracle_volume(q, M, m) <= ORACLE_NODES)
    vectors = oracle_enumerate(q, M, m)
    res = is_member(q, M)
    assert res.is_member == bool(vectors)
    if vectors:
        assert res.witness.length == min(sum(v) for v in vectors)
        assert evaluate(res.witness) == q
    else:
        assert res.status == "unresolved"
