import pytest

from puiseux.errors import DomainError
from puiseux.factorization import evaluate
from puiseux.membership import default_support_bound, divides, is_member
from puiseux.monoid import parse_monoid
from puiseux.ratio import Ratio

CONST = parse_monoid("r=2/3; delta=const(1)")


class TestIsMember:
    def test_zero(self):
        res = is_member(Ratio(0), CONST)
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
            bumped = is_member(q, CONST, default_support_bound(q, CONST) + 4)
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
    assert default_support_bound(Ratio(5, 1), CONST) == 3   # m=0 plus slack
    assert default_support_bound(Ratio(1, 9), CONST) == 5   # m=2 plus slack
