from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from puiseux.errors import DomainError, ParseError
from puiseux.factorization import Factorization, evaluate
from puiseux.membership import is_member
from puiseux.monoid import Constant, s_index
from puiseux.ratio import Ratio
from puiseux.semiring import (NATURALS, Generators, NumericalMonoidSpec,
                              PrefixCofinite, apery_set, classify_mult,
                              exponent_monoid, format_exponent_set, frobenius,
                              frobenius_bruteforce, is_semiring, mult_divides,
                              mult_divisor_bound, nm_membership,
                              parse_exponent_set)


def NM(*gens):
    return NumericalMonoidSpec.make(gens)


class TestNumericalMonoids:
    def test_membership(self):
        assert not nm_membership(NM(2, 3), 1)
        assert nm_membership(NM(2, 3), 7)
        assert nm_membership(NM(2, 3), 0)
        assert nm_membership(NM(3, 5), 8)
        assert not nm_membership(NM(3, 5), 7)

    def test_apery_set(self):
        assert apery_set(NM(3, 5)) == [0, 10, 5]
        assert apery_set(NM(2, 3)) == [0, 3]

    def test_frobenius(self):
        assert frobenius(NM(2, 3)) == 1
        assert frobenius(NM(3, 5)) == 7
        assert frobenius(NM(6, 9, 20)) == 43
        # the least element of a residue class need not have the fewest
        # summands: 44 is one generator, but 7 + 7 = 14 is the least 2 mod 6
        assert frobenius(NM(6, 7, 44)) == 29

    def test_frobenius_errors(self):
        with pytest.raises(DomainError):
            frobenius(NM(4, 6))  # gcd 2
        with pytest.raises(DomainError):
            frobenius(NM(1))     # all of N_0

    def test_agrees_with_bruteforce(self):
        sets = [(2, 3), (3, 5), (2, 7), (5, 7, 9), (4, 7, 10), (6, 9, 20),
                (11, 13), (3, 7, 8), (6, 7, 44)]
        for gens in sets:
            assert frobenius(NM(*gens)) == frobenius_bruteforce(NM(*gens))

    @settings(max_examples=100)
    @given(st.lists(st.integers(2, 30), min_size=3, max_size=4, unique=True))
    def test_agrees_with_bruteforce_on_random_sets(self, gens):
        assume(gcd(*gens) == 1)
        assert frobenius(NM(*gens)) == frobenius_bruteforce(NM(*gens))


class TestExponentSets:
    def test_parse_generators(self):
        N = parse_exponent_set("N=gens(2,3)")
        assert isinstance(N, Generators)
        assert N.monoid.generators == (2, 3)

    def test_parse_prefix_cofinite(self):
        N = parse_exponent_set("prefix(0,1); tail>=5")
        assert N == PrefixCofinite((0, 1), 5)
        assert N.contains(0) and N.contains(7) and not N.contains(3)

    def test_format_round_trip(self):
        for text in ("gens(2,3)", "prefix(0,1);tail>=5", "prefix();tail>=0"):
            N = parse_exponent_set(text)
            assert parse_exponent_set(format_exponent_set(N)) == N

    @pytest.mark.parametrize("bad", ["gens()", "prefix(7);tail>=5",
                                     "gens(2,3);tail>=5", "everything"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_exponent_set(bad)

    def test_exponent_monoid_gens_2_3(self):
        M, base = exponent_monoid(Ratio(2, 3), Generators(NM(2, 3)))
        assert base == 0
        assert M.delta.tail == Constant(1)
        assert [s_index(M, n) for n in range(5)] == [0, 2, 3, 4, 5]

    def test_exponent_monoid_scaled_generators(self):
        M, base = exponent_monoid(Ratio(2, 3), Generators(NM(4, 6)))
        assert base == 0
        # members of <4,6> are 0 and the even numbers from 4 on
        assert [s_index(M, n) for n in range(4)] == [0, 4, 6, 8]
        assert M.delta.tail == Constant(2)

    def test_exponent_monoid_shift(self):
        M, base = exponent_monoid(Ratio(2, 3), PrefixCofinite((), 3))
        assert base == 3
        assert [s_index(M, n) for n in range(3)] == [0, 1, 2]


class TestIsSemiring:
    def test_generator_form(self):
        assert is_semiring(Ratio(2, 3), Generators(NM(2, 3)))["semiring"] is True

    def test_zero_base_rejected(self):
        for N in (Generators(NM(2, 3)), PrefixCofinite((0,), 3)):
            with pytest.raises(DomainError, match="base r must be positive"):
                is_semiring(Ratio(0), N)

    def test_closure_violation(self):
        out = is_semiring(Ratio(2, 3), PrefixCofinite((0, 1), 5))
        assert out["semiring"] is False
        assert out["reason"] == "1+1=2 not in N"

    def test_missing_zero(self):
        out = is_semiring(Ratio(2, 3), PrefixCofinite((1,), 4))
        assert out["semiring"] is False
        assert out["reason"] == "0 not in N"

    def test_cofinite_numerical_monoid(self):
        out = is_semiring(Ratio(2, 3), PrefixCofinite((0,), 2))
        assert out["semiring"] is True

    def test_degenerate_flagging(self):
        assert "degenerate" in is_semiring(Ratio(1, 2), Generators(NM(2, 3)))
        assert "degenerate" in is_semiring(Ratio(3), Generators(NM(2, 3)))
        assert "degenerate" not in is_semiring(Ratio(2, 3), Generators(NM(2, 3)))

    def test_product_closure_on_members(self):
        M, _ = exponent_monoid(Ratio(2, 3), Generators(NM(2, 3)))
        atoms = [Ratio(2, 3) ** s_index(M, n) for n in range(4)]
        for u in atoms:
            for v in atoms:
                assert is_member(u * v, M, 12).is_member


class TestMultiplicativeDivisibility:
    def test_bound_examples(self):
        r = Ratio(2, 3)
        assert mult_divisor_bound(r, Ratio(4, 3)) == 2
        assert mult_divisor_bound(r, Ratio(1, 3)) == 0
        assert mult_divisor_bound(r, Ratio(32, 9)) == 5

    def test_bound_hypotheses(self):
        with pytest.raises(DomainError):
            mult_divisor_bound(Ratio(3, 2), Ratio(4))
        with pytest.raises(DomainError):
            mult_divisor_bound(Ratio(2, 3), Ratio(0))

    def test_divides_positive(self):
        res = mult_divides(Ratio(2, 3), 2, Ratio(4, 3), NATURALS, 4)
        assert res.is_member
        assert res.witness.as_dict() == {0: 3}

    def test_divides_beyond_bound(self):
        res = mult_divides(Ratio(2, 3), 3, Ratio(4, 3), NATURALS)
        assert res.status == "not-member"
        assert "bound" in res.reason

    def test_unit_divides_one(self):
        res = mult_divides(Ratio(2, 3), 0, Ratio(1), NATURALS, 4)
        assert res.is_member
        assert res.witness.as_dict() == {0: 1}

    def test_member_implies_within_bound(self):
        r = Ratio(2, 3)
        for p in range(1, 30):
            for k in (0, 1, 2):
                x = Ratio(p, 3 ** k)
                for n in range(0, 4):
                    res = mult_divides(r, n, x, NATURALS, 6)
                    if res.is_member:
                        assert n <= mult_divisor_bound(r, x)


class TestClassifyMult:
    def test_zero_base_rejected(self):
        for N in (None, Generators(NM(2, 3))):
            with pytest.raises(DomainError, match="base r must be positive"):
                classify_mult(Ratio(0), N)

    def test_expanding_base_is_ffm(self):
        v = classify_mult(Ratio(5, 2))
        assert (v.accp, v.bfp, v.ffp) == ("yes", "yes", "yes")
        assert v.evidence["rule"] == "ffm-above-one"

    def test_prime_power_denominator(self):
        v = classify_mult(Ratio(2, 9))
        assert v.accp == "yes"
        assert v.bfp == v.ffp == "unknown"
        assert v.evidence["rule"] == "prime-power-denominator"

    def test_composite_radical_is_unknown(self):
        v = classify_mult(Ratio(2, 15))
        assert (v.accp, v.bfp, v.ffp) == ("unknown", "unknown", "unknown")

    def test_integer_base(self):
        assert classify_mult(Ratio(3)).accp == "yes"

    def test_unit_numerator(self):
        assert classify_mult(Ratio(1, 2)).accp == "n/a"

    def test_independent_of_exponent_set(self):
        for r in (Ratio(5, 2), Ratio(2, 9), Ratio(2, 15), Ratio(3)):
            a = classify_mult(r, None)
            b = classify_mult(r, Generators(NM(2, 3)))
            c = classify_mult(r, NATURALS)
            assert (a.accp, a.bfp, a.ffp) == (b.accp, b.bfp, b.ffp)
            assert (a.accp, a.bfp, a.ffp) == (c.accp, c.bfp, c.ffp)
