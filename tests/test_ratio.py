import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import primefactors

from puiseux.errors import DomainError, ParseError
from puiseux.monoid import atom, parse_monoid
from puiseux.ratio import ONE, ZERO, Ratio, _ipow, _power, max_power_dividing


def test_reduction():
    assert Ratio(4, 6) == Ratio(2, 3)
    assert Ratio(0, 7) == Ratio(0, 1)
    assert Ratio(9, 1) == Ratio(9, 1)


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        Ratio(1, 0)


def test_negative_rejected():
    with pytest.raises(DomainError):
        Ratio(-1, 2)
    with pytest.raises(DomainError):
        Ratio(1, -2)
    with pytest.raises(DomainError):
        Ratio(1, 3) - Ratio(2, 3)


def test_pow_examples():
    r = Ratio(2, 3)
    assert r ** 0 == Ratio(1, 1)
    assert r ** 2 == Ratio(4, 9)
    assert r ** 5 == Ratio(32, 243)
    assert ZERO ** 0 == ONE
    assert ((ZERO ** 3).num, (ZERO ** 3).den) == (0, 1)


def test_max_power_dividing():
    assert max_power_dividing(2, 4) == 2
    assert max_power_dividing(3, 7) == 0
    assert max_power_dividing(2, 96) == 5


@settings(deadline=None)
@given(st.integers(2, 50), st.integers(0, 2000), st.integers(1, 10 ** 6))
def test_max_power_dividing_agrees_with_one_division_at_a_time(b, k, c):
    m = rest = b ** k * c
    want = 0
    while rest % b == 0:
        rest //= b
        want += 1
    assert max_power_dividing(b, m) == want


def test_serialization_round_trip():
    assert str(Ratio(2, 3)) == "2/3"
    assert str(Ratio(9)) == "9/1"
    assert Ratio.parse("4/6") == Ratio(2, 3)
    assert Ratio.parse("7") == Ratio(7, 1)
    with pytest.raises(ParseError):
        Ratio.parse("a/b")


@pytest.mark.parametrize("value", [
    Ratio(2 ** 20000, 3),
    atom(parse_monoid("r=2/3; delta=periodic(2,3)"), 5000),
], ids=["2^20000/3", "atom-5000"])
def test_repr_past_the_int_str_cap_is_a_hex_literal(value):
    # repr never raises: past the cap the integer is printed in hex, which
    # evaluates back to the same value; str still refuses
    text = repr(value)
    assert "0x" in text and eval(text) == value
    with pytest.raises(DomainError, match="too large to print"):
        str(value)


def test_repr_below_the_int_str_cap_is_decimal():
    big = 10 ** (sys.get_int_max_str_digits() - 1)
    assert repr(Ratio(2, 3)) == "Ratio(2, 3)"
    assert repr(Ratio(big, 7)) == f"Ratio({big}, 7)"


# bases with exponents from below the 640-digit cap to past the bit-length bound
NEAR_THE_CAP = st.integers(2, 2 ** 20).flatmap(lambda base: st.tuples(
    st.just(base), st.integers(2100 // base.bit_length(), 2200 // (base.bit_length() - 1) + 1)))


@settings(deadline=None)
@given(NEAR_THE_CAP)
@example((10, 640))  # 641 digits, one past the cap
@example((2, 2126))  # 640 digits, the longest power of 2 that prints
@example((2, 2134))  # the least exponent of 2 that the bit-length bound refuses
def test_power_text_is_that_of_the_formed_power_near_the_cap(power):
    # at the least cap CPython allows, 640 digits, base**e crosses it for
    # e*log2(base) near 2126; the bit-length bound refuses e*(bits-1) >= 2134
    # and leaves the band between to the formed power
    base, e = power
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        try:
            want = str(base ** e)
        except ValueError:
            want = f"{base}^{e}"
        assert _power(base, e) == want
    finally:
        sys.set_int_max_str_digits(cap)


@settings(deadline=None)
@given(st.integers(0, 30), st.integers(1, 30), st.integers(0, 20), st.integers(0, 20),
       st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
def test_power_quotients_match_fraction(p, q, a, b, steps):
    r = Ratio(p, q)
    got = list(r.power_quotients(a, b, steps))
    assert len(got) == len(steps) + 1
    for x, (i, j) in zip(got, [(0, 0)] + steps):
        a, b = a + i, b + j
        want = Fraction(r.num ** a, r.den ** b)
        assert (x.num, x.den) == (want.numerator, want.denominator)


@pytest.mark.parametrize("a, b, steps", [(1.0, 0, []), (-1, 0, []), (1, 1, [(1, -1)]),
                                         (1, 1, [(0.5, 0)])],
                         ids=["float", "negative", "negative-step", "float-step"])
def test_power_quotients_take_nonnegative_int_exponents(a, b, steps):
    with pytest.raises(TypeError, match="^exponents must be integers >= 0$"):
        list(Ratio(2, 3).power_quotients(a, b, steps))


@pytest.mark.parametrize("r, a, b", [(Ratio(2, 3), -4, 0), (Ratio(3, 4), 0, -1),
                                     (Ratio(6, 7), -1, -1), (Ratio(5, 8), 2, -3),
                                     (Ratio(7, 9), -2, 5), (ONE, -1, 0), (ZERO, 0, -2)])
def test_power_quotients_refuse_a_negative_first_exponent(r, a, b):
    # checked before _ipow forms the first pair, where a negative exponent
    # would shift a float and raise a TypeError of another message
    with pytest.raises(TypeError, match="^exponents must be integers >= 0$"):
        next(r.power_quotients(a, b, []))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 80), st.integers(0, 499_999).map(lambda k: 2 * k + 1),
       st.integers(0, 5000))
@example(0, 1, 5000)  # base 1
@example(80, 1, 5000)  # a bare power of two, 400 000 bits
@example(1, 3, 0)
def test_ipow_is_the_power(t, u, e):
    # base 2^t u with u odd: u^e shifted by t e bits
    base = u << t
    assert _ipow(base, e) == base ** e
    assert type(_ipow(base, e)) is int


@given(st.sampled_from([0, 1]), st.integers(0, 5000))
@example(0, 0)  # 0^0 = 1
def test_ipow_of_zero_and_one(base, e):
    assert _ipow(base, e) == base ** e
    assert type(_ipow(base, e)) is int


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 3), (3, 4), (6, 7), (5, 8), (7, 9), (8, 3)]),
       st.integers(1000, 5000))
@example((2, 3), 5000)
@example((5, 8), 1000)
def test_deep_powers_match_fraction(pq, e):
    # even numerator, even denominator and both odd, at the exponents of
    # deep-index's atoms; (num, den) pairs, so an unreduced power fails too
    got, want = Ratio(*pq) ** e, Fraction(*pq) ** e
    assert (got.num, got.den) == (want.numerator, want.denominator)


def test_big_powers_exact():
    v = Ratio(3) ** 10_000
    assert v.num == 3 ** 10_000
    assert v.den == 1


@given(st.integers(0, 10**6), st.integers(1, 10**6))
def test_always_reduced(p, q):
    from math import gcd
    r = Ratio(p, q)
    assert gcd(r.num, r.den) == 1
    assert r.den >= 1


@given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(0, 60))
def test_pow_is_reduced(p, q, e):
    from math import gcd
    r = Ratio(p, q)
    out = r ** e
    assert out == Ratio(r.num ** e, r.den ** e)
    assert gcd(out.num, out.den) == 1
    assert out.den >= 1


@given(st.integers(0, 10**4), st.integers(1, 36), st.integers(0, 10**4), st.integers(1, 36))
def test_sum_and_product_match_fraction(p, q, u, v):
    from fractions import Fraction
    x, y = Ratio(p, q), Ratio(u, v)
    for got, want in ((x + y, Fraction(p, q) + Fraction(u, v)),
                      (x * y, Fraction(p, q) * Fraction(u, v))):
        assert (got.num, got.den) == (want.numerator, want.denominator)


@given(st.integers(0, 50), st.integers(1, 50), st.integers(0, 30), st.integers(0, 30))
def test_pow_is_additive_in_exponent(p, q, a, b):
    r = Ratio(p, q)
    assert r ** (a + b) == (r ** a) * (r ** b)


def test_ordering_and_arithmetic():
    assert Ratio(1, 2) < Ratio(2, 3) <= Ratio(2, 3)
    assert Ratio(1, 2) + Ratio(1, 3) == Ratio(5, 6)
    assert Ratio(2) - Ratio(2, 3) == Ratio(4, 3)
    assert Ratio(4, 3) / Ratio(4, 9) == Ratio(3)
    assert Ratio(7, 2).floor() == 3


FOREIGN = [1.5, Fraction(1, 2), True]
OPERATORS = [operator.lt, operator.le, operator.gt, operator.ge,
             operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("other", FOREIGN, ids=["float", "Fraction", "bool"])
@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_a_foreign_operand_is_a_type_error(op, other):
    with pytest.raises(TypeError):
        op(Ratio(1, 2), other)
    with pytest.raises(TypeError):
        op(other, Ratio(1, 2))


@pytest.mark.parametrize("e", [0.5, 2.0, Fraction(1, 2), Fraction(2), Ratio(1, 2), Ratio(2),
                               True],
                         ids=["float", "whole-float", "Fraction", "whole-Fraction", "Ratio",
                              "whole-Ratio", "bool"])
def test_a_foreign_exponent_is_a_type_error(e):
    with pytest.raises(TypeError):
        Ratio(2, 3) ** e


@pytest.mark.parametrize("args", [(True,), (1, True), (False, 1), (1.5,), (Fraction(1, 2),),
                                  (1, 2.0)],
                         ids=["bool", "bool-den", "bool-num", "float", "Fraction", "float-den"])
def test_the_constructor_refuses_what_is_not_an_int(args):
    # as every other public constructor does: a bool is no integer
    with pytest.raises(TypeError, match="^num and den must be integers$"):
        Ratio(*args)


@pytest.mark.parametrize("other", FOREIGN, ids=["float", "Fraction", "bool"])
def test_a_foreign_operand_is_never_equal(other):
    assert (Ratio(1, 2) == other) is False and (other == Ratio(1, 2)) is False
    assert Ratio(1, 2) != other and other != Ratio(1, 2)
    assert Ratio(3) == 3 and 3 == Ratio(3) and Ratio(3, 2) != 1


def test_a_whole_ratio_hashes_as_its_int():
    assert len({Ratio(3), 3}) == 1 and {3: "a"}.get(Ratio(3)) == "a"
    assert {Ratio(6, 2): "b"}.get(3) == "b" and hash(ZERO) == hash(0)


RATIOS_AND_INTS = st.one_of(st.integers(0, 40), st.builds(Ratio, st.integers(0, 40),
                                                           st.integers(1, 6)))


@given(RATIOS_AND_INTS, RATIOS_AND_INTS)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


@st.composite
def over_powers(draw, prime_to_d=False):
    """(u, q, v, d, e) for num = u * q^v over d^e, d <= 36, q = d or a prime
    of d, with v up to 200 so that num often shares more with d^e than
    over_power's first gcd, with d^3, takes out; u prime to d when
    prime_to_d asks for it."""
    d = draw(st.integers(1, 36))
    q = draw(st.sampled_from([d, *primefactors(d)]))
    u = draw(st.integers(0, 10 ** 6))
    if prime_to_d:
        u = u * d + 1
    return u, q, draw(st.integers(0, 200)), d, draw(st.integers(0, 60))


@settings(max_examples=300)
@given(over_powers())
@example((0, 12, 5, 12, 30))  # zero over a power of d
@example((7, 2, 100, 12, 0))  # over d^0 = 1
def test_over_power_matches_the_reducing_constructor(case):
    u, q, v, d, e = case
    got = Ratio.over_power(u * q ** v, d ** e, d)
    want = Ratio(u * q ** v, d ** e)
    assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=300)
@given(over_powers(prime_to_d=True))
@example((1, 12, 3, 12, 60))
@example((1, 12, 4, 12, 60))
@example((1, 2, 6, 12, 60))   # v_2(12) = 2, so 2^6 divides 12^3
@example((1, 2, 7, 12, 60))
@example((1, 12, 100, 12, 3))
@example((8, 3, 30, 3, 30))   # a 48-bit den: one gcd, no constructor
@example((1, 2, 70, 2, 63))   # 2^63 has 64 bits
@example((1, 2, 70, 2, 64))
def test_over_power_calls_the_reducing_constructor_only_past_d_cubed(case):
    # a den of at most 64 bits takes one gcd with num and no constructor;
    # past that, the first gcd, with d^min(e, 3), takes min(v, 3 v_q(d),
    # e v_q(d)) factors q, and only a q left in both num and den needs the
    # constructor
    u, q, v, d, e = case
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Ratio, "__init__", lambda self, *args: calls.append(args))
        Ratio.over_power(u * q ** v, d ** e, d)
    long = (d ** e).bit_length() > 64
    past = long and d > 1 and v > 3 * max_power_dividing(q, d) and e > 3
    assert len(calls) == past


@pytest.mark.parametrize("call,error,message", [
    (lambda: Ratio(1, 2) / 0, DomainError, "division by zero"),
    (lambda: Ratio(1, 2) ** -1, DomainError, "negative exponent"),
    (lambda: setattr(Ratio(1, 2), "num", 3), AttributeError, "Ratio is immutable"),
    (lambda: delattr(Ratio(1, 2), "num"), AttributeError, "Ratio is immutable"),
    (lambda: max_power_dividing(1, 8), DomainError, "base must be >= 2"),
    (lambda: max_power_dividing(2, 0), DomainError, "argument must be >= 1"),
], ids=["divide-by-zero", "negative-exponent", "immutable", "undeletable", "base-below-two",
        "argument-below-one"])
def test_an_invalid_operation_raises(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_zero_is_false_and_an_int_operand_is_coerced():
    assert not Ratio(0) and Ratio(1, 2)
    assert Ratio(1, 2) < 1 < Ratio(3, 2)
