from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from puiseux import monoid
from puiseux.errors import DomainError, IndexRangeError, ParseError
from puiseux.monoid import (AtomicityVerdict, Constant, DeltaSpec, ExpMonoid, Geometric,
                            Periodic, Polynomial, Recurrence, _log2_bounds, atom,
                            classify_atomicity, descending_run, format_delta, format_monoid,
                            monoid_from_json, parse_delta, parse_monoid,
                            s_index, truncate)
from puiseux.oracle import oracle_lengths
from puiseux.ratio import Ratio


def M(text):
    return parse_monoid(text)


class TestSIndex:
    def test_constant_gaps(self):
        assert s_index(M("r=2/3; delta=const(1)"), 5) == 5

    def test_geometric_gaps(self):
        # 1 + 2 + 4
        assert s_index(M("r=2/3; delta=geom(1,2)"), 3) == 7

    def test_prefix_then_constant(self):
        # 2 + 3 + 4 + 4
        assert s_index(M("r=2/3; delta=prefix(2,3); const(4)"), 4) == 13

    def test_zero(self):
        for text in ("r=2/3; delta=const(1)", "r=2/3; delta=geom(3,2)"):
            assert s_index(M(text), 0) == 0

    def test_strictly_increasing_and_gap_identity(self):
        for text in ("r=2/3; delta=const(2)", "r=2/3; delta=geom(1,2)",
                     "r=2/3; delta=poly(1,1)", "r=2/3; delta=periodic(1,3,2)",
                     "r=2/3; delta=prefix(5,1); poly(2,0,1)"):
            m = M(text)
            prev = s_index(m, 0)
            for n in range(64):
                cur = s_index(m, n + 1)
                assert cur > prev
                assert cur - prev == m.delta.delta(n)
                prev = cur

    def test_finite_window_range_error(self):
        m = M("r=2/3; delta=prefix(1,2); finite")
        assert s_index(m, 2) == 3
        with pytest.raises(IndexRangeError):
            s_index(m, 3)
        with pytest.raises(IndexRangeError):
            s_index(m, -1)


class TestAtom:
    def test_examples(self):
        assert atom(M("r=2/3; delta=const(1)"), 2) == Ratio(4, 9)
        assert atom(M("r=2/3; delta=geom(1,2)"), 2) == Ratio(8, 27)

    def test_index_zero_is_one(self):
        for text in ("r=2/3; delta=const(1)", "r=7/2; delta=geom(2,3)"):
            assert atom(M(text), 0) == Ratio(1)


class TestAtomicity:
    def test_integer_base(self):
        v = classify_atomicity(M("r=3; delta=const(1)"))
        assert v.kind == "iso-naturals"
        assert v.atoms == "{1}"

    def test_antimatter(self):
        v = classify_atomicity(M("r=1/2; delta=const(1)"))
        assert v.kind == "antimatter"
        assert v.atoms == ""

    def test_atomic(self):
        assert classify_atomicity(M("r=2/3; delta=const(1)")).kind == "atomic"

    def test_depends_only_on_r(self):
        # on an infinite tail the kind reads r alone; a finite window changes
        # it only at n(r) = 1 < d(r), where M = <r^{s_W}> is N_0
        texts = ["delta=const(1)", "delta=geom(1,2)", "delta=poly(1,0,1)",
                 "delta=prefix(4); periodic(2,7)"]
        windows = ["delta=finite", "delta=prefix(3); finite", "delta=prefix(1,2,1); finite"]
        for r in ("2/3", "5/1", "1/6", "9/4", "1/1"):
            kinds = {classify_atomicity(M(f"r={r}; {t}")).kind for t in texts}
            assert len(kinds) == 1
            windowed = {classify_atomicity(M(f"r={r}; {t}")).kind for t in windows}
            assert windowed == ({"iso-naturals"} if r == "1/6" else kinds)

    @pytest.mark.parametrize("text,kind,atoms", [
        ("r=1/2; delta=finite", "iso-naturals", "{1}"),
        ("r=1/2; delta=prefix(1,2); finite", "iso-naturals", "{1/8}"),
        ("r=1/6; delta=prefix(3); finite", "iso-naturals", "{1/216}"),
        ("r=2/3; delta=prefix(1,2); finite", "atomic", "{r^s_n : 0 <= n <= 2}"),
        ("r=3/2; delta=finite", "atomic", "{r^s_n : 0 <= n <= 0}"),
        ("r=3; delta=prefix(1,2); finite", "iso-naturals", "{1}"),
    ])
    def test_a_finite_window_names_its_atoms(self, text, kind, atoms):
        assert classify_atomicity(M(text)) == AtomicityVerdict(kind, atoms)

    @pytest.mark.parametrize("text", [
        "r=1/2; delta=prefix(1,2); finite", "r=1/3; delta=prefix(2,1); finite",
        "r=2/3; delta=prefix(1,2); finite", "r=3/2; delta=prefix(1,1); finite",
        "r=2/5; delta=prefix(2); finite", "r=3; delta=prefix(1); finite"])
    def test_the_named_atoms_are_the_generators_the_oracle_cannot_split(self, text):
        # a generator is an atom when no sum of two or more generators makes it
        m = M(text)
        W = m.delta.max_exponent_index
        unsplit = [i for i in range(W + 1)
                   if max(oracle_lengths(atom(m, i), m, W)) == 1]
        verdict = classify_atomicity(m)
        named = {"atomic": list(range(W + 1)), "antimatter": []}.get(verdict.kind)
        if named is None:  # iso-naturals: the one atom is the least generator
            named = [min(range(W + 1), key=lambda i: atom(m, i))]
            assert verdict.atoms == "{" + str(atom(m, named[0])).removesuffix("/1") + "}"
        assert unsplit == named


class TestTruncate:
    def test_drop_prefix(self):
        m = truncate(M("r=2/3; delta=prefix(5); const(1)"), 1)
        assert m.delta.prefix == ()
        assert m.delta.tail == Constant(1)

    def test_geometric_reindexes(self):
        m = truncate(M("r=2/3; delta=geom(1,2)"), 2)
        assert m.delta.tail == Geometric(4, 2)

    def test_identity(self):
        base = M("r=2/3; delta=geom(1,2)")
        assert truncate(base, 0) == base

    def test_composition_matches_flat_drop(self):
        for text in ("r=2/3; delta=geom(1,2)", "r=2/3; delta=poly(1,1)",
                     "r=2/3; delta=prefix(2,5,1); periodic(3,4)"):
            base = M(text)
            for i in range(4):
                for j in range(4):
                    a, b = truncate(truncate(base, i), j), truncate(base, i + j)
                    for n in range(10):
                        assert atom(a, n) == atom(b, n)

    def test_finite_overrun(self):
        with pytest.raises(IndexRangeError):
            truncate(M("r=2/3; delta=prefix(1,2); finite"), 3)


class TestTailRules:
    def test_polynomial_values_and_shift(self):
        p = Polynomial((1, 0, 1))  # 1 + k^2
        assert [p.delta(k) for k in range(4)] == [1, 2, 5, 10]
        q = p.shifted(3)
        assert [q.delta(k) for k in range(4)] == [p.delta(k + 3) for k in range(4)]

    def test_polynomial_must_stay_positive(self):
        with pytest.raises(DomainError):
            Polynomial((0, 1))       # p(0) = 0
        with pytest.raises(DomainError):
            Polynomial((-3, 1))      # negative at k < 3
        with pytest.raises(DomainError):
            Polynomial((5, -1))      # negative leading coefficient

    def test_periodic_rotation(self):
        p = Periodic((1, 3, 2))
        assert [p.delta(k) for k in range(6)] == [1, 3, 2, 1, 3, 2]
        assert p.shifted(4).pattern == (3, 2, 1)

    def test_recurrence_values(self):
        rec = Recurrence(2, 3, 2)
        assert [rec.delta(k) for k in range(6)] == [2, 3, 4, 6, 9, 14]
        assert rec.shifted(2).seed == 4

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            Constant(0)
        with pytest.raises(DomainError):
            Geometric(0, 2)
        with pytest.raises(DomainError):
            Geometric(1, 1)
        with pytest.raises(DomainError):
            Periodic(())
        with pytest.raises(DomainError):
            DeltaSpec((1, 0), Constant(1))

    @pytest.mark.parametrize("call,error,message", [
        (lambda: Polynomial(()), DomainError, "empty polynomial"),
        (lambda: parse_delta("recurrence(3,2,1)"), ParseError, "recurrence needs 1 < a < b"),
        (lambda: parse_delta("recurrence(2,3,0)"), ParseError, "recurrence seed must be >= 1"),
        (lambda: parse_delta("const(x)"), ParseError, r"non-integer argument in const\(\.\.\.\)"),
        (lambda: DeltaSpec((1,), Constant(1)).delta(-1), IndexRangeError, "negative gap index"),
        (lambda: DeltaSpec((1, 2)).delta(2), IndexRangeError,
         "gap index 2 beyond finite window of 2 gaps"),
        (lambda: DeltaSpec((1,)).drop(-1), IndexRangeError, "negative truncation index"),
        (lambda: next(DeltaSpec((1,), Constant(1)).gaps(-1)), IndexRangeError,
         "negative gap index"),
    ], ids=["empty-polynomial", "recurrence-order", "recurrence-seed", "non-integer",
            "negative-gap", "gap-past-window", "negative-drop", "negative-walk"])
    def test_a_bad_rule_or_index_raises(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()


class TestGrammar:
    def test_round_trip(self):
        texts = ["r=2/3; delta=const(1)", "r=2/3; delta=geom(1,2)",
                 "r=7/2; delta=prefix(1,3); poly(2,1)",
                 "r=2/3; delta=periodic(2,5)", "r=2/3; delta=prefix(4); finite"]
        for text in texts:
            m = M(text)
            assert parse_monoid(format_monoid(m)) == m

    def test_whitespace_insensitive(self):
        assert M(" r = 2/3 ;  delta = geom( 1 , 2 ) ") == M("r=2/3;delta=geom(1,2)")

    @pytest.mark.parametrize("bad", [
        "delta=const(1)",                 # missing r
        "r=2/3",                          # missing delta
        "r=2/x; delta=const(1)",
        "r=0/3; delta=const(1)",
        "r=2/3; delta=const(0)",
        "r=2/3; delta=wave(1)",
        "r=2/3; delta=geom(1)",
        "r=2/3; delta=prefix(1) const(2)",
        "r=2/3; delta=prefix(1,2",
        "r=2/3; delta=const(1,2)",
        "r=2/3; delta=recurrence(2,3)",
        {"r": "2/3", "delta": [1]},
        {"r": "2/3", "delta": {"tail": {"geom": [1]}}},
        {"r": "2/3", "delta": {"tail": {"const": []}}},
        {"r": "2/3", "delta": {"tail": {"const": [1, 2]}}},
        {"r": "2/3", "delta": {"tail": {"geom": [1, 2, 3]}}},
        {"r": "2/3", "delta": {"tail": {"poly": "12"}}},
        {"r": "2/3", "delta": {"tail": {"const": True}}},
        {"r": "2/3", "delta": {"prefix": "12", "tail": {"const": 1}}},
        {"r": "2/3", "delta": {"tail": [1]}},
        # domain errors of the gap prefix and of the base, relayed as parse errors
        "r=2/3; delta=prefix(0);const(1)",
        {"r": "2/3", "delta": {"prefix": [0], "tail": {"const": 1}}},
        {"r": "0", "delta": {"tail": {"const": 1}}},
        # each field once, r first
        "r=2/3; delta=const(1); r=5/7",
        "delta=const(1); r=2/3",
        "r=2/3; prefix(1); delta=const(2)",
        "r=2/3; delta=prefix(1); delta=const(2)",
        "r=2/3;;delta=geom(1,2);",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            if isinstance(bad, str):
                parse_monoid(bad)
            else:
                monoid_from_json(bad)

    def test_json_form_matches_inline(self):
        doc = {"r": "2/3", "delta": {"prefix": [1, 3], "tail": {"const": 2}}}
        assert monoid_from_json(doc) == M("r=2/3; delta=prefix(1,3); const(2)")
        doc = {"r": "2/3", "delta": {"prefix": [], "tail": {"geom": [1, 2]}}}
        assert monoid_from_json(doc) == M("r=2/3; delta=geom(1,2)")
        doc = {"r": "2/3", "delta": {"prefix": [2], "tail": None}}
        assert monoid_from_json(doc) == M("r=2/3; delta=prefix(2); finite")
        with pytest.raises(ParseError):
            monoid_from_json({"r": "2/3"})

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            ExpMonoid(Ratio(0, 1), DeltaSpec((), Constant(1)))


def _positive_polynomial(coeffs):
    try:
        return Polynomial(tuple(coeffs))
    except DomainError:
        return None


TAIL_RULES = st.one_of(
    st.builds(Constant, st.integers(1, 50)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4)
    .map(_positive_polynomial).filter(lambda p: p is not None),
    st.builds(Geometric, st.integers(1, 50), st.integers(2, 9)),
    st.lists(st.integers(1, 9), min_size=1, max_size=5).map(lambda p: Periodic(tuple(p))),
    st.tuples(st.integers(2, 9), st.integers(1, 9), st.integers(1, 50))
    .map(lambda t: Recurrence(t[0], t[0] + t[1], t[2])),
)

MONOIDS = st.builds(
    lambda n, d, prefix, tail: ExpMonoid(Ratio(n, d), DeltaSpec(tuple(prefix), tail)),
    st.integers(1, 30), st.integers(1, 30),
    st.lists(st.integers(1, 9), max_size=4), st.none() | TAIL_RULES)


def json_document(m):
    tail = m.delta.tail
    return {"r": str(m.r),
            "delta": {"prefix": list(m.delta.prefix),
                      "tail": None if tail is None else {tail.name: list(tail.args)}}}


@settings(max_examples=200)
@given(MONOIDS)
def test_round_trip_every_family(m):
    assert parse_monoid(format_monoid(m)) == m
    assert monoid_from_json(json_document(m)) == m


SPEC_PIECES = ["r=", "2/3", "3", "1/0", ";", "delta=", "prefix(", "const(", "poly(",
               "geom(", "periodic(", "recurrence(", "finite", "wave(", "(", ")",
               ",", "1", "0", "-2", "7", "x", " "]
SPEC_TEXT = st.text(max_size=40) | st.lists(st.sampled_from(SPEC_PIECES), max_size=14).map("".join)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=10)
TAIL_NAMES = st.sampled_from(["const", "poly", "geom", "periodic", "recurrence", "finite", "wave"])
JSON_DOCS = JSON_VALUES | st.fixed_dictionaries({
    "r": st.sampled_from(["2/3", "3", "0", "1/0", "x"]) | JSON_VALUES,
    "delta": JSON_VALUES | st.fixed_dictionaries({
        "prefix": JSON_VALUES,
        "tail": JSON_VALUES | TAIL_NAMES | st.dictionaries(TAIL_NAMES, JSON_VALUES, max_size=2)})})


@settings(max_examples=300)
@given(SPEC_TEXT)
def test_inline_grammar_parses_or_raises_parse_error(text):
    try:
        parse_monoid(text)
    except ParseError:
        pass


@settings(max_examples=300)
@given(JSON_DOCS)
def test_json_form_parses_or_raises_parse_error(doc):
    try:
        monoid_from_json(doc)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# Closed-form exponents, the bit-length recurrence step and its memo
# ---------------------------------------------------------------------------

def _finite_safe(m, i, n):
    """Clamp i and n so that i + n stays inside a finite window."""
    window = m.delta.max_exponent_index
    if window is None:
        return i, n
    i = min(i, window)
    return i, min(n, window - i)


@settings(max_examples=150)
@given(MONOIDS, st.integers(0, 8))
def test_s_index_is_the_gap_sum(m, n):
    _, n = _finite_safe(m, 0, n)
    assert s_index(m, n) == sum(m.delta.delta(i) for i in range(n))


@settings(max_examples=150)
@given(MONOIDS, st.integers(0, 6), st.integers(0, 6))
# gaps near 10^6 by index 12: the recurrence step must not form 9^delta_k
@example(ExpMonoid(Ratio(1, 1), DeltaSpec((), Recurrence(2, 9, 3))), 6, 6)
def test_s_index_of_a_truncation(m, i, n):
    i, n = _finite_safe(m, i, n)
    assert s_index(truncate(m, i), n) == s_index(m, i + n) - s_index(m, i)


def _linear_step(a, b, d):
    target = b ** d
    m = 1
    while a ** (m + 1) < target:
        m += 1
    return m


@settings(max_examples=300)
@given(st.integers(2, 39).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 40))),
       st.integers(1, 300))
def test_recurrence_step_matches_linear_search(ab, d):
    a, b = ab
    assert Recurrence(a, b, 1).step(d) == _linear_step(a, b, d)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 39).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 40)))
       .flatmap(lambda ab: st.tuples(st.just(ab), st.integers(4096 // ab[1].bit_length() + 1,
                                                              16384 // ab[1].bit_length()))))
@example(((2, 3), 2049))  # the first d past the switch
@example(((39, 40), 16384 // 6))
def test_recurrence_step_past_the_4096_bit_switch(case):
    # past d * bits(b) > 4096 the powers that step compares run past the
    # switch of _at_least to log2 brackets; the step is the m with
    # a^m < b^d <= a^(m+1), bisected here on exact powers
    (a, b), d = case
    target = b ** d
    lo, hi = 0, target.bit_length()  # a^0 < b^d < 2^bits <= a^bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if a ** mid < target else (lo, mid)
    assume(a ** hi != target)  # the exact ties are pinned below
    assert Recurrence(a, b, 1).step(d) == lo


@pytest.mark.parametrize("a,b,d,expected", [
    (2, 4, 1, 1), (2, 4, 10 ** 6, 2 * 10 ** 6 - 1), (4, 8, 2, 2), (4, 8, 4, 5),
    (3, 9, 7, 13), (8, 16, 3, 3), (9, 27, 10 ** 5, 3 * 10 ** 5 // 2 - 1),
])
def test_recurrence_step_when_b_to_the_d_is_a_power_of_a(a, b, d, expected):
    # log_a(b^d) is an integer k here, so the step is exactly k - 1; the
    # brackets of a^k and b^d overlap, and _at_least forms both powers
    assert Recurrence(a, b, 1).step(d) == expected


@given(st.integers(1, 10 ** 6), st.integers(0, 12))
@example(1, 12)
@example(2 ** 19, 12)
@example(10 ** 6, 12)
def test_log2_bounds_bracket_the_power_exactly(x, p):
    lo, hi = _log2_bounds(x, p)
    assert 2 ** lo <= x ** (2 ** p) < 2 ** hi
    assert hi - lo <= 3


def _fraction_at_least(d, a, n, b):
    from fractions import Fraction
    return Fraction(d) ** a >= Fraction(n) ** b


@settings(max_examples=300)
@given(st.one_of(st.just(1), st.integers(2, 1000)), st.integers(-5000, 5000),
       st.one_of(st.just(1), st.integers(2, 1000)), st.integers(-5000, 5000))
@example(1, 5000, 7, 1)  # d = 1
@example(7, -1, 1, 5000)  # n = 1
@example(2, 4097, 3, 1)  # just past the switch on one side
@example(999, -4000, 1000, -3999)
def test_at_least_is_the_exact_comparison(d, a, n, b):
    # the sides' powers run from one bit to about 50 000, on both sides of
    # the 4096-bit switch to log2 brackets
    assert monoid._at_least(d, a, n, b) == _fraction_at_least(d, a, n, b)


@pytest.mark.parametrize("d,a,n,b", [
    (4, 3000, 8, 2000), (8, 2000, 4, 3000), (9, 4000, 3, 8000), (3, 8000, 9, 4000),
    (4, -3000, 8, -2000), (4, 2999, 8, 2000), (8, 1999, 4, 3000), (3, 8001, 9, 4000),
    (1, 10 ** 6, 1, 10 ** 7), (1, 5000, 2, 0), (1, -5000, 1, 3), (1, -5000, 2, -1)])
def test_at_least_on_ties_and_their_neighbours(d, a, n, b):
    # on a tie d^a = n^b the log2 brackets overlap and the powers are formed
    assert monoid._at_least(d, a, n, b) == _fraction_at_least(d, a, n, b)


def _fraction_rank(d, a, n, b):
    return _fraction_at_least(d, a, n, b) + _fraction_at_least(d, a + 1, n, b)


@settings(max_examples=300)
@given(st.one_of(st.just(1), st.integers(2, 1000)), st.integers(-5000, 5000),
       st.one_of(st.just(1), st.integers(2, 1000)), st.integers(-5000, 5000))
@example(1, 5000, 7, 1)  # d = 1: d^a = d^(a+1)
@example(2, 4095, 2, 4096)  # rank 1 on the power of two, just past the switch
@example(3, -1, 1, 5000)  # d^(a+1) = 1 = n^b
@example(999, -4000, 1000, -3999)
def test_rank_is_the_exact_count(d, a, n, b):
    # how many of d^a, d^(a+1) reach n^b, on both sides of the 4096-bit switch
    assert monoid._rank(d, a, n, b) == _fraction_rank(d, a, n, b)


@pytest.mark.parametrize("d,a,n,b", [
    (4, 2999, 8, 2000), (4, 3000, 8, 2000), (4, 2998, 8, 2000), (8, 1999, 4, 3000),
    (9, 3999, 3, 8000), (3, 7999, 9, 4000), (4, -3001, 8, -2000), (2, 12999, 8, 4333),
    (27, 7000, 9, 10500), (27, 6999, 9, 10500)])
def test_rank_on_ties_and_their_neighbours(d, a, n, b):
    # a tie at d^a or at d^(a+1) leaves that side's brackets overlapping
    assert monoid._rank(d, a, n, b) == _fraction_rank(d, a, n, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 39).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 40))),
       st.integers(1, 10 ** 40))
@example((2, 3), 10 ** 40)
@example((39, 40), 10 ** 40 - 1)
def test_recurrence_step_for_deep_gaps_matches_sympy(ab, d):
    # sympy's value of y = d log b / log a, to 100 digits, resolves 10^-50
    # for d up to 10^40; the step is floor(y) unless y is an integer
    sympy = pytest.importorskip("sympy")
    a, b = ab
    y = sympy.N(d * sympy.log(b) / sympy.log(a), 100)
    m, eps = int(sympy.floor(y)), sympy.Float("1e-50", 100)
    assume(eps < y - m < 1 - eps)
    assert Recurrence(a, b, 1).step(d) == m


@given(st.integers(2, 12).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 40))),
       st.integers(1, 12))
def test_a_recurrence_that_stalls_keeps_its_seed(ab, seed):
    # (b/a)^delta rises with delta: a recurrence that grows once never stalls
    rec = Recurrence(*ab, seed)
    gaps = [rec.delta(k) for k in range(8)]
    assert rec.stalls() == (gaps == [seed] * 8)
    assert rec.stalls() or gaps == sorted(set(gaps))


@pytest.mark.parametrize("text", [
    "r=2/3; delta=prefix(4,1,7); const(3)",
    "r=2/3; delta=prefix(2); poly(5,-4,1)",
    "r=2/3; delta=prefix(1,1); poly(1,0,0,2)",
    "r=2/3; delta=prefix(9); geom(3,2)",
    "r=2/3; delta=prefix(3,3); periodic(1,5,2)",
])
def test_s_index_evaluates_few_gaps(monkeypatch, text):
    m = M(text)
    calls = []
    for owner in (DeltaSpec, type(m.delta.tail)):
        original = owner.delta
        monkeypatch.setattr(owner, "delta",
                            lambda self, k, original=original: calls.append(k) or original(self, k))
    s_index(m, 10 ** 4)
    degree = len(getattr(m.delta.tail, "coeffs", (0,))) - 1
    assert len(calls) <= len(m.delta.prefix) + degree + 1


def test_recurrence_gaps_are_memoised(monkeypatch):
    calls = []
    original = Recurrence.step
    monkeypatch.setattr(Recurrence, "step", lambda self, d: calls.append(d) or original(self, d))
    rec = Recurrence(2, 3, 2)
    assert rec.delta(20) == rec.delta(20)
    assert len(calls) == 20
    assert rec.total(21) == sum(rec.delta(k) for k in range(21))
    assert len(calls) == 20


def test_recurrence_memo_is_invisible():
    used, fresh = Recurrence(2, 3, 2), Recurrence(2, 3, 2)
    used.delta(12)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert used.args == fresh.args == (2, 3, 2)
    assert repr(used) == repr(fresh)
    spec = DeltaSpec((5,), used)
    assert parse_delta(format_delta(spec)) == spec
    assert monoid_from_json(json_document(ExpMonoid(Ratio(2, 3), spec))).delta == spec


def _window_scan(coeffs):
    """The positivity check that evaluates p at every integer of its window."""
    window = 1 + max(abs(c) for c in coeffs) // coeffs[-1] + 1
    return all(sum(c * k ** i for i, c in enumerate(coeffs)) >= 1 for k in range(window + 1))


@settings(max_examples=400)
@given(st.lists(st.integers(-60, 60), max_size=5), st.integers(1, 60))
def test_positivity_check_matches_window_scan(low, lead):
    coeffs = (*low, lead)
    try:
        Polynomial(coeffs)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == _window_scan(coeffs)


def test_positivity_check_on_huge_coefficients():
    Polynomial((10 ** 12, 1))
    Polynomial((10 ** 12 + 1, -2 * 10 ** 6, 1))         # least value 1 at k = 10^6
    with pytest.raises(DomainError, match=r"p\(1000000\)"):
        Polynomial((10 ** 12, -2 * 10 ** 6, 1))         # (k - 10^6)^2
    with pytest.raises(DomainError):
        Polynomial((2, 1, -26, 13, 3))                  # 3k^4 + 13k^3 - 26k^2 + k + 2


# ---------------------------------------------------------------------------
# The shared descending scan
# ---------------------------------------------------------------------------

def _linear_run(m, k, scan):
    """Reference: test d^{delta_j} > n^{delta_{j+1}} at every j < scan, then look for k in a row."""
    n, d = m.r.num, m.r.den
    holds = [d ** m.delta.delta(j) > n ** m.delta.delta(j + 1) for j in range(scan)]
    for start in range(scan - k + 1):
        if all(holds[start:start + k]):
            return start, [d ** m.delta.delta(j) - n ** m.delta.delta(j + 1)
                           for j in range(start, start + k)]
    return None


# (tail rule, longest scan): fast-growing gaps keep the powers small only at low indices
RUN_TAILS = st.one_of(
    st.tuples(st.builds(Constant, st.integers(1, 6)), st.just(30)),
    st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
              .map(_positive_polynomial).filter(lambda p: p is not None), st.just(30)),
    st.tuples(st.lists(st.integers(1, 6), min_size=1, max_size=5)
              .map(lambda p: Periodic(tuple(p))), st.just(30)),
    st.tuples(st.builds(Geometric, st.integers(1, 3), st.integers(2, 3)), st.just(7)),
    st.tuples(st.tuples(st.integers(2, 5), st.integers(1, 3), st.integers(1, 4))
              .map(lambda t: Recurrence(t[0], t[0] + t[1], t[2])), st.just(7)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=4), RUN_TAILS, st.data())
def test_gaps_walk_what_delta_reads(prefix, tail_scan, data):
    # start falls inside the prefix, at its end or past it; prefix may be empty
    tail, longest = tail_scan
    spec = DeltaSpec(tuple(prefix), tail)
    start = data.draw(st.integers(0, len(prefix) + longest // 2))
    length = data.draw(st.integers(0, longest // 2 + 1))
    assert (list(islice(spec.gaps(start), length))
            == [spec.delta(i) for i in range(start, start + length)])


@given(st.lists(st.integers(1, 6), max_size=5), st.integers(0, 7))
def test_gaps_past_a_finite_window_raise_what_delta_raises(prefix, start):
    spec = DeltaSpec(tuple(prefix))
    walk = spec.gaps(start)
    assert list(islice(walk, max(len(prefix) - start, 0))) == list(prefix[start:])
    with pytest.raises(IndexRangeError) as walked:
        next(walk)
    with pytest.raises(IndexRangeError) as read:
        spec.delta(max(start, len(prefix)))
    assert str(walked.value) == str(read.value)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.lists(st.integers(1, 6), max_size=6),
       RUN_TAILS, st.integers(1, 5), st.data())
def test_descending_run_matches_a_linear_scan(n, d, prefix, tail_scan, k, data):
    tail, longest = tail_scan
    m = ExpMonoid(Ratio(n, d), DeltaSpec(tuple(prefix), tail))
    scan = data.draw(st.integers(0, longest + len(prefix)))
    assert descending_run(m, k, scan) == _linear_run(m, k, scan)


def test_descending_run_restarts_after_a_miss():
    # gaps 2, 1, 2, 1, 1, ...: c_0 = 3^2 - 2^1 = 7, c_1 = 3^1 - 2^2 < 0, c_2 = 7, c_3 = 1
    m = M("r=2/3; delta=prefix(2,1,2); const(1)")
    assert descending_run(m, 1, 10) == (0, [7])
    assert descending_run(m, 2, 10) == (2, [7, 1])
    assert descending_run(m, 2, 3) is None  # the run must end below scan


def _at_least(d, a, n, b):
    """d^a >= n^b, compared with the gcd of the exponents divided out."""
    g = gcd(a, b)
    return d ** (a // g) >= n ** (b // g)


@st.composite
def tails_and_bases(draw):
    tail = draw(st.one_of(
        st.builds(Constant, st.integers(1, 4)),
        st.builds(Geometric, st.integers(1, 2), st.integers(2, 3)),
        st.builds(Periodic, st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)),
        st.builds(Polynomial, st.tuples(st.integers(1, 3), st.integers(0, 2))),
        st.integers(2, 5).flatmap(lambda a: st.builds(
            Recurrence, st.just(a), st.integers(a + 1, 2 * a), st.integers(1, 3)))))
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    if isinstance(tail, Recurrence) and draw(st.booleans()):
        g = gcd(tail.a, tail.b)  # r = a/b in lowest terms
        n, d = tail.a // g, tail.b // g
    return tail, n, d


@settings(max_examples=400, deadline=None)
@given(tails_and_bases())
# a*d == b*n without (a, b) = g*(n, d): d^delta_k < n^delta_{k+1} at every k < 12
@example((Recurrence(2, 3, 2), 12, 18))
@example((Recurrence(2, 4, 2), 9, 18))
# equal logs: 4^3 = 8^2 and 9^3 = 27^2; 8^1 = 2^3 and 27^1 = 3^3
@example((Recurrence(4, 9, 2), 8, 27))
@example((Recurrence(8, 27, 1), 2, 3))
def test_shortfall_is_a_certificate(case):
    tail, n, d = case
    descent = tail.descent(n, d)
    direct = {_at_least(d, tail.delta(k), n, tail.delta(k + 1)) for k in range(12)}
    if descent is not None:
        assert direct == {descent}
    elif isinstance(tail, (Constant, Geometric, Periodic)):
        # every tail position repeats one of the first 12 comparisons
        assert direct == {True, False}
