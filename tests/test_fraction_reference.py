"""The exact sums of the library against a plain ``fractions.Fraction``
recomputation: ``evaluate``, ``series_partial_sums`` and the elements and
links of ``witness_chain``.

Each comparison is of (numerator, denominator) pairs, so a value that is
right but left unreduced fails as surely as a wrong one.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from puiseux.accp import classify, series_partial_sums, witness_chain
from puiseux.factorization import Factorization, evaluate
from puiseux.monoid import atom, descending_run, parse_monoid, s_index


def _pair(value):
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return value.num, value.den


def _r(M) -> Fraction:
    return Fraction(M.r.num, M.r.den)


def _exponents(M, top):
    """s_0, ..., s_top summed from the gaps one by one."""
    out = [0]
    for j in range(top):
        out.append(out[-1] + M.delta.delta(j))
    return out


def _value(M, coeffs) -> Fraction:
    s = _exponents(M, max(coeffs, default=0))
    return sum((c * _r(M) ** s[i] for i, c in coeffs.items()), Fraction(0))


# (delta, highest index): geometric gaps keep powers desk-sized only at low indices
FAMILIES = [("const(1)", 30), ("const(3)", 30), ("poly(1,1)", 25), ("poly(2,0,1)", 15),
            ("geom(1,2)", 9), ("periodic(2,1,3)", 30), ("prefix(2,1); const(1)", 30),
            ("prefix(1,4); geom(1,2)", 9), ("prefix(1,1,2); finite", 3), ("finite", 0)]


@st.composite
def monoids(draw, contracting=False):
    """Any r = n/d with n, d <= 12, r > 1 and d = 1 included, unless
    contracting asks for r < 1; with the highest index to use."""
    d = draw(st.integers(2 if contracting else 1, 12))
    n = draw(st.integers(1, d - 1 if contracting else 12))
    delta, top = draw(st.sampled_from(FAMILIES))
    return parse_monoid(f"r={n}/{d}; delta={delta}"), top


@st.composite
def factorizations(draw):
    """Up to four levels with coefficients that often share a prime with d;
    the empty factorization included."""
    M, top = draw(monoids())
    coeffs = draw(st.dictionaries(st.integers(0, top), st.integers(1, 10 ** 6), max_size=4))
    return Factorization.make(M, coeffs)


@settings(max_examples=400, deadline=None)
@given(factorizations())
@example(Factorization.make(parse_monoid("r=2/3; delta=const(1)"), {0: 3}))
@example(Factorization.make(parse_monoid("r=2/3; delta=const(1)"), {1: 3}))
@example(Factorization.make(parse_monoid("r=2/3; delta=const(1)"), {}))
@example(Factorization.make(parse_monoid("r=2/3; delta=const(1)"),  # past over_power's rounds
                           {0: 1, 30: 3 ** 40}))
def test_evaluate_matches_fraction(z):
    assert _pair(evaluate(z)) == _pair(_value(z.monoid, z.as_dict()))


@settings(max_examples=200, deadline=None)
@given(monoids(contracting=True), st.integers(1, 30))
@example((parse_monoid("r=2/3; delta=periodic(2,3)"), 30), 3)  # 2^2 - 1 = 3
@example((parse_monoid("r=1/3; delta=const(2)"), 30), 30)  # antimatter: each sum 0 over 3^{s_k}
def test_series_partial_sums_match_fraction(family, terms):
    M, top = family
    terms = min(terms, top) if M.delta.tail is None else min(terms, top + 1)
    assume(terms >= 1)
    s = _exponents(M, terms - 1)
    want, total = [], Fraction(0)
    for k in range(terms):
        total += (M.r.num ** M.delta.delta(k) - 1) * _r(M) ** s[k]
        want.append(_pair(total))
    assert [_pair(v) for v in series_partial_sums(M, terms)] == want


# non-ACCP families: bounded gaps, slowly growing gaps, and a geometric
# shortfall (d >= n^2), most with descending links from a low index on
CHAIN_FAMILIES = ["const(1)", "const(2)", "periodic(1,2)", "poly(1,1)",
                  "prefix(3,1); const(1)", "geom(1,2)"]


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 12).flatmap(lambda d: st.tuples(st.integers(2, d - 1), st.just(d))),
       st.sampled_from(CHAIN_FAMILIES), st.integers(1, 12))
@example((2, 9), "geom(1,2)", 3)
@example((2, 3), "prefix(3,1); const(1)", 12)
def test_witness_chain_matches_fraction(r, delta, k):
    n, d = r
    M = parse_monoid(f"r={n}/{d}; delta={delta}")
    # periodic(1,2) has a link only where d > n^2 as well as d^2 > n
    assume(M.r.num > 1 and classify(M).accp == "no" and descending_run(M, k, 64))
    chain = witness_chain(M, k)
    assert len(chain.elements) == k + 1 and len(chain.diffs) == k
    s = _exponents(M, chain.start + k)
    for offset, element in enumerate(chain.elements):
        m = chain.start + offset
        assert _pair(element) == _pair(M.r.num ** M.delta.delta(m) * _r(M) ** s[m])
    for offset, y in enumerate(chain.diffs):
        assert y.support == (chain.start + offset + 1,)
        value = _value(M, y.as_dict())
        assert value > 0
        x, z = (Fraction(*_pair(e)) for e in chain.elements[offset:offset + 2])
        assert x == z + value
    assert s[-1] == s_index(M, chain.start + k)


# deep-index's index range: even numerator, even denominator and both odd
DEEP_RATIOS = ["2/3", "3/4", "6/7", "5/8", "7/9"]
DEEP_DELTAS = ["const(1)", "periodic(2,3)", "prefix(2,1); const(1)"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DEEP_RATIOS), st.sampled_from(DEEP_DELTAS),
       st.dictionaries(st.integers(1000, 5000), st.integers(1, 60), min_size=1, max_size=3))
@example("5/8", "const(1)", {1000: 8, 5000: 1})  # c shares the prime 2 with d
@example("6/7", "periodic(2,3)", {4999: 49, 5000: 7})
def test_deep_atoms_and_values_match_fraction(r, delta, coeffs):
    M = parse_monoid(f"r={r}; delta={delta}")
    for i in coeffs:
        assert _pair(atom(M, i)) == _pair(_r(M) ** s_index(M, i))
    z = Factorization(M, tuple(sorted(coeffs.items())))
    assert _pair(evaluate(z)) == _pair(_value(M, coeffs))
