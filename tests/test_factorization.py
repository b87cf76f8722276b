import pytest
from hypothesis import given, settings, strategies as st

from puiseux.errors import DomainError, StepError
from puiseux.factorization import (Factorization, LengthSet, enumerate_all, evaluate,
                                   length_set, max_length_sweep,
                                   min_normal_form, rewrite_down_step,
                                   unique_factorization_check)
from puiseux.membership import is_member
from puiseux.monoid import DeltaSpec, parse_monoid
from puiseux.oracle import oracle_enumerate, oracle_lengths
from puiseux.ratio import Ratio

CONST = parse_monoid("r=2/3; delta=const(1)")
GEOM = parse_monoid("r=2/3; delta=geom(1,2)")


def F(M, coeffs):
    return Factorization.make(M, coeffs)


class TestEvaluate:
    def test_empty_is_zero(self):
        assert evaluate(F(CONST, {})) == Ratio(0)

    def test_level_zero(self):
        assert evaluate(F(CONST, {0: 2})) == Ratio(2)

    def test_mixed_levels(self):
        # 2/3 + 3*(4/9) = 2
        assert evaluate(F(CONST, {1: 1, 2: 3})) == Ratio(2)

    def test_zero_coefficients_dropped(self):
        assert F(CONST, {0: 1, 3: 0}).coeffs == ((0, 1),)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            F(CONST, {0: -1})


class TestRewriteDownStep:
    def test_basic_identity(self):
        # 3*(2/3) = 2*(2/3)^0
        assert rewrite_down_step(F(CONST, {1: 3}), 1).as_dict() == {0: 2}

    def test_partial_step(self):
        out = rewrite_down_step(F(CONST, {2: 9}), 2)
        assert out.as_dict() == {1: 2, 2: 6}
        assert evaluate(out) == Ratio(4)

    def test_inapplicable(self):
        with pytest.raises(StepError):
            rewrite_down_step(F(CONST, {1: 2}), 1)
        with pytest.raises(StepError):
            rewrite_down_step(F(CONST, {1: 3}), 0)

    def test_requires_contracting_base(self):
        big = parse_monoid("r=3/2; delta=const(1)")
        with pytest.raises(DomainError):
            rewrite_down_step(F(big, {1: 2}), 1)


class TestMinNormalForm:
    def test_single_step(self):
        nf = min_normal_form(F(CONST, {1: 3}))
        assert nf.as_dict() == {0: 2}
        assert nf.length == 2

    def test_cascade(self):
        nf = min_normal_form(F(CONST, {2: 9}))
        assert nf.as_dict() == {0: 4}
        assert nf.length == 4
        assert nf.length == min(oracle_lengths(Ratio(4), CONST, 2))

    def test_already_normal(self):
        z = F(CONST, {0: 2})
        assert min_normal_form(z) == z

    def test_idempotent(self):
        z = F(CONST, {1: 5, 3: 11})
        assert min_normal_form(min_normal_form(z)) == min_normal_form(z)

    def test_confluence_over_all_factorizations(self):
        zs = enumerate_all(Ratio(2), CONST, 3)
        forms = {min_normal_form(z) for z in zs}
        assert len(forms) == 1
        assert forms.pop().as_dict() == {0: 2}

    def test_normal_form_criterion_holds(self):
        for coeffs in ({1: 7}, {2: 13, 3: 4}, {0: 3, 4: 29}):
            nf = min_normal_form(F(CONST, coeffs))
            for i, c in nf.coeffs:
                if i >= 1:
                    assert c < 3 ** CONST.delta.delta(i - 1)


class TestMaxLengthSweep:
    def test_already_maximal(self):
        out = max_length_sweep(F(CONST, {0: 1}))
        assert out.terminated
        assert out.found.as_dict() == {0: 1}

    def test_geometric_terminates(self):
        out = max_length_sweep(F(GEOM, {0: 2}), 16)
        assert out.terminated
        assert out.found.as_dict() == {1: 3}
        assert out.found.length == 3

    def test_constant_never_terminates(self):
        out = max_length_sweep(F(CONST, {0: 2}), 64)
        assert not out.terminated
        assert out.found is None
        assert out.levels_explored == 64

    def test_found_satisfies_max_criterion(self):
        out = max_length_sweep(F(GEOM, {0: 5, 1: 2}), 32)
        assert out.terminated
        for i, c in out.found.coeffs:
            assert c < 2 ** GEOM.delta.delta(i)

    def test_found_length_matches_oracle(self):
        out = max_length_sweep(F(GEOM, {0: 2}), 16)
        top = out.found.top_index
        assert out.found.length == max(oracle_lengths(Ratio(2), GEOM, top))


class TestEnumerateAll:
    def test_known_answer(self):
        zs = enumerate_all(Ratio(2), CONST, 3)
        assert [z.as_dict() for z in zs] == [
            {0: 2}, {1: 1, 2: 1, 3: 3}, {1: 1, 2: 3}, {1: 3}]

    def test_zero(self):
        zs = enumerate_all(Ratio(0), CONST, 5)
        assert [z.as_dict() for z in zs] == [{}]

    def test_atom_is_uniquely_factored(self):
        zs = enumerate_all(Ratio(1), CONST, 4)
        assert [z.as_dict() for z in zs] == [{0: 1}]

    def test_non_member(self):
        assert enumerate_all(Ratio(1, 5), CONST, 4) == []

    def test_every_result_evaluates_back(self):
        for z in enumerate_all(Ratio(4, 3), CONST, 4):
            assert evaluate(z) == Ratio(4, 3)

    def test_deterministic_order(self):
        assert enumerate_all(Ratio(2), CONST, 3) == enumerate_all(Ratio(2), CONST, 3)

    def test_matches_oracle_on_small_grid(self):
        for p in range(1, 21):
            for q in (1, 3, 9):
                x = Ratio(p, q)
                fast = {tuple(z.as_dict().get(i, 0) for i in range(5))
                        for z in enumerate_all(x, CONST, 4)}
                assert fast == set(oracle_enumerate(x, CONST, 4)), str(x)

    def test_expanding_base_is_complete(self):
        big = parse_monoid("r=3/2; delta=const(1)")
        # 5/2 = (3/2) + 1; atoms above index 2 exceed 5/2
        zs = enumerate_all(Ratio(5, 2), big, 2)
        assert [z.as_dict() for z in zs] == [{0: 1, 1: 1}]


class TestUniqueCheck:
    def test_all_unit_coefficients(self):
        assert unique_factorization_check(F(CONST, {0: 1, 1: 1}))

    def test_failing_condition(self):
        assert not unique_factorization_check(F(CONST, {0: 2}))
        assert len(enumerate_all(Ratio(2), CONST, 3)) > 1

    def test_empty(self):
        assert unique_factorization_check(F(CONST, {}))


class TestLengthSet:
    def test_open_ended_lengths(self):
        ls = length_set(Ratio(2), CONST, 3)
        assert ls.lengths == (2, 3, 4, 5)
        assert ls.min_exact and not ls.max_exact

    def test_closed_lengths(self):
        ls = length_set(Ratio(2), GEOM, 2)
        assert ls.lengths == (2, 3)
        assert ls.min_exact and ls.max_exact

    def test_atom(self):
        ls = length_set(Ratio(1), GEOM, 3)
        assert ls.lengths == (1,)
        assert ls.min_exact and ls.max_exact

    def test_unresolved(self):
        with pytest.raises(DomainError):
            length_set(Ratio(1, 5), CONST, 3)

    def test_finite_window_sweep_stays_inside(self):
        fin = parse_monoid("r=2/3; delta=prefix(1,1,2); finite")
        out = max_length_sweep(F(fin, {0: 2}), 1)
        assert out.terminated
        assert out.found.top_index <= 3
        assert out.found.length == max(oracle_lengths(Ratio(2), fin, 3))

    @pytest.mark.parametrize("spec, x, max_index, flags", [
        # the window misses 9/2 = 2 * (9/4), of length 2
        ("r=3/2; delta=const(1)", Ratio(9, 2), 1, (False, False)),
        ("r=3/2; delta=const(1)", Ratio(9, 2), 2, (False, False)),
        # the next atom 81/16 exceeds 9/2: the enumeration is complete
        ("r=3/2; delta=const(1)", Ratio(9, 2), 3, (True, True)),
        # the sweep's length-3 factorization sits at index 1
        ("r=2/3; delta=geom(1,2)", Ratio(2), 0, (True, False)),
        ("r=2/3; delta=geom(1,2)", Ratio(2), 2, (True, True)),
        ("r=2/3; delta=const(1)", Ratio(2), 3, (True, False)),
        ("r=2/3; delta=prefix(1,1,2); finite", Ratio(2), 3, (True, True)),
        ("r=2/3; delta=prefix(1,1,2); finite", Ratio(2), 1, (True, False)),
        ("r=5/2; delta=prefix(1); finite", Ratio(7), 1, (True, True)),
        ("r=5/2; delta=prefix(1); finite", Ratio(7), 0, (False, False)),
        ("r=1; delta=const(1)", Ratio(3), 0, (True, True)),
    ])
    def test_flags_against_a_wider_oracle(self, spec, x, max_index, flags):
        M = parse_monoid(spec)
        ls = length_set(x, M, max_index, witness=is_member(x, M).witness)
        assert list(ls.lengths) == oracle_lengths(x, M, max_index)
        assert (ls.min_exact, ls.max_exact) == flags
        truth = oracle_lengths(x, M, max_index + 2)
        if ls.min_exact:
            assert ls.lengths[0] == truth[0]
        if ls.max_exact:
            assert ls.lengths[-1] == truth[-1]

    def test_no_flag_without_lengths(self):
        # the witness lies outside the window, which holds no factorization
        ls = length_set(Ratio(4, 9), CONST, 1, witness=F(CONST, {2: 1}))
        assert ls == LengthSet((), False, False)


# ---------------------------------------------------------------------------
# The one-pass normal form against the restart loop it replaced
# ---------------------------------------------------------------------------

def _restart_normal_form(z):
    """Reference: a bulk down-step at the largest applicable index, then restart."""
    M = z.monoid
    coeffs = z.as_dict()
    changed = True
    while changed:
        changed = False
        for i in sorted(coeffs, reverse=True):
            if i == 0:
                continue
            q, rem = divmod(coeffs[i], M.r.den ** M.delta.delta(i - 1))
            if q:
                coeffs[i] = rem
                coeffs[i - 1] = coeffs.get(i - 1, 0) + q * M.r.num ** M.delta.delta(i - 1)
                changed = True
                break
    return F(M, coeffs)


# (tail, highest index): geometric gaps keep d^{delta_i} small only at low indices
NORMAL_FORM_TAILS = [("const(1)", 40), ("const(2)", 40), ("poly(1,1)", 40),
                     ("poly(3,-2,1)", 30), ("geom(1,2)", 10), ("geom(2,3)", 6),
                     ("periodic(1,3,2)", 40), ("prefix(2,1,3); const(1)", 40),
                     ("prefix(1,4); geom(1,2)", 10), ("prefix(1,1,2); finite", 3)]


@st.composite
def contracting_factorizations(draw):
    d = draw(st.integers(2, 9))
    n = draw(st.integers(1, d - 1))
    tail, top = draw(st.sampled_from(NORMAL_FORM_TAILS))
    monoid = parse_monoid(f"r={n}/{d}; delta={tail}")
    support = draw(st.dictionaries(st.integers(0, top), st.integers(1, 10 ** 4), max_size=5))
    return F(monoid, support)


@settings(max_examples=200, deadline=None)
@given(contracting_factorizations())
def test_one_pass_matches_the_restart_loop(z):
    assert min_normal_form(z) == _restart_normal_form(z)


def test_normal_form_skips_empty_levels(monkeypatch):
    calls = []
    original = DeltaSpec.delta
    monkeypatch.setattr(DeltaSpec, "delta",
                        lambda self, k: calls.append(k) or original(self, k))
    assert min_normal_form(F(CONST, {5000: 1})) == F(CONST, {5000: 1})
    assert len(calls) <= 2


@pytest.mark.parametrize("step", [lambda z: rewrite_down_step(z, 1),
                                  min_normal_form, max_length_sweep],
                         ids=["rewrite_down_step", "min_normal_form", "max_length_sweep"])
def test_value_check_raises_without_assert(monkeypatch, step):
    # a wrong evaluate, one more on every call, must trip the explicit value
    # check, which unlike an assert also runs under python -O
    calls = iter(range(1, 100))
    monkeypatch.setattr("puiseux.factorization.evaluate", lambda z: Ratio(next(calls)))
    with pytest.raises(StepError, match="changed the value"):
        step(F(GEOM, {1: 3}))
