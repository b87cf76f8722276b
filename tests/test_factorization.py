import copy
import pickle
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from puiseux import factorization as fz
from puiseux.accp import Classification, WitnessChain, classify, witness_chain
from puiseux.errors import DomainError, IndexRangeError, StepError
from puiseux.factorization import (Factorization, LengthSet, MaxLengthOutcome, enumerate_all,
                                   evaluate, length_set, max_length_sweep,
                                   min_normal_form, rewrite_down_step,
                                   unique_factorization_check)
from puiseux.membership import MembershipResult, _complete_index, is_member
from puiseux.monoid import (AtomicityVerdict, Constant, DeltaSpec, ExpMonoid, Geometric,
                            Periodic, Polynomial, Recurrence, classify_atomicity,
                            parse_monoid, s_index)
from puiseux.oracle import oracle_enumerate, oracle_lengths
from puiseux.ratio import ZERO, Ratio
from puiseux.semiring import (MultVerdict, NumericalMonoidSpec, PrefixCofinite,
                              classify_mult, parse_exponent_set)

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

    @pytest.mark.parametrize("text,c", [
        ("r=2/3; delta=periodic(2,3)", 3),
        # the coefficients up to 50 with the most factors of d = 3 and d = 4
        ("r=2/3; delta=periodic(2,3)", 27),
        ("r=3/4; delta=prefix(2,1);const(1)", 32),
    ])
    def test_a_deep_value_takes_no_gcd_of_two_long_integers(self, long_gcds, text, c):
        # c r^{s_5000} = n^s / (d^s / c): c is divided out against d alone
        monoid = parse_monoid(text)
        value = evaluate(F(monoid, {5000: c}))
        assert long_gcds == []
        s, n, d = s_index(monoid, 5000), monoid.r.num, monoid.r.den
        assert (value.num, value.den) == (n ** s, d ** s // c)


class TestValue:
    """A Factorization is an immutable slotted value with a frozen dataclass's
    equality, hash and repr."""

    def test_equality(self):
        z = F(CONST, {0: 8, 4: 1, 5: 2})
        assert z == Factorization(CONST, ((0, 8), (4, 1), (5, 2)))
        assert z != F(CONST, {0: 8, 4: 1, 5: 1})
        assert z != F(GEOM, z.coeffs)  # the same pairs on another monoid
        assert z != z.coeffs and z.coeffs != z

    def test_equal_values_hash_equal(self):
        z, twin = F(CONST, {1: 3, 0: 2}), Factorization(CONST, ((0, 2), (1, 3)))
        assert z is not twin and hash(z) == hash(twin)
        assert len({z, twin, F(GEOM, z.coeffs)}) == 2

    def test_repr_is_the_dataclass_text(self):
        assert repr(F(CONST, {0: 8, 4: 1})) == (
            "Factorization(monoid=ExpMonoid(r=Ratio(2, 3), delta=DeltaSpec(prefix=(), "
            "tail=Constant(value=1))), coeffs=((0, 8), (4, 1)))")

    def test_repr_past_the_int_str_cap_prints_the_int_in_hex(self):
        # an int field, or one inside a tuple field, past the cap would make
        # a plain repr raise; below the cap the text is the dataclass text
        z = Factorization(CONST, ((0, 10 ** 5000),))
        assert repr(z) == (
            "Factorization(monoid=ExpMonoid(r=Ratio(2, 3), delta=DeltaSpec(prefix=(), "
            f"tail=Constant(value=1))), coeffs=((0, {hex(10 ** 5000)}),))")
        names = {"Factorization": Factorization, "ExpMonoid": ExpMonoid, "Ratio": Ratio,
                 "DeltaSpec": DeltaSpec, "Constant": Constant}
        assert eval(repr(z), names) == z
        assert repr(Constant(10 ** 5000)) == f"Constant(value={hex(10 ** 5000)})"

    @pytest.mark.parametrize("field", ["monoid", "coeffs", "other"])
    def test_immutable(self, field):
        z = F(CONST, {0: 2})
        with pytest.raises(AttributeError):
            setattr(z, field, ())
        with pytest.raises(AttributeError):
            delattr(z, field)
        assert z == F(CONST, {0: 2})

    def test_no_instance_dict(self):
        assert not hasattr(F(CONST, {0: 2}), "__dict__")

    def test_enumeration_wraps_the_search_results(self):
        x = Ratio(2056, 243)  # the tail query of factor-mix
        zs = enumerate_all(x, CONST, 5)
        found = [z.coeffs for z in zs]
        assert len(found) == 1712 and found == sorted(set(found))
        assert all(type(z) is Factorization and evaluate(z) == x for z in zs)


def _filled_recurrence():
    M = parse_monoid("r=2/3; delta=recurrence(2,3,1)")
    s_index(M, 12)
    assert len(M.delta.tail._memo) > 1
    return M


ROUND_TRIP = {
    "ratio": Ratio(2, 3), "zero": Ratio(0), "const": CONST, "geom": GEOM,
    "poly": parse_monoid("r=2/3; delta=poly(1,1)"),
    "periodic": parse_monoid("r=3/4; delta=periodic(1,2)"),
    "recurrence": parse_monoid("r=2/3; delta=recurrence(2,3,1)"),
    "recurrence-memo": _filled_recurrence(),
    "finite": parse_monoid("r=2/3; delta=prefix(1,1,2);finite"),
    "factorization": F(CONST, {0: 8, 4: 1, 5: 2}),
    "membership": is_member(Ratio(4, 3), CONST, 4),
}


@pytest.mark.parametrize("value", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
def test_copy_deepcopy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
    if isinstance(value, MembershipResult):
        assert value.witness is not None
    if isinstance(value, ExpMonoid):
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            tail = twin.delta.tail
            if hasattr(tail, "_memo"):  # the constructor's memo, not the original's
                assert tail._memo == [tail.seed]
            top = value.delta.max_exponent_index or 15
            assert [s_index(twin, i) for i in range(top + 1)] == [
                s_index(value, i) for i in range(top + 1)]


_MONOID_TEXT = "ExpMonoid(r=Ratio(2, 3), delta=DeltaSpec(prefix=(), tail=Constant(value=1)))"

# one value of every spec and result class with its repr, pinned to the
# Name(field=value, ...) text of a frozen dataclass
VALUES = {
    Constant: (Constant(1), "Constant(value=1)"),
    Polynomial: (Polynomial((1, 0, 1)), "Polynomial(coeffs=(1, 0, 1))"),
    Geometric: (Geometric(1, 2), "Geometric(scale=1, ratio=2)"),
    Periodic: (Periodic((1, 2)), "Periodic(pattern=(1, 2))"),
    Recurrence: (Recurrence(2, 3, 2), "Recurrence(a=2, b=3, seed=2)"),
    DeltaSpec: (parse_monoid("r=2/3; delta=prefix(2);poly(1,1)").delta,
                "DeltaSpec(prefix=(2,), tail=Polynomial(coeffs=(1, 1)))"),
    ExpMonoid: (CONST, _MONOID_TEXT),
    AtomicityVerdict: (classify_atomicity(CONST),
                       "AtomicityVerdict(kind='atomic', atoms='{r^s_n : n >= 0}')"),
    MaxLengthOutcome: (max_length_sweep(F(CONST, {0: 5})),
                       "MaxLengthOutcome(found=None, levels_explored=64)"),
    LengthSet: (length_set(Ratio(2), CONST, 3),
                "LengthSet(lengths=(2, 3, 4, 5), min_exact=True, max_exact=False)"),
    MembershipResult: (is_member(Ratio(4, 3), CONST, 4), (
        f"MembershipResult(status='member', witness=Factorization(monoid={_MONOID_TEXT}, "
        "coeffs=((1, 2),)), reason=None, bound=None)")),
    Classification: (classify(CONST), (
        "Classification(atomicity=AtomicityVerdict(kind='atomic', atoms='{r^s_n : n >= 0}'), "
        "accp='no', evidence={'rule': 'bounded-delta', 'instance': 'delta_n=1 eventually'})")),
    WitnessChain: (witness_chain(CONST, 1), (
        "WitnessChain(start=0, elements=(Ratio(2, 1), Ratio(4, 3)), diffs=(Factorization("
        f"monoid={_MONOID_TEXT}, coeffs=((1, 1),)),))")),
    NumericalMonoidSpec: (NumericalMonoidSpec.make((5, 3)),
                          "NumericalMonoidSpec(generators=(3, 5))"),
    PrefixCofinite: (parse_exponent_set("prefix(0,1);tail>=5"),
                     "PrefixCofinite(prefix=(0, 1), threshold=5)"),
    MultVerdict: (classify_mult(Ratio(2, 3)), (
        "MultVerdict(accp='yes', bfp='unknown', ffp='unknown', evidence={'rule': "
        "'prime-power-denominator', 'instance': 'd(r)=3=3^1'})")),
    Factorization: (F(CONST, {0: 1, 2: 3}),
                    f"Factorization(monoid={_MONOID_TEXT}, coeffs=((0, 1), (2, 3)))"),
}


# the classes whose fields only the base constructor stores, in order
BASE_BUILT = (AtomicityVerdict, MaxLengthOutcome, LengthSet, Classification, WitnessChain,
              NumericalMonoidSpec, PrefixCofinite, MultVerdict)


@pytest.mark.parametrize("value, text", VALUES.values(), ids=[c.__name__ for c in VALUES])
def test_every_value_class_keeps_the_frozen_dataclass_contract(value, text):
    assert repr(value) == text
    assert not hasattr(value, "__dict__")
    first = text[text.index("(") + 1:text.index("=")]  # the first field's name
    for name in (first, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    twins = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    for twin in twins:
        assert type(twin) is type(value) and twin == value and repr(twin) == text
    if isinstance(value, BASE_BUILT):  # one field too few or too many
        fields = value._astuple()
        for wrong in (fields[:-1], fields + (None,)):
            with pytest.raises(TypeError, match=type(value).__name__):
                type(value)(*wrong)
    if isinstance(value, (Classification, MultVerdict)):
        with pytest.raises(TypeError):  # the evidence dict is unhashable
            hash(value)
    else:
        assert {hash(twin) for twin in twins} == {hash(value)}


def test_equality_needs_one_class_and_the_hash_is_the_field_tuple():
    assert Periodic((1, 2)) != Polynomial((1, 2))
    assert Constant(1) != (1,) and (1,) != Constant(1)
    assert Constant(1) == Constant(1) and Constant(1) != Constant(2)
    assert hash(Constant(1)) == hash((1,))
    assert hash(Geometric(1, 2)) == hash((1, 2))
    z = F(CONST, {0: 1})
    assert hash(z) == hash((CONST, ((0, 1),)))


# each public constructor with one argument in a place that an int fills
NON_INTEGER_ARGUMENT = {
    "Constant": lambda v: Constant(v),
    "Polynomial": lambda v: Polynomial((v, 1)),
    "Geometric": lambda v: Geometric(v, 2),
    "Periodic": lambda v: Periodic((v, 2)),
    "Recurrence": lambda v: Recurrence(2, 3, v),
    "DeltaSpec": lambda v: DeltaSpec((v,)),
    "NumericalMonoidSpec.make": lambda v: NumericalMonoidSpec.make((v, 3)),
    "PrefixCofinite.make-prefix": lambda v: PrefixCofinite.make((v,), 3),
    "PrefixCofinite.make-threshold": lambda v: PrefixCofinite.make((0,), v),
    "Factorization.make-index": lambda v: Factorization.make(CONST, [(v, 2)]),
    "Factorization.make-coeff": lambda v: Factorization.make(CONST, [(1, v)]),
}


@pytest.mark.parametrize("value", [1.5, Fraction(3, 2), True], ids=["float", "Fraction", "bool"])
@pytest.mark.parametrize("build", NON_INTEGER_ARGUMENT.values(), ids=NON_INTEGER_ARGUMENT.keys())
def test_constructors_refuse_what_is_not_an_int(build, value):
    # a float or Fraction is neither truncated nor stored, and a bool is no integer
    with pytest.raises(TypeError, match="must be integers$"):
        build(value)
    build(2)


def test_caches_stay_out_of_equality_hash_and_repr():
    fresh, used = Recurrence(2, 3, 1), Recurrence(2, 3, 1)
    used.delta(12)
    assert len(used._memo) > len(fresh._memo)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert Polynomial((1, 1)) == Polynomial((1, 1, 0)) and Polynomial((1, 1))._newton == (1, 1)


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

    def test_the_top_of_a_finite_window_keeps_its_carry(self):
        # 3 = 1 + 3 * (2/3): the carry lands on level 1, the window's top,
        # which has no gap above it to split by
        fin = parse_monoid("r=2/3; delta=prefix(1); finite")
        out = max_length_sweep(F(fin, {0: 3}))
        assert out.found == F(fin, {0: 1, 1: 3})
        assert oracle_lengths(Ratio(3), fin, 1) == [3, 4]

    def test_a_z_past_the_window_names_its_index(self):
        fin = parse_monoid("r=2/3; delta=prefix(1,1,1); finite")
        with pytest.raises(IndexRangeError, match="^exponent index 5 beyond finite window 3$"):
            max_length_sweep(F(fin, {0: 1, 5: 1}))

    def test_z_is_evaluated_only_for_a_result(self, monkeypatch):
        calls = []
        monkeypatch.setattr("puiseux.factorization.evaluate",
                            lambda z: calls.append(z) or evaluate(z))
        assert not max_length_sweep(F(CONST, {0: 2})).terminated
        assert calls == []
        out = max_length_sweep(F(GEOM, {0: 2}), 16)
        assert calls == [F(GEOM, {0: 2}), out.found]


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
        # 1/5 is no member (5 does not divide a power of 3): the error says
        # only what the window shows, with B cut to a finite window's end
        with pytest.raises(DomainError, match=r"^no factorization with support in \[0, 3\]$"):
            length_set(Ratio(1, 5), CONST, 3)
        fin = parse_monoid("r=2/3; delta=prefix(1,1,2); finite")
        with pytest.raises(DomainError, match=r"^no factorization with support in \[0, 3\]$"):
            length_set(Ratio(1, 3), fin, 7)

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


# ---------------------------------------------------------------------------
# One search behind enumerate_all, length_set and complete membership,
# against the materialising versions it replaced
# ---------------------------------------------------------------------------

def _ref_enumerate_all(x, M, max_index, limit=None):
    """Reference: a dict per result, each made into a Factorization, then sorted."""
    if max_index < 0:
        raise DomainError("max_index must be >= 0")
    if limit is not None and limit < 1:
        raise DomainError("limit must be >= 1")
    window = M.delta.max_exponent_index
    B = max_index if window is None else min(max_index, window)
    if x == ZERO:
        return [F(M, {})]
    n, d = M.r.num, M.r.den
    s = [s_index(M, i) for i in range(B + 1)]
    D = d ** s[B]
    if D % x.den != 0:
        return []
    target = x.num * (D // x.den)
    n_pow = [n ** e for e in s]
    w = [n_pow[i] * d ** (s[B] - s[i]) for i in range(B + 1)]
    mod = [n_pow[i + 1] // n_pow[i] for i in range(B)]
    inv = [pow(pow(d, s[B] - s[i], mod[i]), -1, mod[i]) for i in range(B)]

    def choices(i, rem):
        start = rem // n_pow[i] * inv[i] % mod[i]
        return range(start, rem // w[i] + 1, mod[i])

    results, coeffs = [], {}
    stack = [(target, iter(choices(0, target) if B else (0,)))]
    while stack:
        i = len(stack) - 1
        rem, todo = stack[-1]
        c = next(todo, None)
        if c is None:
            stack.pop()
            coeffs.pop(i, None)
            continue
        if c:
            coeffs[i] = c
        else:
            coeffs.pop(i, None)
        rest = rem - c * w[i]
        if i + 1 < B:
            stack.append((rest, iter(choices(i + 1, rest))))
            continue
        q, leftover = divmod(rest, w[B])
        if leftover == 0:
            results.append({**coeffs, B: q} if q else dict(coeffs))
            if limit is not None and len(results) >= limit:
                break
    out = [F(M, cc) for cc in results]
    out.sort(key=lambda z: z.coeffs)
    return out


def _ref_length_set(x, M, max_index, witness=None):
    """Reference: lengths and the fallback witness read off the made list."""
    zs = _ref_enumerate_all(x, M, max_index)
    if not zs and witness is None:
        window = M.delta.max_exponent_index
        B = max_index if window is None else min(max_index, window)
        raise DomainError(f"no factorization with support in [0, {B}]")
    lengths = tuple(sorted({z.length for z in zs}))
    if not lengths:
        return LengthSet(lengths, False, False)
    if M.r >= Ratio(1):
        window = M.delta.max_exponent_index
        complete = (M.r == Ratio(1) or (window is not None and max_index >= window)
                    or M.r ** s_index(M, max_index + 1) > x)
        return LengthSet(lengths, complete, complete)
    sweep = max_length_sweep(witness if witness is not None else zs[0])
    return LengthSet(lengths, True, sweep.terminated and sweep.found.length == lengths[-1])


def _foreign_prime(q_den, r_den):
    """Reference: True when some prime of q_den does not divide r_den."""
    g = q_den
    while g > 1:
        t = gcd(g, r_den)
        if t == 1:
            return True
        while g % t == 0:
            g //= t
    return False


def _ref_is_member(q, M, support_bound=None):
    """Reference: the complete branch takes min(zs, key=length) over the made list."""
    if q == ZERO:
        return MembershipResult("member", F(M, {}))
    if _foreign_prime(q.den, M.r.den):
        return MembershipResult(
            "not-member", reason=f"a prime of d(x)={q.den} does not divide d(r)={M.r.den}")
    finite = M.delta.tail is None
    if M.r >= Ratio(1) or finite:
        if finite:
            bound = M.delta.max_exponent_index
        elif M.r == Ratio(1):
            bound = 0
        else:
            bound = 0
            while M.r ** s_index(M, bound) <= q:
                bound += 1
        zs = _ref_enumerate_all(q, M, bound)
        if zs:
            return MembershipResult("member", min(zs, key=lambda z: z.length))
        return MembershipResult(
            "not-member", reason=f"exhausted complete search up to support {bound}")
    bound = support_bound if support_bound is not None else _ref_support_bound(q, M)
    zs = _ref_enumerate_all(q, M, bound, limit=1)
    if zs:
        return MembershipResult("member", min_normal_form(zs[0]))
    return MembershipResult("unresolved", bound=bound)


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except DomainError as exc:
        return type(exc), str(exc)


# the seven families of the factor-mix benchmark workload
FACTOR_MIX = [parse_monoid(text) for text in (
    "r=2/3; delta=const(1)", "r=2/3; delta=geom(1,2)", "r=2/3; delta=poly(1,1)",
    "r=3/4; delta=periodic(1,2)", "r=3/4; delta=prefix(2,1);const(1)",
    "r=3/2; delta=const(1)", "r=2/3; delta=prefix(1,1,2);finite")]
FINITE = FACTOR_MIX[-1]


@st.composite
def search_queries(draw):
    """(x, M, B): x a few atoms at indices up to B + 1, plus an optional
    offset that may leave the monoid or bring in a foreign prime."""
    M = draw(st.sampled_from(FACTOR_MIX))
    B = draw(st.integers(0, 5))
    window = M.delta.max_exponent_index
    top = B + 1 if window is None else min(B + 1, window)
    support = draw(st.dictionaries(st.integers(0, top), st.integers(1, 3), max_size=3))
    offset = draw(st.sampled_from([ZERO, ZERO, Ratio(1, M.r.den), Ratio(1, 5)]))
    return evaluate(F(M, support)) + offset, M, B


@settings(max_examples=150, deadline=None)
@given(search_queries())
def test_one_search_matches_the_materialising_versions(query):
    x, M, B = query
    zs = enumerate_all(x, M, B)
    assert zs == _ref_enumerate_all(x, M, B)
    for z in zs:
        assert z == Factorization.make(M, z.coeffs)
    res = is_member(x, M)
    assert res == _ref_is_member(x, M)
    assert is_member(x, M, B) == _ref_is_member(x, M, B)
    if res.witness is not None:
        assert res.witness == Factorization.make(M, res.witness.coeffs)
    for witness in (None, res.witness):
        assert (_outcome(length_set, x, M, B, witness)
                == _outcome(_ref_length_set, x, M, B, witness))


# r < 1 tails that factor-mix lacks, for the max_exact rule: recurrences
# with and without gap growth, a quadratic, a fast geometric, a periodic
# tail of three, a prefix on a wider constant, and a finite window of 3
FLAG_TAILS = [parse_monoid(text) for text in (
    "r=2/3; delta=recurrence(2,3,2)", "r=2/3; delta=recurrence(2,5,2)",
    "r=5/7; delta=poly(2,0,1)", "r=2/7; delta=geom(1,3)", "r=3/5; delta=periodic(2,1,3)",
    "r=4/7; delta=prefix(2);const(2)", "r=2/3; delta=prefix(1,1,2);finite")]


@st.composite
def flag_queries(draw):
    """(x, M, B), B from 0 to 5: x a whole part up to 8 plus up to two atoms
    at indices up to B, or now and then B + 1, and now and then off the
    monoid by 1/d(r) or 1/5, with the oracle's volume at most 2 * 10^4."""
    M = draw(st.sampled_from(FLAG_TAILS))
    B = draw(st.integers(0, 5))
    window = M.delta.max_exponent_index
    top = draw(st.sampled_from([B, B, B, B + 1]))
    top = top if window is None else min(top, window)
    support = draw(st.dictionaries(st.integers(0, top), st.integers(1, 2), max_size=2))
    offset = draw(st.sampled_from([ZERO] * 4 + [Ratio(1, M.r.den), Ratio(1, 5)]))
    x = Ratio(draw(st.integers(0, 8))) + evaluate(F(M, support)) + offset
    assume(_oracle_volume(x, M, B) <= 2 * 10 ** 4)
    return x, M, B


@settings(max_examples=200, deadline=None)
@given(flag_queries())
@example((Ratio(5) + Ratio(4, 9), FLAG_TAILS[-1], 2))  # below the window's end
@example((Ratio(5) + Ratio(4, 9), FLAG_TAILS[-1], 3))  # at it
def test_length_set_flags_match_the_sweep_on_more_tails(query):
    # both flags come off the one search; the reference sweeps from a witness
    x, M, B = query
    for witness in (None, is_member(x, M).witness):
        assert (_outcome(length_set, x, M, B, witness)
                == _outcome(_ref_length_set, x, M, B, witness))


# r > 1: each tail family with and without a prefix, and finite windows
EXPANDING = [parse_monoid(text) for text in (
    "r=3/2; delta=const(1)", "r=5/3; delta=geom(1,2)", "r=3/2; delta=periodic(1,2)",
    "r=4/3; delta=poly(1,1)", "r=5/2; delta=recurrence(2,3,2)",
    "r=3/2; delta=prefix(2,1);const(2)", "r=5/3; delta=prefix(1);geom(2,2)",
    "r=7/4; delta=prefix(3);periodic(2,1)", "r=3/2; delta=prefix(1,2);poly(2,1)",
    "r=2/1; delta=prefix(1);recurrence(3,5,1)",
    "r=3/2; delta=prefix(1,1,2);finite", "r=2/1; delta=prefix(2,1);finite")]


def _complete_bound(x, M):
    """Reference: the window's end, or the first n with r^{s_n} > x."""
    if M.delta.tail is None:
        return M.delta.max_exponent_index
    n = 0
    while M.r ** s_index(M, n) <= x:
        n += 1
    return n


@st.composite
def expanding_queries(draw):
    """(x, M): a few atoms inside the window, plus an offset that may leave M."""
    M = draw(st.sampled_from(EXPANDING))
    window = M.delta.max_exponent_index
    top = 3 if window is None else window
    support = draw(st.dictionaries(st.integers(0, top), st.integers(1, 4), max_size=3))
    offset = draw(st.sampled_from([ZERO, ZERO, Ratio(1), Ratio(1, M.r.den)]))
    return evaluate(F(M, support)) + offset, M


@settings(max_examples=200, deadline=None)
@given(expanding_queries())
def test_expanding_witnesses_are_the_least_complete_factorization(query):
    # up-steps shorten when r > 1, so the least length is unique and the
    # walk reads it off
    x, M = query
    bound = _complete_bound(x, M)
    zs = _ref_enumerate_all(x, M, bound)
    res = is_member(x, M)
    if not zs:
        assert res == MembershipResult(
            "not-member", reason=f"exhausted complete search up to support {bound}")
        return
    assert res.status == "member"
    assert res.witness == min(zs, key=lambda z: (z.length, z.coeffs))


def test_expanding_sweep_reaches_the_complete_bound():
    # x = 1 + r^{s_66} on periodic(1,2), r = 101/100, is complete only at
    # index 88, past the default level bound 64 of the carry sweep
    M = parse_monoid("r=101/100; delta=periodic(1,2)")
    x = Ratio(1) + M.r ** s_index(M, 66)
    assert _complete_bound(x, M) == 88
    assert is_member(x, M).witness.as_pairs() == [[0, 1], [66, 1]]


def test_the_search_makes_no_factorization_per_result(monkeypatch):
    tail_query = F(CONST, {0: 8, 4: 1, 5: 2})  # the tail query of factor-mix
    x, least = evaluate(tail_query), min_normal_form(tail_query).length
    calls = []
    make = Factorization.make.__func__
    monkeypatch.setattr(Factorization, "make", classmethod(
        lambda cls, M, coeffs: calls.append(coeffs) or make(cls, M, coeffs)))
    assert x == Ratio(2056, 243)
    assert len(enumerate_all(x, CONST, 5)) == 1712
    assert length_set(x, CONST, 5).lengths[0] == least
    assert is_member(Ratio(12), FINITE).is_member
    assert calls == []


def _counted_walk(monkeypatch):
    """Patch `_leaves` to record every leaf it yields and every R its run
    resolves, with the run it resolves to; returns (leaves, resolved)."""
    walk, leaves, resolved = fz._leaves, [], []

    def counted(*args):
        run, found = walk(*args)
        return ((lambda R: resolved.append((R, run(R))) or resolved[-1][1]),
                (leaves.append(leaf) or leaf for leaf in found))

    monkeypatch.setattr(fz, "_leaves", counted)
    return leaves, resolved


def test_the_search_builds_each_tail_once_per_call(monkeypatch):
    tail_query = F(CONST, {0: 8, 4: 1, 5: 2})  # the tail query of factor-mix
    x = evaluate(tail_query)
    leaves, resolved = _counted_walk(monkeypatch)
    expand, built, made = fz._expand, [], []
    monkeypatch.setattr(fz, "_expand", lambda *args: built.append(args) or expand(*args))
    make = Factorization.make.__func__
    monkeypatch.setattr(Factorization, "make", classmethod(
        lambda cls, M, coeffs: made.append(coeffs) or make(cls, M, coeffs)))
    found = enumerate_all(x, CONST, 5)
    assert (len(built), len(leaves), len(found)) == (14, 307, 1712)
    # one run resolved and one tail built per distinct remainder
    assert len({R for _, R in leaves}) == len(resolved) == 14
    assert built == [run for _, run in resolved]
    assert made == []
    # the heads share the pair tuples at levels 4 and 5 of the 14 tails
    tails = [expand(*args) for args in built]
    assert (len({id(p) for z in found for p in z.coeffs if p[0] >= 4})
            == sum(len(t) for tail in tails for t in tail))
    # the memo dies with the call: a second call builds its tails again
    built.clear()
    assert enumerate_all(x, CONST, 5) == found and len(built) == 14


def _run_shapes(x, M, B):
    """Which shapes of run the leaves of `_leaves` resolve to for (x, M, B)."""
    heads, shapes = {}, set()
    run, leaves = fz._leaves(x, M, B)
    for head, R in leaves:
        _, c, q, k, m, e = run(R)
        heads.setdefault((c, q), set()).add(head)
        if q == (k - 1) * e:
            shapes.add("ends at q = 0")
    if any(c == 0 and len(h) > 1 for (c, _), h in heads.items()):
        shapes.add("c = 0 key under two heads")
    return shapes


@pytest.mark.parametrize("text,x,B,shapes", [
    ("r=2/3; delta=const(1)", Ratio(2), 1, {"ends at q = 0"}),  # no level below B - 1
    ("r=2/3; delta=const(1)", Ratio(2), 0, set()),
    ("r=2/3; delta=const(1)", Ratio(10, 3), 3, {"ends at q = 0", "c = 0 key under two heads"}),
    ("r=2/3; delta=const(1)", Ratio(2056, 243), 5, {"c = 0 key under two heads"}),
    ("r=2/3; delta=const(1)", ZERO, 0, {"ends at q = 0"}),
    ("r=2/3; delta=const(1)", ZERO, 3, {"ends at q = 0"}),
    ("r=2/3; delta=geom(1,2)", Ratio(3), 3, {"ends at q = 0", "c = 0 key under two heads"}),
    # the window of three gaps cuts B = 5 to 3
    ("r=2/3; delta=prefix(1,1,2);finite", Ratio(12), 5,
     {"ends at q = 0", "c = 0 key under two heads"}),
    ("r=3/2; delta=const(1)", Ratio(9), 3, {"ends at q = 0", "c = 0 key under two heads"}),
    ("r=3/2; delta=const(1)", Ratio(21, 4), 3, {"ends at q = 0"}),
], ids=["B1", "B0", "small", "tail-query", "zero-B0", "zero-B3", "geom", "window",
        "expanding", "expanding-B3"])
def test_shared_tails_match_the_reference_and_ascend(text, x, B, shapes):
    M = parse_monoid(text)
    assert _run_shapes(x, M, B) == shapes
    found = enumerate_all(x, M, B)
    assert found == _ref_enumerate_all(x, M, B)
    coeffs = [z.coeffs for z in found]
    assert all(a < b for a, b in zip(coeffs, coeffs[1:]))


@settings(max_examples=150, deadline=None)
@given(search_queries())
def test_the_search_ascends_and_length_sets_match_the_expansion(query):
    x, M, B = query
    found = [z.coeffs for z in enumerate_all(x, M, B)]
    assert all(a < b for a, b in zip(found, found[1:]))
    ls = _outcome(length_set, x, M, B)
    assert ls == _outcome(_ref_length_set, x, M, B)
    if isinstance(ls, LengthSet):
        assert ls.lengths == tuple(sorted({sum(c for _, c in p) for p in found}))


def test_length_sets_read_runs_and_enumeration_needs_no_sort(monkeypatch):
    tail_query = F(CONST, {0: 8, 4: 1, 5: 2})  # the tail query of factor-mix
    x, witness = evaluate(tail_query), min_normal_form(tail_query)
    leaves, resolved = _counted_walk(monkeypatch)

    def banned(*args, **kwargs):
        raise AssertionError("called")

    # both flags come off the one search: no least-form walk, no carry sweep
    for name in ("_expand", "_least_form", "max_length_sweep"):
        monkeypatch.setattr(fz, name, banned)
    with_witness = length_set(x, CONST, 5, witness)
    assert with_witness.lengths[0] == witness.length
    runs = dict(resolved)
    assert (len(leaves), sum(runs[R][3] for _, R in leaves)) == (307, 1712)  # leaves, results
    assert len(resolved) == len(runs) == 14
    leaves.clear()
    resolved.clear()
    assert length_set(x, CONST, 5) == with_witness
    assert len(leaves) == 307 and len(resolved) == 14
    monkeypatch.undo()
    monkeypatch.setattr(fz, "sorted", banned, raising=False)
    found = [z.coeffs for z in enumerate_all(x, CONST, 5)]
    assert len(found) == 1712 and found == sorted(set(found))


def test_a_greatest_length_past_64_levels_is_exact():
    # 1 + r^{s_70}: every coefficient is below n(r), so it factors uniquely
    # and its one length is the greatest; a carry sweep bounded at 64 levels
    # from that witness could not say so
    x = evaluate(F(CONST, {0: 1, 70: 1}))
    for witness in (None, is_member(x, CONST).witness):
        assert length_set(x, CONST, 70, witness) == LengthSet((2,), True, True)


def test_a_length_set_resolves_each_remainder_once_and_merges_progressions(monkeypatch):
    leaves, resolved = _counted_walk(monkeypatch)
    ranges = []
    monkeypatch.setattr(fz, "range", lambda *args: ranges.append(range(*args)) or ranges[-1],
                        raising=False)

    def banned(*args, **kwargs):
        raise AssertionError("a set of lengths")

    monkeypatch.setattr(fz, "set", banned, raising=False)
    ls = length_set(Ratio(20000), CONST, 2)
    assert (len(ls.lengths), ls.lengths[0], ls.lengths[-1]) == (25001, 20000, 45000)
    assert (ls.min_exact, ls.max_exact) == (True, False)
    assert len(leaves) == len({R for _, R in leaves}) == len(resolved) == 10001
    # past the ranges over the three levels, the root hands over its 10 000
    # children with c > 0 from one range, and the 10 001 runs' lengths merge
    # into one range: no length is inserted one by one
    assert [len(r) for r in ranges if len(r) > 3] == [10000, 25001]
    leaves.clear()
    resolved.clear()
    tail_query = F(CONST, {0: 8, 4: 1, 5: 2})  # the tail query of factor-mix, at B = 5
    assert (length_set(evaluate(tail_query), CONST, 5).lengths[0]
            == min_normal_form(tail_query).length)
    assert (len(leaves), len(resolved)) == (307, 14)


def _oracle_volume(x, M, B):
    """The nodes of `oracle_enumerate`'s search, bounded from above by the
    product of the value caps at each level."""
    window = M.delta.max_exponent_index
    B = B if window is None else min(B, window)
    s = [s_index(M, i) for i in range(B + 1)]
    n, d = M.r.num, M.r.den
    if (d ** s[B]) % x.den:
        return 0
    target = x.num * (d ** s[B] // x.den)
    volume = 1
    for i in range(B + 1):
        volume *= target // (n ** s[i] * d ** (s[B] - s[i])) + 1
    return volume


# r < 1, r > 1, finite windows, and r = 1, where a run's lengths do not step;
# on r = 3/7 a residue class can have holes: at B = 4, where the step is 40,
# the lengths of 27/7 in the class of 5 are 5, 85, 125, ..., with no 45
ORACLE_FAMILIES = [parse_monoid(text) for text in (
    "r=2/3; delta=const(1)", "r=2/3; delta=geom(1,2)", "r=3/4; delta=periodic(1,2)",
    "r=3/5; delta=const(2)", "r=3/7; delta=periodic(1,2)", "r=3/2; delta=const(1)",
    "r=5/3; delta=prefix(1);geom(2,2)", "r=2/3; delta=prefix(1,1,2);finite",
    "r=3/2; delta=prefix(1,2);finite", "r=1; delta=const(1)", "r=1/1; delta=prefix(1,2);finite")]


@st.composite
def oracle_queries(draw):
    """(x, M, B), B from 0 to 4, x = 0 or a few atoms at indices up to B + 1,
    with the oracle's volume at most 2 * 10^4."""
    M = draw(st.sampled_from(ORACLE_FAMILIES))
    B = draw(st.integers(0, 4))
    support = draw(st.dictionaries(st.integers(0, B + 1), st.integers(1, 4), max_size=3))
    window = M.delta.max_exponent_index
    x = evaluate(F(M, {i: c for i, c in support.items() if window is None or i <= window}))
    assume(_oracle_volume(x, M, B) <= 2 * 10 ** 4)
    return x, M, B


@settings(max_examples=300, deadline=None)
@given(oracle_queries())
@example((ZERO, CONST, 0))
@example((ZERO, ORACLE_FAMILIES[5], 3))
@example((Ratio(4), ORACLE_FAMILIES[9], 3))
@example((Ratio(12), ORACLE_FAMILIES[7], 1))
@example((Ratio(27, 7), ORACLE_FAMILIES[4], 4))
def test_length_sets_match_the_oracle(query):
    x, M, B = query
    truth = oracle_lengths(x, M, B)
    if not truth:
        with pytest.raises(DomainError, match="no factorization"):
            length_set(x, M, B)
        return
    assert list(length_set(x, M, B).lengths) == truth


# ---------------------------------------------------------------------------
# The denominator rule: d(x) divides a power of d(r) exactly when it divides
# d(r)^{bit length of d(x)}
# ---------------------------------------------------------------------------

@st.composite
def denominators(draw):
    """(d(x), d(r)): d(x) is a divisor of a power of d(r) times a cofactor
    that may bring in a foreign prime."""
    r_den = draw(st.integers(1, 300))
    part = gcd(r_den ** draw(st.integers(0, 24)), draw(st.integers(1, 10 ** 12)))
    return part * draw(st.sampled_from([1, 1, 1, 2, 3, 5, 7, 11])), r_den


@settings(max_examples=500, deadline=None)
@given(denominators())
def test_the_denominator_rule_matches_the_gcd_loop(dens):
    q_den, r_den = dens
    # a window of two atoms keeps the search behind the rule small
    M = ExpMonoid(Ratio(1, r_den), DeltaSpec((1,)))
    res = is_member(Ratio(1, q_den), M)
    foreign = res.reason == f"a prime of d(x)={q_den} does not divide d(r)={r_den}"
    assert foreign == _foreign_prime(q_den, r_den)


def _ref_complete_index(q, M, top):
    """Reference: the scan that forms d^{s_m} in full, for the least m < top
    with d(q) | d(r)^{s_m}, or top when there is none."""
    return next((m for m in range(top) if M.r.den ** s_index(M, m) % q.den == 0), top)


def _top(M):
    limit = M.delta.max_exponent_index
    return 512 if limit is None else limit


def _ref_support_bound(q, M):
    """Reference: the bound an unresolved answer reports, m + 3 capped at the top."""
    return min(_ref_complete_index(q, M, _top(M)) + 3, _top(M))


# families whose s_m stays small enough for the full scan up to index 512
SLOW = [M for M in FACTOR_MIX
        if M.delta.tail is None or M.delta.tail.name in ("const", "periodic")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FACTOR_MIX), st.integers(0, 40), st.integers(1, 10 ** 6),
       st.sampled_from([1, 1, 5, 7]))
def test_support_bound_matches_the_full_power_scan(M, e, t, cofactor):
    # a foreign cofactor sends the scan to its cap, so only slow families get one
    assume(cofactor == 1 or M in SLOW)
    q = Ratio(1, gcd(M.r.den ** e, t) * cofactor)
    assert _complete_index(q, M, _top(M)) == _ref_complete_index(q, M, _top(M))


# ---------------------------------------------------------------------------
# The shortfall certificate ends a carry sweep that cannot terminate
# ---------------------------------------------------------------------------

# prefix(1,5) has d < n^5 at its first position for every r = n/d in range
SHORTFALL_TAILS = ["const(1)", "const(3)", "periodic(1,2)", "periodic(2,1,3)",
                   "prefix(3,1);const(2)", "prefix(1,5);const(1)", "geom(1,2)", "poly(1,1)",
                   "recurrence(2,3,2)"]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))),
       st.sampled_from(SHORTFALL_TAILS),
       st.dictionaries(st.integers(0, 6), st.integers(1, 10 ** 3), max_size=3),
       st.integers(1, 14))  # geom(1,2) puts a 2^14-bit exponent at level 14
def test_shortfall_exit_matches_the_full_sweep(r, tail, support, level_bound):
    M = parse_monoid(f"r={r[0]}/{r[1]}; delta={tail}")
    assume(M.r.den > 1)
    z = F(M, support)
    fast = max_length_sweep(z, level_bound)
    # withdraw the shortfall certificate (True -> None) from every start;
    # gap growth (False) stays, since without it a terminating sweep would
    # stop at the bound
    descent = type(M.delta.tail).descent
    with patch.object(type(M.delta.tail), "descent",
                      lambda self, n, d, k=0: descent(self, n, d, k) and None):
        assert max_length_sweep(z, level_bound) == fast


def test_shortfall_answers_without_sweeping(monkeypatch):
    # r=2/5 with geom(1,2): 5 >= 2^2, so every carry survives; a sweep to
    # level 64 would form 5^(2^63), so the gaps past level 1 are cut off
    M = parse_monoid("r=2/5; delta=geom(1,2)")
    original = Geometric.delta  # the sweep walks the gaps, reading the tail

    def delta(self, k):
        if k > 1:
            raise RuntimeError(f"the sweep reached gap {k}")
        return original(self, k)

    monkeypatch.setattr(Geometric, "delta", delta)
    assert max_length_sweep(F(M, {0: 100})) == MaxLengthOutcome(None, 64)


# ---------------------------------------------------------------------------
# The difference chain (polynomial tails) and the block compare (periodic
# tails) end a carry sweep that cannot terminate
# ---------------------------------------------------------------------------

CERTIFIED_TAILS = SHORTFALL_TAILS + ["poly(2,0,1)", "prefix(2);poly(1,1)", "periodic(1,1,2)"]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))),
       st.sampled_from(CERTIFIED_TAILS),
       st.dictionaries(st.integers(0, 6), st.integers(1, 10 ** 3), max_size=3),
       st.integers(1, 14))
# 9^2 >= 8^1 at tail position 4, where p falls: a check of H_p alone would
# end this sweep, which terminates at level 7
@example((8, 9), "poly(26,-10,1)", {4: 1000}, 14)
# the carry into the first tail level comes from a prefix gap: no tail
# position lies behind it, so no chain is asked there
@example((2, 3), "prefix(2);poly(1,1)", {0: 100}, 14)
# q = 1, 0, 1, 0, 1, 0 at levels 0-5: only from the top coefficient on does
# one period of steps map q to q, so a compare from level 0 would misfire
@example((8, 9), "periodic(1,2)", {0: 8, 2: 8, 4: 8}, 14)
def test_certified_exits_match_the_full_sweep(r, tail, support, level_bound):
    M = parse_monoid(f"r={r[0]}/{r[1]}; delta={tail}")
    assume(M.r.den > 1)
    z = F(M, support)
    fast = max_length_sweep(z, level_bound)
    # withdraw all three certificates: the shortfall and the difference chain
    # answer through descent (True -> None, gap growth stays), the block
    # compare through the period
    descent = type(M.delta.tail).descent
    with patch.object(type(M.delta.tail), "descent",
                      lambda self, n, d, k=0: descent(self, n, d, k) and None), \
            patch.object(Periodic, "period", None):
        assert max_length_sweep(z, level_bound) == fast


@pytest.mark.parametrize("spec, family", [("r=2/3; delta=poly(1,1)", Polynomial),
                                          ("r=3/4; delta=periodic(1,2)", Periodic)],
                         ids=["difference-chain", "block-compare"])
def test_certified_exits_answer_without_sweeping(monkeypatch, spec, family):
    # poly(1,1): 3^2 >= 2^3 is the chain at position 1; periodic(1,2): the
    # quotient at level 2 is 74 >= 33 at level 0. A sweep to level 10**6 would
    # read every gap up to it
    M = parse_monoid(spec)
    original = family.delta

    def delta(self, k):
        if k > 3:
            raise RuntimeError(f"the sweep reached gap {k}")
        return original(self, k)

    monkeypatch.setattr(family, "delta", delta)
    assert max_length_sweep(F(M, {0: 100}), 10 ** 6) == MaxLengthOutcome(None, 10 ** 6)


def _holds(d, a, n, b):
    return d ** a >= n ** b


@st.composite
def polynomials(draw):
    degree = draw(st.integers(1, 3))
    coeffs = draw(st.tuples(*[st.integers(-4, 4)] * degree, st.integers(1, 2)))
    try:
        return Polynomial(coeffs)
    except DomainError:  # p takes a value below 1
        assume(False)


@settings(max_examples=150, deadline=None)
@given(polynomials(), st.integers(2, 9).flatmap(
    lambda d: st.tuples(st.integers(1, d - 1), st.just(d))), st.integers(0, 12))
@example(Polynomial((1, 0, 1)), (2, 3), 4)  # 3^17 >= 2^26 and 3^9 >= 2^11
@example(Polynomial((1, 1)), (2, 3), 1)
# p falls and then rises: H_p holds at k while the chain, with Dp(k) < 0,
# does not, and H_p fails later, at k + 2 here (3 < 2^2)
@example(Polynomial((5, -4, 1)), (2, 3), 0)
# and at k + 1 here (9 < 8^2)
@example(Polynomial((26, -10, 1)), (8, 9), 4)
def test_the_difference_chain_is_a_certificate(p, r, k):
    n, d = r
    if p.descent(n, d, k):
        assert all(_holds(d, p.delta(j), n, p.delta(j + 1)) for j in range(k, k + 41))
    # the chain at k includes d^{p(k)} >= n^{p(k+1)} itself
    if not _holds(d, p.delta(k), n, p.delta(k + 1)):
        assert p.descent(n, d, k) is None


def _quotients(M, z, levels):
    """The quotient q_i at each level i < levels of the plain sweep, no exit."""
    n, d = M.r.num, M.r.den
    carry, out = 0, []
    for i, gap in zip(range(levels), M.delta.gaps()):
        q = (z.as_dict().get(i, 0) + carry) // n ** gap
        out.append(q)
        carry = q * d ** gap
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))),
       st.lists(st.integers(1, 4), max_size=2), st.lists(st.integers(1, 4), min_size=2, max_size=4),
       st.dictionaries(st.integers(0, 6), st.integers(1, 10 ** 4), min_size=1, max_size=3))
@example((3, 4), [], [1, 2], {0: 100})
def test_the_block_compare_is_a_certificate(r, prefix, pattern, support):
    M = ExpMonoid(Ratio(*r), DeltaSpec(tuple(prefix), Periodic(tuple(pattern))))
    assume(M.r.den > 1 and M.delta.tail.descent(M.r.num, M.r.den) is None)
    z = F(M, support)
    reads = []
    original = Periodic.delta
    with patch.object(Periodic, "delta", lambda self, k: reads.append(k) or original(self, k)):
        out = max_length_sweep(z, 10 ** 6)
    if out.terminated:
        return
    # the compare fired at the level of the last gap read: the carry of the
    # plain sweep lives on for 20 more periods
    fired = len(prefix) + max(reads)
    assert fired < len(prefix) + 200 * len(pattern)
    assert all(_quotients(M, z, fired + 20 * len(pattern) + 1)[fired:])
