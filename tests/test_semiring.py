import builtins
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from puiseux import membership, semiring
from puiseux.errors import DomainError, ParseError
from puiseux.factorization import Factorization, evaluate
from puiseux.membership import is_member
from puiseux.monoid import Constant, s_index
from puiseux.ratio import Ratio
from puiseux.semiring import (_PSI, NATURALS, NumericalMonoidSpec, PrefixCofinite,
                              _iroot, _is_prime, _perfect_power, _reachable, apery_set,
                              classify_mult, exponent_monoid, frobenius,
                              frobenius_bruteforce, is_semiring, mult_divides,
                              mult_divisor_bound, nm_membership,
                              parse_exponent_set)


def NM(*gens):
    return NumericalMonoidSpec.make(gens)


def members(N, up_to):
    """N's members up to up_to, by the sieve or by the set's own test."""
    if isinstance(N, PrefixCofinite):
        return [x for x in range(up_to + 1) if N.contains(x)]
    reach = _reachable(N.generators, up_to)
    return [x for x in range(up_to + 1) if reach[x]]


GENERATORS = st.lists(st.integers(1, 40), min_size=1, max_size=4)


@st.composite
def prefix_cofinite(draw, max_threshold=30):
    threshold = draw(st.integers(0, max_threshold))
    prefix = draw(st.lists(st.integers(0, max(threshold - 1, 0)), max_size=8))
    if draw(st.booleans()):
        prefix.append(0)  # most closure failures need 0 in N
    return PrefixCofinite.make([p for p in prefix if p < threshold], threshold)


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

    def test_bruteforce_errors(self):
        with pytest.raises(DomainError,
                           match=r"^not a numerical monoid \(infinite complement\)$"):
            frobenius_bruteforce(NM(4, 6))
        with pytest.raises(DomainError, match="^no Frobenius number: the monoid is all of N_0$"):
            frobenius_bruteforce(NM(1, 3))

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

    @settings(max_examples=200)
    @given(GENERATORS)
    def test_membership_agrees_with_the_sieve(self, gens):
        # any gcd: a residue class with no member holds no x at all
        reach = _reachable(gens, 300)
        N = NM(*gens)
        assert [nm_membership(N, x) for x in range(-3, 301)] == [False] * 3 + reach

    @settings(max_examples=200)
    @given(GENERATORS)
    def test_window_ends_two_steps_past_the_conductor(self, gens):
        N = NM(*gens)
        window, step = N.window()
        conductor = window[-3]
        reach = _reachable(gens, window[-1] + 200)
        assert step == gcd(*gens)
        assert window == [x for x in range(window[-1] + 1) if reach[x]]
        assert window[-3:] == [conductor, conductor + step, conductor + 2 * step]
        # every multiple of step from the conductor on is a member, and the one before is not
        assert all(reach[x] for x in range(conductor, len(reach), step))
        assert conductor == 0 or not reach[conductor - step]

    def test_membership_with_a_common_factor(self):
        assert [x for x in range(20) if nm_membership(NM(4, 6), x)] == [0, *range(4, 20, 2)]
        assert not nm_membership(NM(4, 6), 2) and not nm_membership(NM(4, 6), 1001)


class TestExponentSets:
    def test_parse_generators(self):
        N = parse_exponent_set("N=gens(2,3)")
        assert isinstance(N, NumericalMonoidSpec)
        assert N.generators == (2, 3)

    def test_parse_prefix_cofinite(self):
        N = parse_exponent_set("prefix(0,1); tail>=5")
        assert N == PrefixCofinite((0, 1), 5)
        assert N.contains(0) and N.contains(7) and not N.contains(3)

    def test_negative_prefix_rejected(self):
        with pytest.raises(DomainError, match="^prefix elements must be nonnegative$"):
            PrefixCofinite.make((-1, 2), 5)

    def test_negative_threshold_rejected(self):
        # prefix();tail>=-3 would not parse back, and its window would be empty
        with pytest.raises(DomainError, match="^the threshold must be nonnegative$"):
            PrefixCofinite.make((), -3)

    def test_format_round_trip(self):
        for text in ("gens(2,3)", "prefix(0,1);tail>=5", "prefix();tail>=0"):
            N = parse_exponent_set(text)
            assert parse_exponent_set(str(N)) == N

    @settings(max_examples=200)
    @given(st.one_of(GENERATORS.map(lambda g: NM(*g)), prefix_cofinite()))
    def test_round_trip_both_forms(self, N):
        assert parse_exponent_set(str(N)) == N
        assert parse_exponent_set("N = " + str(N)) == N

    @settings(max_examples=300)
    @given(st.text(alphabet="gensprefixtail()N=;,>< 0123456789-", max_size=30))
    def test_parses_or_raises_parse_error(self, text):
        try:
            N = parse_exponent_set(text)
        except ParseError:
            return
        assert isinstance(N, (NumericalMonoidSpec, PrefixCofinite))

    @settings(max_examples=200)
    @given(st.one_of(GENERATORS.map(lambda g: NM(*g)), prefix_cofinite()))
    def test_exponent_monoid_lists_the_members(self, N):
        M, base = exponent_monoid(Ratio(2, 3), N)
        window = 200
        exponents = []
        while not exponents or exponents[-1] <= window:
            exponents.append(base + s_index(M, len(exponents)))
        assert exponents[:-1] == members(N, window)

    @pytest.mark.parametrize("bad", ["gens()", "prefix(7);tail>=5",
                                     "gens(2,3);tail>=5", "everything"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_exponent_set(bad)

    @pytest.mark.parametrize("text,message", [
        ("gens(0)", "bad generator set 'gens(0)': generators must be positive integers"),
        ("prefix(3);tail>=2",
         "bad exponent set 'prefix(3);tail>=2': prefix elements must lie below the threshold"),
    ])
    def test_rejection_names_the_form(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_exponent_set(text)
        assert str(info.value) == message

    def test_exponent_monoid_gens_2_3(self):
        M, base = exponent_monoid(Ratio(2, 3), NM(2, 3))
        assert base == 0
        assert M.delta.tail == Constant(1)
        assert [s_index(M, n) for n in range(5)] == [0, 2, 3, 4, 5]

    def test_exponent_monoid_scaled_generators(self):
        M, base = exponent_monoid(Ratio(2, 3), NM(4, 6))
        assert base == 0
        # members of <4,6> are 0 and the even numbers from 4 on
        assert [s_index(M, n) for n in range(4)] == [0, 4, 6, 8]
        assert M.delta.tail == Constant(2)

    def test_exponent_monoid_shift(self):
        M, base = exponent_monoid(Ratio(2, 3), PrefixCofinite((), 3))
        assert base == 3
        assert [s_index(M, n) for n in range(3)] == [0, 1, 2]

    def test_one_residue_search_per_generator_form_call(self, monkeypatch):
        # no memo outlives a call: each call searches once, and a repeated
        # call on the same N searches again
        calls = []
        least = NumericalMonoidSpec.least

        def counted(self):
            calls.append(self.generators)
            return least(self)

        monkeypatch.setattr(NumericalMonoidSpec, "least", counted)
        N = NM(3, 5, 7)
        exponent_monoid(Ratio(2, 3), N)
        assert calls == [(3, 5, 7)]
        mult_divides(Ratio(2, 3), 1, Ratio(4, 9), N)
        assert len(calls) == 2
        apery_set(N)
        apery_set(N)
        assert len(calls) == 4


class TestIsSemiring:
    def test_generator_form(self):
        assert is_semiring(Ratio(2, 3), NM(2, 3))["semiring"] is True

    def test_zero_base_rejected(self):
        for N in (NM(2, 3), PrefixCofinite((0,), 3)):
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

    @settings(max_examples=300)
    @given(prefix_cofinite())
    def test_closure_agrees_with_a_pair_scan(self, N):
        def in_n(v):
            return v >= N.threshold or v in N.prefix

        members = [x for x in range(2 * N.threshold + 1) if in_n(x)]
        failures = [(a, b) for i, a in enumerate(members) for b in members[i:]
                    if not in_n(a + b)]
        out = is_semiring(Ratio(2, 3), N)
        if 0 not in members:
            assert out == {"semiring": False, "reason": "0 not in N"}
        elif failures:
            a, b = failures[0]
            assert out == {"semiring": False, "reason": f"{a}+{b}={a + b} not in N"}
        else:
            assert out["semiring"] is True

    @pytest.mark.parametrize("prefix, verdict", [((0, 2, 5), False),
                                                 ((0, 400000, 800000), True)])
    def test_closure_reads_prefix_pairs_only(self, monkeypatch, prefix, verdict):
        # 0 and the six pairs of a three-element prefix, whatever the threshold
        calls = []
        contains = PrefixCofinite.contains

        def counted(self, x):
            calls.append(x)
            if len(calls) > 7:
                raise AssertionError(f"contains called more than 7 times: {calls[:9]}")
            return contains(self, x)

        monkeypatch.setattr(PrefixCofinite, "contains", counted)
        assert is_semiring(Ratio(2, 3), PrefixCofinite(prefix, 10 ** 6))["semiring"] is verdict

    def test_degenerate_flagging(self):
        assert "degenerate" in is_semiring(Ratio(1, 2), NM(2, 3))
        assert "degenerate" in is_semiring(Ratio(3), NM(2, 3))
        assert "degenerate" not in is_semiring(Ratio(2, 3), NM(2, 3))

    def test_product_closure_on_members(self):
        M, _ = exponent_monoid(Ratio(2, 3), NM(2, 3))
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

    @pytest.mark.parametrize("n,x,message", [(1, Ratio(0), "x must be positive"),
                                             (-1, Ratio(1), "n must be >= 0")])
    def test_divides_usage_errors(self, n, x, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            mult_divides(Ratio(2, 3), n, x, NATURALS)

    def test_divides_positive(self):
        res = mult_divides(Ratio(2, 3), 2, Ratio(4, 3), NATURALS)
        assert res.is_member
        assert res.witness.as_dict() == {0: 3}

    def test_divides_beyond_bound(self):
        res = mult_divides(Ratio(2, 3), 3, Ratio(4, 3), NATURALS)
        assert res.status == "not-member"
        assert "bound" in res.reason

    def test_unit_divides_one(self):
        res = mult_divides(Ratio(2, 3), 0, Ratio(1), NATURALS)
        assert res.is_member
        assert res.witness.as_dict() == {0: 1}

    def test_member_implies_within_bound(self):
        r = Ratio(2, 3)
        for p in range(1, 30):
            for k in (0, 1, 2):
                x = Ratio(p, 3 ** k)
                for n in range(0, 4):
                    res = mult_divides(r, n, x, NATURALS)
                    if res.is_member:
                        assert n <= mult_divisor_bound(r, x)


BRIDGE = ("exponent_monoid", "mult_divisor_bound", "mult_divides")


class TestBridgeInMembership:
    # the bridge to the monoid layer lives in membership; puiseux.semiring
    # binds each of its names on first use, so a semiring-only process loads
    # no monoid layer and later calls resolve a plain global

    def test_first_use_binds_the_membership_object(self, monkeypatch):
        for name in BRIDGE:
            monkeypatch.delitem(vars(semiring), name)
            value = getattr(semiring, name)
            assert value is getattr(membership, name)
            assert vars(semiring)[name] is value

    def test_other_names_are_refused(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            semiring.no_such_name

    def test_calls_after_first_use_run_no_import(self, monkeypatch):
        r, x, N = Ratio(2, 3), Ratio(4, 3), NM(3, 5, 7)
        for name in BRIDGE:
            monkeypatch.delitem(vars(semiring), name)
            getattr(semiring, name)
        imports = []
        real = builtins.__import__

        def counted(*args, **kwargs):
            imports.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counted)
        for _ in range(100):
            semiring.exponent_monoid(r, N)
            semiring.mult_divisor_bound(r, x)
            semiring.mult_divides(r, 1, x, N)
            semiring.classify_mult(r)
            semiring.is_semiring(r, N)
        monkeypatch.undo()
        assert imports == []


def _knapsack_divides(r: Fraction, n: int, x: Fraction, N: PrefixCofinite) -> bool:
    """Is x / r^n a sum of powers r^e, e in N: a coin problem over d^E, with
    the integer d^E r^e as the coin for each e in N up to E, solved on the
    bits of one integer. For r > 1 no power past y = x / r^n fits. For r < 1
    and d prime, a least-length sum keeps c_t < d^(t - p) at its top
    exponent t, with p the member of N before t (else d^(t - p) r^t trades
    for n^(t - p) r^p, a shorter sum), so v_d(den y) > p: E = min(N), or
    v_d(den y) - 1 plus the widest gap of N, loses no sum."""
    y, num, d = x / r ** n, r.numerator, r.denominator
    low = [e for e in range(N.threshold + 2) if N.contains(e)]
    if r > 1:
        top = max((e for e in range(64) if r ** e <= y), default=0)
    else:  # v = -1 when den y is no power of d: then y d^E is no integer
        v = next((k for k in range(64) if d ** k % y.denominator == 0), -1)
        top = max(low[0], v - 1 + max(b - a for a, b in zip(low, low[1:])))
    Y = y * d ** top
    if Y.denominator != 1:
        return False
    Y, reach = int(Y), 1
    for e in filter(N.contains, range(top + 1)):
        shift = num ** e * d ** (top - e)  # adds 0..2^j - 1 coins after j shifts
        while shift <= Y:
            reach |= (reach << shift) & ((2 << Y) - 1)
            shift *= 2
    return bool(reach >> Y & 1)


@pytest.mark.parametrize("N", ["prefix(1);tail>=4", "prefix(2,3);tail>=6", "prefix();tail>=2"])
@pytest.mark.parametrize("r", [Fraction(2, 3), Fraction(2, 5), Fraction(3, 2)])
def test_mult_divides_with_a_least_exponent_past_zero(r, N):
    # exponent_monoid returns min(N) > 0 as a shift that mult_divides divides out
    N = parse_exponent_set(N)
    low = [e for e in range(N.threshold + 2) if N.contains(e)][:3]
    xs = {r ** m * (c * r ** e + r ** f) for m in range(4) for c in (1, 2)
          for e in low for f in low}
    xs |= {Fraction(1), Fraction(2), 1 / r, Fraction(1, r.denominator), r ** 5}
    R = Ratio(r.numerator, r.denominator)
    _, base = exponent_monoid(R, N)
    seen = set()
    for x in sorted(xs):
        X = Ratio(x.numerator, x.denominator)
        top = mult_divisor_bound(R, X) if r < 1 else 3
        for n in range(top + 2):
            res = mult_divides(R, n, X, N)
            expected = _knapsack_divides(r, n, x, N)
            seen.add(res.status)
            if res.status == "unresolved":  # left open for r < 1 on an infinite set
                assert not expected and r < 1, (x, n)
                continue
            assert res.is_member == expected, (x, n)
            if expected:
                assert evaluate(res.witness) * R ** (n + base) == X
    assert {"member", "not-member"} <= seen


class TestClassifyMult:
    def test_zero_base_rejected(self):
        with pytest.raises(DomainError, match="base r must be positive"):
            classify_mult(Ratio(0))

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


PSI_12 = 318665857834031151167461     # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981    # 1287836182261 * 2575672364521
BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def ratio_below_one(d):
    """n/d in lowest terms with 1 < n < d, for d >= 3."""
    return Ratio(next(n for n in range(2, d) if gcd(n, d) == 1), d)


def sympy_mult_evidence(r):
    """(rule, instance) that the trial-free classifier must give, from sympy."""
    f = sympy.factorint(r.den)
    if len(f) == 1:
        (p, e), = f.items()
        return "prime-power-denominator", f"d(r)={r.den}={p}^{e}"
    return "no-closed-form", f"r={r}<1 with composite-radical denominator"


class TestMultPrimality:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 10 ** 12))
    def test_agrees_with_factorint(self, d):
        r = ratio_below_one(d)
        v = classify_mult(r)
        assert (v.evidence["rule"], v.evidence["instance"]) == sympy_mult_evidence(r)
        assert v.accp == ("yes" if v.evidence["rule"] == "prime-power-denominator"
                          else "unknown")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10 ** 6).map(lambda x: sympy.prevprime(x + 1)),
           st.integers(1, 6))
    def test_prime_powers_agree_with_factorint(self, p, k):
        assume(p ** k >= 3)
        r = ratio_below_one(p ** k)
        v = classify_mult(r)
        assert (v.evidence["rule"], v.evidence["instance"]) == sympy_mult_evidence(r)
        assert v.evidence["instance"].endswith(f"={p}^{k}")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2 ** 300), st.integers(1, 40))
    def test_integer_root(self, m, k):
        x = _iroot(m, k)
        assert x ** k <= m < (x + 1) ** k

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10 ** 4), st.integers(1, 12))
    def test_perfect_power_is_maximal(self, b, k):
        want = sympy.perfect_power(b ** k) or (b ** k, 1)
        assert _perfect_power(b ** k) == tuple(want)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10 ** 4), st.integers(1, 12),
           st.sampled_from([1, 43, 1_000_003]))
    def test_perfect_power_of_a_product(self, b, k, c):
        # b may or may not have a prime <= 41; c = 43 or a larger prime
        # takes the root bound of the valuation-free branch
        d = b ** k * c
        assert _perfect_power(d) == tuple(sympy.perfect_power(d) or (d, 1))

    def test_perfect_power_at_the_43_bound(self):
        # 43^e has 5e < bit_length, so e is the largest exponent tried
        for e in range(1, 41):
            for d, want in ((43 ** e, (43, e)), (43 ** e * 47 ** e, (43 * 47, e)),
                            (2 ** e * 43 ** e, (86, e)),
                            (43 ** e * 1_000_003, (43 ** e * 1_000_003, 1))):
                assert _perfect_power(d) == want
                assert want == tuple(sympy.perfect_power(d) or (d, 1))

    @pytest.mark.parametrize("d,want,roots", [
        (7 ** 4733, (7, 4733), [4733]),          # v_7 = 4733 is prime: one root
        (3 ** 9100, (3, 9100), [2, 2, 5, 5, 7, 13]),  # 9100 = 2^2 5^2 7 13
        (2 * 3 ** 9100, (2 * 3 ** 9100, 1), []),  # v_2 = 1: no root at all
    ], ids=["7^4733", "3^9100", "2*3^9100"])
    def test_roots_are_tried_only_for_primes_dividing_the_valuation(
            self, monkeypatch, d, want, roots):
        tried, inside = [], []
        iroot, isqrt = semiring._iroot, semiring.isqrt

        def counted_iroot(m, k):
            if not inside:  # the root sought, not its recursion on m's top bits
                tried.append(k)
            inside.append(k)
            try:
                return iroot(m, k)
            finally:
                inside.pop()

        monkeypatch.setattr(semiring, "_iroot", counted_iroot)
        monkeypatch.setattr(semiring, "isqrt", lambda m: tried.append(2) or isqrt(m))
        assert _perfect_power(d) == want
        assert sorted(tried) == roots

    def test_each_psi_k_passes_its_first_k_bases_and_is_composite(self):
        assert list(_PSI) == sorted(_PSI) and len(_PSI) == len(BASES)
        assert _PSI[-1] == PSI_13 and _PSI[-2] == PSI_12
        for k, psi in enumerate(_PSI, 1):
            assert sympy.ntheory.primetest.mr(psi, BASES[:k])
            assert not sympy.isprime(psi)
            # below psi_13 the bases past the first k catch it
            assert _is_prime(psi) is (None if k == len(BASES) else False)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.integers(2, 10 ** 13).map(sympy.nextprime),
        st.tuples(st.integers(2, 10 ** 12), st.integers(2, 10 ** 12)).map(
            lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])),
        st.tuples(st.sampled_from(_PSI), st.integers(-60, 60)).map(sum),
        st.integers(2, 10 ** 30)))
    def test_is_prime_agrees_with_sympy(self, n):
        if n < PSI_13:
            assert _is_prime(n) is sympy.isprime(n)
        else:  # past psi_13 only a witness decides
            assert _is_prime(n) in ((None,) if sympy.isprime(n) else (None, False))

    def test_psi_12_is_caught_by_base_41_only(self):
        assert sympy.ntheory.primetest.mr(PSI_12, BASES[:-1])
        assert not sympy.ntheory.primetest.mr(PSI_12, BASES[-1:])
        v = classify_mult(Ratio(2, PSI_12))
        assert (v.accp, v.evidence["rule"]) == ("unknown", "no-closed-form")

    def test_psi_13_is_unknown_and_names_the_bound(self):
        assert sympy.ntheory.primetest.mr(PSI_13, BASES)
        for d in (PSI_13, PSI_13 ** 3, sympy.nextprime(PSI_13)):
            v = classify_mult(ratio_below_one(d))
            assert (v.accp, v.bfp, v.ffp) == ("unknown", "unknown", "unknown")
            assert v.evidence["rule"] == "primality-bound"
            assert f"psi_13={PSI_13}" in v.evidence["instance"]
        assert classify_mult(Ratio(2, PSI_13 ** 3)).evidence["instance"].startswith("d(r)=q^3,")

    def test_a_witness_above_psi_13_proves_composite(self):
        d = sympy.nextprime(PSI_13) * sympy.nextprime(10 ** 30)
        assert classify_mult(Ratio(2, d)).evidence["rule"] == "no-closed-form"

    def test_large_prime_powers(self):
        p = 10 ** 19 + 51
        v = classify_mult(Ratio(2, p))
        assert (v.accp, v.evidence["rule"]) == ("yes", "prime-power-denominator")
        assert v.evidence["instance"] == f"d(r)={p}={p}^1"
        v = classify_mult(Ratio(2, 3 ** 200))
        assert v.evidence["rule"] == "prime-power-denominator"
        assert v.evidence["instance"].endswith("=3^200")

    @pytest.mark.parametrize("r,rule,instance", [
        (Ratio(5, 3 ** 9100), "prime-power-denominator", "d(r)=3^9100=3^9100"),
        (Ratio(5, 6 ** 5600), "no-closed-form", "r=5/6^5600<1 with composite-radical denominator"),
    ], ids=["3^9100", "6^5600"])
    def test_evidence_past_the_int_str_limit(self, r, rule, instance):
        # d(r) has more digits than int -> str allows: the power is written b^e
        v = classify_mult(r)
        assert (v.evidence["rule"], v.evidence["instance"]) == (rule, instance)

    def test_an_unprintable_base_is_a_domain_error(self):
        # d(r) = 2 * 3^9100 is no proper power, so b^e cannot shorten it
        with pytest.raises(DomainError, match="too large to print"):
            classify_mult(Ratio(5, 2 * 3 ** 9100))

    @pytest.mark.parametrize("d,rule,tail", [
        (7 ** 4733, "prime-power-denominator", "=7^4733"),
        ((10 ** 19 + 51) ** 210, "prime-power-denominator", f"={10 ** 19 + 51}^210"),
        (10 ** 3999, "no-closed-form", "composite-radical denominator"),
        (PSI_13 ** 163, "primality-bound", "only below psi_13"),
    ], ids=["7^4733", "p20^210", "10^3999", "psi13^163"])
    def test_four_thousand_digits(self, d, rule, tail):
        assert 3990 <= len(str(d)) <= 4010
        v = classify_mult(ratio_below_one(d))
        assert v.evidence["rule"] == rule
        assert v.evidence["instance"].endswith(tail)
