import importlib
import pkgutil
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Dict, List, Tuple

import pytest

import puiseux
from puiseux.accp import (check_necessary, classify, construct_counterexample,
                          series_partial_sums, witness_chain)
from puiseux.errors import ChainError, DomainError
from puiseux.factorization import Factorization, evaluate, max_length_sweep
from puiseux.membership import is_member
from puiseux.monoid import (SCAN_LIMIT, TAILS, DeltaSpec, ExpMonoid, Recurrence, _log2_bounds,
                            classify_atomicity, descending_run, parse_monoid, s_index,
                            truncate)
from puiseux.ratio import ZERO, Ratio


def M(text):
    return parse_monoid(text)


def _gap_reads(monkeypatch, walk):
    """walk()'s result and its gap reads through DeltaSpec.delta and Tail.delta."""
    reads = {"spec": 0, "tail": 0}
    for key, owner in (("spec", DeltaSpec), *(("tail", cls) for cls in TAILS.values())):
        def counted(self, j, original=owner.delta, key=key):
            reads[key] += 1
            return original(self, j)
        monkeypatch.setattr(owner, "delta", counted)
    return walk(), reads


@pytest.mark.parametrize("spec, walk, reads", [
    ("r=2/3; delta=const(1)", lambda m: descending_run(m, 50, SCAN_LIMIT), 51),
    ("r=2/3; delta=prefix(2,1);periodic(1,5,2)", lambda m: series_partial_sums(m, 50), 48),
    ("r=2/3; delta=geom(1,2)",
     lambda m: max_length_sweep(Factorization(m, ((0, 10 ** 6),))), 7),
], ids=["descending_run", "series_partial_sums", "max_length_sweep"])
def test_walks_read_each_gap_once_and_never_through_delta(monkeypatch, spec, walk, reads):
    _, counts = _gap_reads(monkeypatch, lambda: walk(M(spec)))
    assert counts == {"spec": 0, "tail": reads}


class TestClassify:
    @pytest.mark.parametrize("text,accp,rule", [
        ("r=3; delta=const(1)", "yes", "iso-naturals"),
        ("r=1/2; delta=const(1)", "n/a", "antimatter"),
        # n(r) = 1 on a finite window: M = <r^{s_W}> is N_0
        ("r=1/2; delta=finite", "yes", "iso-naturals"),
        ("r=1/2; delta=prefix(1,2); finite", "yes", "iso-naturals"),
        ("r=2/3; delta=prefix(1,4); finite", "yes", "finitely-generated"),
        ("r=3/2; delta=const(1)", "yes", "r-above-one"),
        ("r=2/3; delta=const(1)", "no", "bounded-delta"),
        ("r=2/3; delta=periodic(1,5,2)", "no", "bounded-delta"),
        ("r=2/3; delta=poly(4)", "no", "bounded-delta"),
        ("r=2/3; delta=poly(1,1)", "no", "polynomial-gaps"),
        ("r=2/3; delta=geom(1,2)", "yes", "gap-growth"),
        ("r=2/9; delta=geom(1,2)", "no", "gap-shortfall"),
        ("r=2/3; delta=recurrence(2,3,2)", "no", "gap-shortfall"),
        ("r=2/3; delta=recurrence(4,6,2)", "no", "gap-shortfall"),
        # log_2 3 = log_4 9: each step 3^delta_k > 2^delta_k+1, squared
        ("r=4/9; delta=recurrence(2,3,2)", "no", "gap-shortfall"),
        # log_2 3 < log_2 5: each step 3^delta_k > 2^delta_k+1 gives 5^delta_k > 2^delta_k+1
        ("r=2/5; delta=recurrence(2,3,2)", "no", "gap-shortfall"),
        # 2^delta_1 = 2^4 exceeds 3^delta_0 = 3^2: no shortfall to certify
        ("r=2/3; delta=recurrence(2,5,2)", "unknown", "no-closed-form"),
        # 3^3 >= 5^2 stalls the recurrence at its seed: every gap is 2, a constant tail
        ("r=2/3; delta=recurrence(3,5,2)", "no", "gap-shortfall"),
        ("r=2/3; delta=recurrence(2,3,1)", "no", "gap-shortfall"),
    ])
    def test_decision_tree(self, text, accp, rule):
        c = classify(M(text))
        assert c.accp == accp
        assert c.evidence["rule"] == rule

    def test_single_flag_respects_atomicity(self):
        c = classify(M("r=1/2; delta=geom(1,2)"))
        assert c.atomicity.kind == "antimatter"
        assert c.accp == "n/a"

    def test_geometric_always_decides(self):
        for r in ("2/3", "2/5", "3/8", "2/9", "5/7"):
            for tail in ("geom(1,2)", "geom(3,2)", "geom(1,3)", "geom(2,5)"):
                assert classify(M(f"r={r}; delta={tail}")).accp in ("yes", "no")

    def test_prefix_never_changes_the_verdict(self):
        for text in ("r=2/3; delta=const(1)", "r=2/3; delta=geom(1,2)",
                     "r=2/3; delta=poly(1,1)", "r=2/9; delta=geom(1,2)"):
            base = classify(M(text)).accp
            for i in range(9):
                assert classify(truncate(M(text), i)).accp == base


class TestCheckNecessary:
    def test_bounded_tail_failing(self):
        out = check_necessary(M("r=2/9; delta=const(1)"))
        assert out["bound_holds"] is False
        assert classify(M("r=2/9; delta=const(1)")).accp == "no"

    def test_geometric_holding(self):
        out = check_necessary(M("r=2/3; delta=geom(1,2)"))
        assert out["bound_holds"] is True

    def test_bounded_tail_failing_slow_gaps(self):
        out = check_necessary(M("r=2/3; delta=const(5)"))
        assert out["bound_holds"] is False

    def test_failing_bound_forces_negative_verdict(self):
        for text in ("r=2/9; delta=const(1)", "r=2/3; delta=const(5)",
                     "r=2/9; delta=geom(1,2)", "r=3/5; delta=poly(2,3)"):
            if check_necessary(M(text))["bound_holds"] is False:
                assert classify(M(text)).accp == "no"

    def test_finite_window_is_unknown(self):
        out = check_necessary(M("r=2/3; delta=prefix(1,2); finite"))
        assert (out["bound_holds"], out["rhs"]) == (
            "unknown", "finite exponent set: bound not applicable")

    def test_recurrence_off_the_base_is_unknown(self):
        out = check_necessary(M("r=2/3; delta=recurrence(2,5,2)"))
        assert (out["bound_holds"], out["rhs"]) == ("unknown", "no closed form for this rule")

    @pytest.mark.parametrize("text, holds, rhs", [
        # a stalled recurrence keeps every gap at its seed: delta_n/s_n -> 0
        ("r=2/3; delta=recurrence(2,3,1)", False, "n(r)*1=2 (delta_n/s_n -> 0)"),
        ("r=2/3; delta=recurrence(4,6,2)", False, "n(r)*1=2 (delta_n/s_n -> 0)"),
        ("r=2/3; delta=recurrence(3,5,2)", False, "n(r)*1=2 (delta_n/s_n -> 0)"),
        # log_2 3 = log_4 9: the gap ratios approach log_4 9 from below
        ("r=4/9; delta=recurrence(2,3,2)", True,
         "n(r)^log_n(d)=9 (equality: ratio limit attains the bound)"),
        ("r=2/3; delta=recurrence(2,3,2)", True,
         "n(r)^log_n(d)=3 (equality: ratio limit attains the bound)"),
    ])
    def test_recurrence_bound(self, text, holds, rhs):
        out = check_necessary(M(text))
        assert (out["bound_holds"], out["rhs"]) == (holds, rhs)
        if holds is False:
            assert classify(M(text)).accp == "no"

    @pytest.mark.parametrize("a, b, k, holds", [
        (3, 5, 3, False),  # seed 2 stalls: 3^3 >= 5^2, every gap is 2
        (2, 3, 6, True),
    ])
    def test_counterexample_bound(self, a, b, k, holds):
        spec, _ = construct_counterexample(a, b, k)
        assert check_necessary(ExpMonoid(Ratio(a, b), spec))["bound_holds"] is holds

    def test_not_applicable(self):
        for text in ("r=3/2; delta=const(1)", "r=3; delta=const(1)",
                     "r=1/2; delta=const(1)"):
            with pytest.raises(DomainError):
                check_necessary(M(text))


class TestSeries:
    def test_first_term(self):
        assert series_partial_sums(M("r=2/3; delta=const(1)"), 1) == [Ratio(1)]

    def test_constant_gap_partial_sums(self):
        sums = series_partial_sums(M("r=2/3; delta=const(1)"), 3)
        assert sums == [Ratio(1), Ratio(5, 3), Ratio(19, 9)]

    def test_geometric_partial_sums(self):
        sums = series_partial_sums(M("r=2/3; delta=geom(1,2)"), 2)
        assert sums == [Ratio(1), Ratio(3)]

    def test_requires_contracting(self):
        with pytest.raises(DomainError):
            series_partial_sums(M("r=3/2; delta=const(1)"), 2)

    def test_a_negative_number_of_terms_is_refused(self):
        assert series_partial_sums(M("r=2/3; delta=const(1)"), 0) == []
        with pytest.raises(DomainError, match="^terms must be >= 0$"):
            series_partial_sums(M("r=2/3; delta=const(1)"), -1)

    def test_a_long_series_takes_no_gcd_of_two_long_integers(self, long_gcds):
        # a sum that ends on a gap of 2 carries the factor 2^2 - 1 = 3 of d
        monoid = M("r=2/3; delta=periodic(2,3)")
        sums = series_partial_sums(monoid, 299)
        assert long_gcds == []
        assert sums[-1].den == 3 ** (s_index(monoid, 298) - 1)  # delta_298 = 2


class TestWitnessChain:
    def test_links_verify_exactly(self):
        chain = witness_chain(M("r=2/3; delta=const(1)"), 3)
        assert len(chain.elements) == 4
        for i, y in enumerate(chain.diffs):
            v = evaluate(y)
            assert v != Ratio(0)
            assert chain.elements[i] == chain.elements[i + 1] + v
        # with d^delta - n^delta = 1 every difference is a single atom
        assert all(y.length == 1 for y in chain.diffs)

    def test_equal_logs_give_a_chain(self):
        # r=4/9; recurrence(2,3,2): certified by log_2 3 = log_4 9
        chain = witness_chain(M("r=4/9; delta=recurrence(2,3,2)"), 3)
        assert chain.start == 0 and len(chain.diffs) == 3
        for i, y in enumerate(chain.diffs):
            assert chain.elements[i] == chain.elements[i + 1] + evaluate(y)

    def test_a_smaller_log_gives_a_chain(self):
        # r=2/5; recurrence(2,3,2): certified by log_2 3 < log_2 5; each element
        # and link is checked against Fraction
        m = M("r=2/5; delta=recurrence(2,3,2)")
        chain = witness_chain(m, 4)
        s = [s_index(m, i) for i in range(6)]
        assert chain.start == 0
        for i, y in enumerate(chain.diffs):
            assert Fraction(chain.elements[i].num, chain.elements[i].den) == \
                Fraction(2 ** s[i + 1], 5 ** s[i])
            assert chain.elements[i] == chain.elements[i + 1] + evaluate(y)

    def test_link_check_raises_without_assert(self, monkeypatch):
        # a zero coefficient must trip the explicit link check, which unlike
        # an assert also runs under python -O
        monkeypatch.setattr("puiseux.accp.descending_run", lambda M, k, scan: (0, [0] * k))
        with pytest.raises(ChainError, match="does not verify"):
            witness_chain(M("r=2/3; delta=const(1)"), 3)

    def test_a_true_but_nonpositive_coefficient_is_refused(self, monkeypatch):
        # r=2/3; periodic(1,2) has 3 - 2^2 = -1 at link 0: the integer identity
        # holds there, so only c >= 1 keeps the chain strictly descending
        monkeypatch.setattr("puiseux.accp.descending_run", lambda M, k, scan: (0, [-1, 7]))
        with pytest.raises(ChainError, match="link 0 of the chain does not verify"):
            witness_chain(M("r=2/3; delta=periodic(1,2)"), 2)

    def test_links_that_never_run_in_a_row_give_no_chain(self):
        # classify says no (bounded-delta), but on periodic(1,2) the identity
        # 3^delta_m > 2^delta_{m+1} holds only at odd m: no two links in a row
        with pytest.raises(ChainError, match="^no constructive witness available: the "
                                             "descending identity never holds on a long "
                                             "enough run$"):
            witness_chain(M("r=2/3; delta=periodic(1,2)"), 2)

    def test_wider_gap_coefficient(self):
        chain = witness_chain(M("r=2/5; delta=const(1)"), 2)
        assert all(dict(y.coeffs)[i] == 3 for y in chain.diffs
                   for i in y.support)

    def test_accp_monoid_has_no_chain(self):
        with pytest.raises(ChainError):
            witness_chain(M("r=2/3; delta=geom(1,2)"), 2)

    def test_a_polynomial_tail_past_the_scan_is_unknown(self, monkeypatch):
        # r=60/61; poly(1,0,1) first descends at index 496; with a scan of 50
        # the classifier must say unknown and refuse to build a chain
        monkeypatch.setattr("puiseux.monoid.SCAN_LIMIT", 50)
        m = M("r=60/61; delta=poly(1,0,1)")
        c = classify(m)
        assert (c.accp, c.evidence["rule"]) == ("unknown", "no-closed-form")
        with pytest.raises(ChainError, match="not certified"):
            witness_chain(m, 1)

    def test_each_gap_is_read_a_bounded_number_of_times(self, monkeypatch):
        k = 50
        chain, reads = _gap_reads(monkeypatch, lambda: witness_chain(M("r=2/3; delta=const(1)"), k))
        assert len(chain.diffs) == k
        # k + 1 gaps for the run, k + 1 more for the links, none through delta
        assert reads == {"spec": 0, "tail": 2 * k + 2}

    def test_links_are_checked_on_carried_powers(self, monkeypatch):
        # s_index once, for the anchor; no link is built by make or evaluated
        counts = {"s_index": 0, "evaluate": 0, "make": 0, "over_power": 0, "Factorization": 0}

        def counted(name, f):
            def wrapper(*args):
                counts[name] += 1
                return f(*args)
            return wrapper

        for info in pkgutil.iter_modules(puiseux.__path__):
            module = importlib.import_module(f"puiseux.{info.name}")
            for name, f in (("s_index", s_index), ("evaluate", evaluate)):
                if getattr(module, name, None) is f:
                    monkeypatch.setattr(module, name, counted(name, f))
        make = Factorization.make.__func__
        monkeypatch.setattr(Factorization, "make",
                            classmethod(counted("make", make)))
        # nor is any element built by over_power or link by __init__: the
        # elements come reduced from power_quotients, the links by __new__
        over_power = Ratio.over_power
        monkeypatch.setattr(Ratio, "over_power", staticmethod(counted("over_power", over_power)))
        monkeypatch.setattr(Factorization, "__init__",
                            counted("Factorization", Factorization.__init__))
        chain = witness_chain(M("r=2/3; delta=const(1)"), 50)
        assert len(chain.diffs) == 50
        assert counts == {"s_index": 1, "evaluate": 0, "make": 0, "over_power": 0,
                          "Factorization": 0}

    @pytest.mark.parametrize("spec", ["r=60/61; delta=poly(1,0,1)", "r=90/91; delta=poly(1,0,1)"])
    def test_a_late_shortfall_names_powers_it_never_forms(self, spec):
        # the evidence powers, 61^246017 and 91^664226 among them, are past
        # the digit cap: formed only to learn that, each took megabytes
        tracemalloc.start()
        try:
            c = classify(M(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.accp == "no" and "^" in c.evidence["instance"]
        assert peak <= 128 * 1024

    @pytest.mark.parametrize("spec, instance", [
        ("r=60/61; delta=poly(1,0,1)", "d^delta_496=61^246017 > n^delta_497=60^247010"),
        ("r=90/91; delta=poly(1,0,1)", "d^delta_815=91^664226 > n^delta_816=90^665857"),
    ], ids=["60/61", "90/91"])
    def test_a_cold_scan_forms_no_power_past_2_20_bits(self, spec, instance):
        # with the log2 brackets uncached, every bracket is squared up from
        # d and n: a power of 2^20 bits would alone take 128 KB
        _log2_bounds.cache_clear()
        tracemalloc.start()
        try:
            c = classify(M(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (c.accp, c.evidence["instance"]) == ("no", instance)
        assert peak < 2 ** 20 // 8

    def test_a_deep_link_is_found_where_the_classifier_names_it(self):
        # d = 21 is close to n = 20, so the first link lies past index 64
        monoid = M("r=20/21; delta=poly(1,0,1)")
        assert classify(monoid).evidence["instance"].startswith("d^delta_124=")
        assert witness_chain(monoid, 1).start == 124

    def test_a_deep_chain_takes_no_gcd_of_two_long_integers(self, long_gcds):
        # every element and link value is reduced against d alone; one gcd
        # against 21^{s_125}, 2.8 megabits, takes seconds
        assert witness_chain(M("r=20/21; delta=poly(1,0,1)"), 1).start == 124
        assert long_gcds == []

    @pytest.mark.parametrize("text, k", [
        ("r=2/3; delta=const(1)", 300), ("r=2/3; delta=periodic(2,3)", 300),
        ("r=2/3; delta=poly(1,1)", 100), ("r=4/9; delta=recurrence(2,3,2)", 16),
        ("r=3/4; delta=prefix(2,1);const(1)", 300)])
    def test_long_chains_are_reduced_and_exact(self, text, k):
        # Ratio.__eq__ compares fields, so an unreduced element would make it
        # answer wrongly without any error: check gcd 1 outright
        monoid = M(text)
        chain = witness_chain(monoid, k)
        n, d = monoid.r.num, monoid.r.den
        s = [s_index(monoid, chain.start)]
        for delta in islice(monoid.delta.gaps(chain.start), k + 1):
            s.append(s[-1] + delta)
        assert len(chain.elements) == k + 1
        for m, x in enumerate(chain.elements):
            want = Fraction(n ** s[m + 1], d ** s[m])
            assert gcd(x.num, x.den) == 1
            assert (x.num, x.den) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("link", range(4))
    @pytest.mark.parametrize("wrong", ["numerator plus one", "next link", "denominator times d"])
    def test_a_wrong_link_value_is_refused(self, monkeypatch, wrong, link):
        # one wrong coefficient among right ones; poly(1,1) has coefficients
        # 1, 11, 49, 179, 601 from index 1, so no two links share one
        monoid = M("r=2/3; delta=poly(1,1)")
        start, coeffs = descending_run(monoid, 5, 100)
        right = coeffs[link]
        coeffs[link] = {"numerator plus one": right + 1,
                        "next link": coeffs[link + 1],
                        "denominator times d": right * 3}[wrong]
        monkeypatch.setattr("puiseux.accp.descending_run",
                            lambda M, k, scan: (start, coeffs[:k]))
        with pytest.raises(ChainError,
                           match=f"link {start + link} of the chain does not verify"):
            witness_chain(monoid, 4)

    def test_consistency_with_classifier(self):
        for text in ("r=2/3; delta=const(1)", "r=2/3; delta=poly(1,1)",
                     "r=2/9; delta=geom(1,2)"):
            assert classify(M(text)).accp == "no"
            chain = witness_chain(M(text), 4)
            assert len(chain.diffs) == 4


class TestCounterexample:
    def test_reference_instance(self):
        spec, report = construct_counterexample(2, 3, 6)
        assert report["delta"] == [2, 3, 4, 6, 9, 14]
        assert report["verified"] is True
        assert "warning" not in report
        assert isinstance(spec.tail, Recurrence)

    def test_reduction_warning(self):
        spec, report = construct_counterexample(2, 4, 3)
        assert report["delta"] == [2, 3, 5]
        assert "warning" in report

    def test_reduction_warning_names_the_reduced_base(self):
        _, report = construct_counterexample(4, 6, 3)
        assert report["warning"] == "r=4/6 reduces to 2/3"

    def test_constant_recurrence(self):
        spec, report = construct_counterexample(3, 5, 3)
        assert report["delta"] == [2, 2, 2]
        assert report["verified"] is True
        assert classify(ExpMonoid(Ratio(3, 5), spec)).accp == "no"

    def test_usage_errors(self):
        with pytest.raises(DomainError):
            construct_counterexample(2, 3, 1)
        with pytest.raises(DomainError):
            construct_counterexample(3, 2, 4)

    def test_each_check_is_one_comparator_call_on_one_pair_of_powers(self, monkeypatch):
        # (2, 3, 17): the gaps run to 2096, so the last check is past the
        # 4096-bit cut and reads brackets, and the others form a^delta_{j+1}
        # and b^delta_j once each, for both sides of the check
        from puiseux import accp, monoid
        rank, ipow, calls = monoid._rank, monoid._ipow, []

        def counted_rank(*args):
            calls.append([])
            return rank(*args)

        def counted_ipow(base, e):
            if calls and e:
                calls[-1].append((base, e))
            return ipow(base, e)

        monkeypatch.setattr(accp, "_rank", counted_rank)
        monkeypatch.setattr(monoid, "_ipow", counted_ipow)
        _, report = construct_counterexample(2, 3, 17)
        delta = report["delta"]
        assert len(calls) == len(report["checks"]) == 16
        assert calls[:-1] == [[(2, delta[j + 1]), (3, delta[j])] for j in range(15)]
        assert calls[-1] == [] and delta[-1] * 2 > 4096
        assert report["verified"] is True

    @pytest.mark.parametrize("a, b, k, seed", [(2, 3, 17, 2), (2, 5, 9, 2), (3, 7, 12, 2),
                                               (3, 5, 16, 5), (2, 12, 30, 2), (4, 8, 12, 2),
                                               (9, 27, 10, 3), (13, 15, 10, 1)])
    def test_each_check_matches_the_formed_powers(self, a, b, k, seed):
        # (4, 8) and (9, 27) meet exact ties b^delta = a^m; (2, 12, 30) runs
        # far past the cut, where only the last checks are formed here
        _, report = construct_counterexample(a, b, k, seed)
        for check, low, high in zip(report["checks"], report["delta"], report["delta"][1:]):
            if high * a.bit_length() > 20000:
                continue
            assert check["descending_ok"] == (b ** low > a ** high)
            assert check["ratio_close_ok"] == (a ** (high + 1) >= b ** low)

    def test_satisfies_necessary_bound_yet_fails_accp(self):
        spec, _ = construct_counterexample(2, 3, 6)
        monoid = ExpMonoid(Ratio(2, 3), spec)
        assert check_necessary(monoid)["bound_holds"] is True
        assert classify(monoid).accp == "no"


def empirical_probe(M: ExpMonoid, x: Factorization, depth: int) -> Dict[str, object]:
    """Longest strictly descending divisibility chain found from evaluate(x).

    Depth-first search over subtractions of single atoms, with bounded
    membership checks on each remainder. For ACCP monoids the chain must
    stop short of any requested depth; deterministic given its inputs.
    """
    verdict = classify_atomicity(M)
    if verdict.kind != "atomic":
        raise DomainError("probe requires an atomic monoid")
    if depth < 0:
        raise DomainError("depth must be >= 0")
    start = evaluate(x)
    if start == ZERO:
        return {"chain_length": 0, "chain": [str(start)]}

    limit = M.delta.max_exponent_index
    top = x.top_index + depth + 2
    if limit is not None:
        top = min(top, limit)
    # keep exponents desk-scale: fast-growing gap rules would otherwise
    # produce atoms with astronomically long numerators
    s_cap = s_index(M, x.top_index) + max(64, 4 * depth)
    atoms = []
    for m in range(top + 1):
        if s_index(M, m) > s_cap:
            top = m - 1
            break
        atoms.append(M.r ** s_index(M, m))
    memo: Dict[Tuple[Ratio, int], List[Ratio]] = {}

    def member(v: Ratio) -> bool:
        return is_member(v, M, top).is_member

    def longest(v: Ratio, budget: int) -> List[Ratio]:
        if budget == 0:
            return []
        key = (v, budget)
        if key in memo:
            return memo[key]
        best: List[Ratio] = []
        for a in atoms:
            if not a < v:
                continue
            w = v - a
            if w == ZERO or not member(w):
                continue
            tail = longest(w, budget - 1)
            if 1 + len(tail) > len(best):
                best = [w] + tail
            if len(best) == budget:
                break
        memo[key] = best
        return best

    chain = [start] + longest(start, depth)
    return {"chain_length": len(chain) - 1, "chain": [str(v) for v in chain]}


class TestEmpiricalProbe:
    def test_accp_monoid_terminates_early(self):
        monoid = M("r=2/3; delta=geom(1,2)")
        out = empirical_probe(monoid, Factorization.make(monoid, {0: 2}), 20)
        assert out["chain_length"] < 20

    def test_non_accp_monoid_fills_the_depth(self):
        monoid = M("r=2/3; delta=const(1)")
        out = empirical_probe(monoid, Factorization.make(monoid, {0: 2}), 10)
        assert out["chain_length"] == 10

    def test_empty_start(self):
        monoid = M("r=2/3; delta=const(1)")
        out = empirical_probe(monoid, Factorization.make(monoid, {}), 5)
        assert out["chain_length"] == 0

    def test_requires_atomic(self):
        monoid = M("r=1/2; delta=const(1)")
        with pytest.raises(DomainError):
            empirical_probe(monoid, Factorization.make(monoid, {0: 1}), 3)
