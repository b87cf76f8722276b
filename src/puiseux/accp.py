"""Chain-condition classifier for exponential Puiseux monoids.

For atomic monoids the finite-factorization, bounded-factorization, and
ascending-chain properties coincide, so a single flag is reported. The
decision tree works symbolically on the gap rule: bounded tails are always
negative, geometric tails reduce to one integer comparison, polynomial
tails are eventually negative because their gap ratio tends to 1, and the
log-recurrence family is negative by construction. Negative verdicts come
with constructive strictly-descending divisibility chains; Unknown is a
first-class verdict for anything the exact rules cannot settle.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Dict, List, Tuple

from .errors import ChainError, DomainError
from .monoid import (SCAN_LIMIT, DeltaSpec, ExpMonoid, Recurrence, classify_atomicity,
                     descending_run, s_index, _rank)
from .ratio import Ratio, _Value


class Classification(_Value):
    # accp: "yes" | "no" | "unknown" | "n/a"
    __slots__ = ("atomicity", "accp", "evidence")


class WitnessChain(_Value):
    # elements: x_start > x_start+1 > ...; diffs: x_m = x_{m+1} + value(diffs[m])
    __slots__ = ("start", "elements", "diffs")


def classify(M: ExpMonoid) -> Classification:
    atom_verdict = classify_atomicity(M)
    if atom_verdict.kind == "iso-naturals":
        W = M.delta.max_exponent_index
        instance = "d(r)=1" if M.r.den == 1 else f"n(r)=1, atoms {{r^s_{W}}} = {atom_verdict.atoms}"
        return Classification(atom_verdict, "yes", {"rule": "iso-naturals", "instance": instance})
    if atom_verdict.kind == "antimatter":
        return Classification(atom_verdict, "n/a",
                              {"rule": "antimatter", "instance": "n(r)=1, d(r)>1"})
    if M.delta.tail is None:
        return Classification(atom_verdict, "yes",
                              {"rule": "finitely-generated",
                               "instance": f"|S|={M.delta.max_exponent_index + 1}"})
    if M.r.num > M.r.den:
        return Classification(atom_verdict, "yes",
                              {"rule": "r-above-one", "instance": f"r={M.r}>1"})

    # r < 1: the finite prefix never matters (truncation invariance)
    accp, rule, instance = M.delta.tail.accp_rule(M)
    return Classification(atom_verdict, accp, {"rule": rule, "instance": instance})


def check_necessary(M: ExpMonoid) -> Dict[str, object]:
    """Exact form of the necessary bound d(r) <= n(r) * limsup n(r)^{delta_n/s_n}.

    The limsup factor has a closed form per tail family: gap rules with
    delta_n/s_n -> 0 give factor 1; a geometric ratio c gives n^{c-1}; the
    log-recurrence attains the bound with equality. A failing bound rules
    the ACCP out; a holding bound decides nothing by itself.
    """
    n, d = M.r.num, M.r.den
    if n == 1 or d == 1 or n > d:
        raise DomainError("not applicable: needs an atomic monoid with r < 1")
    lhs = f"d(r)={d}"
    if M.delta.tail is None:
        return {"bound_holds": "unknown", "lhs": lhs,
                "rhs": "finite exponent set: bound not applicable"}
    holds, rhs = M.delta.tail.necessary_bound(n, d)
    return {"bound_holds": holds, "lhs": lhs, "rhs": rhs}


def series_partial_sums(M: ExpMonoid, terms: int) -> List[Ratio]:
    """Exact partial sums of sum_k (n^{delta_k} - 1) r^{s_k}; diagnostic only."""
    if M.r.num >= M.r.den:
        raise DomainError("series diagnostic requires r < 1")
    if terms < 0:
        raise DomainError("terms must be >= 0")
    n, d = M.r.num, M.r.den
    out: List[Ratio] = []
    total, n_pow, d_pow = 0, 1, 1  # the sum over d^{s_k}; n^{s_k}; d^{s_k}
    for k, delta in enumerate(islice(M.delta.gaps(), terms)):
        n_delta = n ** delta
        total += (n_delta - 1) * n_pow
        out.append(Ratio.over_power(total, d_pow, d))
        if k + 1 < terms:  # on to s_{k+1}; past the last term d^{delta_k} is unused
            d_delta = d ** delta
            total, n_pow, d_pow = total * d_delta, n_pow * n_delta, d_pow * d_delta
    return out


def witness_chain(M: ExpMonoid, k: int) -> WitnessChain:
    """A strictly descending divisibility chain of k verified links.

    Built from the identity
        n^{delta_m} r^{s_m} = (d^{delta_m} - n^{delta_{m+1}}) r^{s_{m+1}}
                              + n^{delta_{m+1}} r^{s_{m+1}},
    which needs d^{delta_m} > n^{delta_{m+1}} at every link; the chain is
    anchored at the first index from which that holds k times in a row
    (``descending_run``). Element m is x_m = n^{s_{m+1}} / d^{s_m}, read off
    ``Ratio.power_quotients``, which carries both powers from index to index
    and takes no gcd. Link m, coefficient c_m >= 1 at index m+1, is checked
    against the stored elements by one multiply-add over d^{s_{m+1}}:
        n^{s_{m+1}} d^{delta_m} = n^{s_{m+2}} + c_m n^{s_{m+1}}.
    The links' Factorizations are made in the one bulk pass of
    ``enumerate_all``, ``factorization._factorizations``.
    """
    # here alone: classify needs no factorizations
    from .factorization import _factorizations
    if k < 1:
        raise DomainError("chain length must be >= 1")
    if classify(M).accp != "no":
        raise ChainError("no constructive witness available: monoid is not "
                         "certified non-ACCP")
    found = descending_run(M, k, len(M.delta.prefix) + 4 * k + SCAN_LIMIT)
    if found is None:
        raise ChainError("no constructive witness available: the descending "
                         "identity never holds on a long enough run")
    start, coeffs = found
    gaps = list(islice(M.delta.gaps(start), k + 1))
    s, d = s_index(M, start), M.r.den
    elements = tuple(M.r.power_quotients(s + gaps[0], s, zip(gaps[1:], gaps)))
    links = []
    for m, prev, x, delta, coeff in zip(count(start), elements, elements[1:], gaps, coeffs):
        d_step = d ** delta
        if (coeff < 1 or prev.den * d_step != x.den
                or prev.num * d_step != x.num + coeff * prev.num):
            raise ChainError(f"link {m} of the chain does not verify")
        links.append(((m + 1, coeff),))
    return WitnessChain(start, elements, tuple(_factorizations(M, links)))


def construct_counterexample(a: int, b: int, k: int,
                             seed: int = 2) -> Tuple[DeltaSpec, Dict[str, object]]:
    """Gap prefix delta_{j+1} = max{m : a^m < b^{delta_j}} with verification.

    Every step is checked exactly: (i) b^{delta_j} > a^{delta_{j+1}} (the
    descending-chain condition for r = a/b) and (ii) a^{delta_{j+1}+1} >=
    b^{delta_j} (the gap ratio sits within 1/delta_j below log_a b). One
    `monoid._rank` call per step counts how many of a^{delta_{j+1}} and
    a^{delta_{j+1}+1} reach b^{delta_j}: (i) holds when fewer than two do,
    (ii) when one does. It forms one pair of powers below 4096 bits and reads
    integer log2 brackets above. The returned spec continues the recurrence
    past the explicit prefix.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if not (1 < a < b):
        raise DomainError("need 1 < a < b")
    rec = Recurrence(a, b, seed)
    delta = [rec.delta(j) for j in range(k)]
    checks = []
    for j in range(k - 1):
        rank = _rank(a, delta[j + 1], b, delta[j])
        checks.append({"step": j,
                       "descending": f"{b}^{delta[j]} > {a}^{delta[j + 1]}",
                       "descending_ok": rank < 2,
                       "ratio_close": f"{a}^{delta[j + 1] + 1} >= {b}^{delta[j]}",
                       "ratio_close_ok": rank > 0})
    report: Dict[str, object] = {
        "delta": list(delta),
        "checks": checks,
        "verified": all(c["descending_ok"] and c["ratio_close_ok"] for c in checks),
    }
    r = Ratio(a, b)
    if r.num == 1:
        report["warning"] = (f"r={a}/{b} reduces to {r}: the monoid is "
                            "antimatter, gaps emitted anyway")
    elif (r.num, r.den) != (a, b):
        report["warning"] = f"r={a}/{b} reduces to {r}"
    spec = DeltaSpec(tuple(delta), rec.shifted(k))
    return spec, report

