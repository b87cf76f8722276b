"""Membership and divisibility queries.

Membership is fully decided for r > 1 and for finite exponent windows; for
r < 1 a bounded search either produces an exact witness or reports the bound
it exhausted. Denominator obstructions give definitive negatives: every
element's denominator divides a power of d(r).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .errors import DomainError
from .factorization import Factorization, _search, _sweep, min_normal_form
from .monoid import ExpMonoid
from .ratio import Ratio


@dataclass(frozen=True)
class MembershipResult:
    status: str                      # "member" | "not-member" | "unresolved"
    witness: Optional[Factorization] = None
    reason: Optional[str] = None
    bound: Optional[int] = None

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def _complete_index(q: Ratio, M: ExpMonoid, top: int) -> int:
    """The least m < top with d(q) | d(r)^{s_m}, or top when there is none."""
    for m, s in zip(range(top), accumulate(M.delta.gaps(), initial=0)):
        if pow(M.r.den, s, q.den) == 0:
            return m
    return top


def default_support_bound(q: Ratio, M: ExpMonoid) -> int:
    """m + 3 for the least m with d(q) | d(r)^{s_m}, capped at index 512 or
    the window's end. The search of is_member stops at m itself, which is
    complete; the 3 only sets the bound that an unresolved answer reports."""
    limit = M.delta.max_exponent_index
    top = 512 if limit is None else limit
    return min(_complete_index(q, M, top) + 3, top)


def is_member(q: Ratio, M: ExpMonoid, support_bound: Optional[int] = None) -> MembershipResult:
    """Whether q is in M, with a witness of least length when it is.

    One search finds the first factorization, and one pass brings it to the
    least-length form. For r >= 1 the search is complete at the window's
    end, at 0 for r = 1 (every atom is 1), or at the first n with r^{s_n} >
    q (atoms from there on exceed q). For r < 1 it runs at m =
    _complete_index(q, M, B), B the window's end or, for an infinite tail,
    support_bound or default_support_bound, and answers as the search with
    support in [0, B] would.

    r < 1: if q has a factorization in [0, B], its minimum normal form has a
    top index t <= B (down-steps only lower indices) and c_i <
    d^{delta_{i-1}} for i >= 1. Every term is a fraction over d^{s_t}; the
    top term's reduced denominator is d^{s_t} / gcd(c_t, d^{s_t}) >
    d^{s_{t-1}}, as n and d are coprime, while the lower terms sum to a
    fraction over d^{s_{t-1}}. So t is the least j with d(q) | d^{s_j}, m =
    t, and [0, m] holds a witness exactly when [0, B] does; both witnesses
    have the one minimum normal form that is returned.

    r > 1: an up-step, n^{delta_i} atoms at level i for d^{delta_i} at level
    i+1, shortens a factorization by n^{delta_i} - d^{delta_i} > 0, so the
    least length is that of the form with c_i < n^{delta_i} at every level
    below the top, which the residue argument of `_runs` makes unique; the
    carry sweep ends there. For r = 1 every factorization has length q and
    the first is returned.
    """
    if support_bound is not None and support_bound < 0:
        raise DomainError("support bound must be >= 0")
    # no prime occurs in d(x) more often than its bit length, so d(x) divides
    # a power of d(r) exactly when it divides that one
    if pow(M.r.den, q.den.bit_length(), q.den) != 0:
        return MembershipResult(
            "not-member", reason=f"a prime of d(x)={q.den} does not divide d(r)={M.r.den}")

    finite, contracting = M.delta.tail is None, M.r < Ratio(1)
    if finite:
        bound = M.delta.max_exponent_index
    elif contracting:
        bound = support_bound if support_bound is not None else default_support_bound(q, M)
    elif M.r == Ratio(1):
        bound = 0
    else:
        s = accumulate(M.delta.gaps(), initial=0)
        bound = next(i for i, e in enumerate(s) if M.r ** e > q)
    first = next(_search(q, M, _complete_index(q, M, bound) if contracting else bound), None)
    if first is None:
        if contracting and not finite:
            return MembershipResult("unresolved", bound=bound)
        return MembershipResult(
            "not-member", reason=f"exhausted complete search up to support {bound}")
    z = Factorization(M, first)
    if contracting:
        z = min_normal_form(z)
    elif M.r != Ratio(1):
        # past the prefix a mixed tail gives the sweep no certificate, so it
        # needs the complete bound, which its levels never pass
        z = _sweep(z, bound).found
    return MembershipResult("member", z)


def divides(x: Ratio, y: Ratio, M: ExpMonoid) -> MembershipResult:
    """Whether x divides y in M, i.e. y - x is a member."""
    if y < x:
        return MembershipResult("not-member", reason="negative difference")
    return is_member(y - x, M)
