"""Membership and divisibility queries.

Membership is fully decided for r > 1 and for finite exponent windows; for
r < 1 a bounded search either produces an exact witness or reports the bound
it exhausted. Denominator obstructions give definitive negatives: every
element's denominator divides a power of d(r).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .factorization import Factorization, _search, _shortest, min_normal_form
from .monoid import ExpMonoid, s_index
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


def default_support_bound(q: Ratio, M: ExpMonoid) -> int:
    """m + 3 for the least m with d(q) | d(r)^{s_m}, capped at index 512 or
    the window's end; the 3 covers a witness a few levels above that m."""
    d = M.r.den
    limit = M.delta.max_exponent_index
    top = 512 if limit is None else limit
    for m in range(top + 1):
        if pow(d, s_index(M, m), q.den) == 0:
            return min(m + 3, top)
    return top


def is_member(q: Ratio, M: ExpMonoid, support_bound: Optional[int] = None) -> MembershipResult:
    if support_bound is not None and support_bound < 0:
        raise DomainError("support bound must be >= 0")
    # no prime occurs in d(x) more often than its bit length, so d(x) divides
    # a power of d(r) exactly when it divides that one
    if pow(M.r.den, q.den.bit_length(), q.den) != 0:
        return MembershipResult(
            "not-member", reason=f"a prime of d(x)={q.den} does not divide d(r)={M.r.den}")

    finite = M.delta.is_finite
    if M.r >= Ratio(1) or finite:
        # complete enumeration: for r > 1 atoms eventually exceed q, for a
        # finite window the support is bounded outright
        if finite:
            bound = M.delta.max_exponent_index
        elif M.r == Ratio(1):
            bound = 0
        else:
            bound = 0
            while M.r ** s_index(M, bound) <= q:
                bound += 1
        best = _shortest(q, M, bound)
        if best is not None:
            return MembershipResult("member", Factorization(M, best))
        return MembershipResult(
            "not-member", reason=f"exhausted complete search up to support {bound}")

    bound = support_bound if support_bound is not None else default_support_bound(q, M)
    # one witness suffices: its normal form is the global minimum anyway
    first = next(_search(q, M, bound), None)
    if first is not None:
        return MembershipResult("member", min_normal_form(Factorization(M, first)))
    return MembershipResult("unresolved", bound=bound)


def divides(x: Ratio, y: Ratio, M: ExpMonoid) -> MembershipResult:
    """Whether x divides y in M, i.e. y - x is a member."""
    if y < x:
        return MembershipResult("not-member", reason="negative difference")
    return is_member(y - x, M)
