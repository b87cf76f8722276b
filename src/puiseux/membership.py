"""Membership and divisibility queries.

One walk over the levels, `factorization._least_form`, reads off a member's
least-length factorization with no search. Every factorization with support
in [0, B] reaches the walk's form by steps that keep its value, stay inside
[0, B] and shorten it: for r > 1 up-steps, n^{delta_i} atoms at level i for
d^{delta_i} at i+1, which end at c_i < n^{delta_i} below B; for r < 1
down-steps, which end at c_i < d^{delta_{i-1}} above 0, the minimum normal
form. The residue argument of `_leaves` fixes each such c_i modulo its step,
so the form is unique, and the walk, which takes the least residue at each
level, completes exactly when x has a factorization in [0, B]. For r = 1
the form is x atoms at level 0.

Membership is decided for r >= 1 and for finite windows; for r < 1 with an
infinite tail the walk gives a witness or the bound it used is reported.
Denominator obstructions give definitive negatives: every element's
denominator divides a power of d(r).

The semiring layer's bridge to the monoid layer lives here, so that layer
loads none of it: `exponent_monoid`, which reads an exponent set N through
`N.window()` alone, `mult_divisor_bound` and `mult_divides`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Tuple

from .errors import DomainError
from .factorization import Factorization, _checked, _least_form
from .monoid import Constant, DeltaSpec, ExpMonoid
from .ratio import Ratio, _Value, _set, max_power_dividing


class MembershipResult(_Value):
    __slots__ = ("status", "witness", "reason", "bound")

    def __init__(self, status: str, witness: Optional[Factorization] = None,
                 reason: Optional[str] = None, bound: Optional[int] = None):
        _set(self, "status", status)  # "member" | "not-member" | "unresolved"
        _set(self, "witness", witness)
        _set(self, "reason", reason)
        _set(self, "bound", bound)

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def _complete_index(q: Ratio, M: ExpMonoid, top: int) -> int:
    """The least m < top with d(q) | d(r)^{s_m}, or top when there is none."""
    for m, s in zip(range(top), accumulate(M.delta.gaps(), initial=0)):
        if pow(M.r.den, s, q.den) == 0:
            return m
    return top


def is_member(q: Ratio, M: ExpMonoid, support_bound: Optional[int] = None) -> MembershipResult:
    """Whether q is in M, with a witness of least length when it is.

    One walk with support in [0, B] decides it. For r > 1, B is the window's
    end or the first n with r^{s_n} > q, past which atoms exceed q; for r = 1
    it is 0. For r < 1, B = _complete_index(q, M, top), top the window's end,
    support_bound or index 512, and the answer is the one for [0, top]; an
    unresolved answer reports support_bound, or else min(B + 3, 512).

    r < 1: if q has a factorization in [0, top], its minimum normal form has
    a top index t <= top (down-steps only lower indices) and c_i <
    d^{delta_{i-1}} for i >= 1. Every term is a fraction over d^{s_t}; the
    top term's reduced denominator is d^{s_t} / gcd(c_t, d^{s_t}) >
    d^{s_{t-1}}, as n and d are coprime, while the lower terms sum to a
    fraction over d^{s_{t-1}}. So t is the least j with d(q) | d^{s_j}, t =
    B, and [0, B] holds a witness exactly when [0, top] does.
    """
    if support_bound is not None and support_bound < 0:
        raise DomainError("support bound must be >= 0")
    # no prime occurs in d(x) more often than its bit length, so d(x) divides
    # a power of d(r) exactly when it divides that one
    if pow(M.r.den, q.den.bit_length(), q.den) != 0:
        return MembershipResult(
            "not-member", reason=f"a prime of d(x)={q.den} does not divide d(r)={M.r.den}")

    n, d, window = M.r.num, M.r.den, M.delta.max_exponent_index
    if n < d:
        top = window if window is not None else support_bound
        B = _complete_index(q, M, 512 if top is None else top)
        bound = min(B + 3, 512) if top is None else top
    elif window is not None or n == d:
        B = bound = 0 if n == d else window
    else:
        s = accumulate(M.delta.gaps(), initial=0)
        B = bound = next(i for i, e in enumerate(s) if n ** e * q.den > q.num * d ** e)
    coeffs = _least_form(q, M, B)
    if coeffs is None:
        if n < d and window is None:
            return MembershipResult("unresolved", bound=bound)
        return MembershipResult(
            "not-member", reason=f"exhausted complete search up to support {bound}")
    return MembershipResult("member", _checked(M, coeffs, q, "the least form"))


def divides(x: Ratio, y: Ratio, M: ExpMonoid) -> MembershipResult:
    """Whether x divides y in M, i.e. y - x is a member."""
    if y < x:
        return MembershipResult("not-member", reason="negative difference")
    return is_member(y - x, M)


def exponent_monoid(r: Ratio, N) -> Tuple[ExpMonoid, int]:
    """The generated monoid as an explicit gap spec, plus the least exponent.

    Past its conductor every exponent set here is an arithmetic tail with
    step gcd(N), so a finite gap prefix plus a constant tail is exact. When
    min(N) > 0 the monoid is r^{min} times the shifted monoid; the shift is
    returned so callers can divide it out.
    """
    members, step = N.window()
    gaps = tuple(b - a for a, b in zip(members, members[1:]))
    # drop the stabilized run of `step` gaps into the constant tail
    cut = len(gaps)
    while cut > 0 and gaps[cut - 1] == step:
        cut -= 1
    spec = DeltaSpec(gaps[:cut], Constant(step))
    return ExpMonoid(r, spec), members[0]


def mult_divisor_bound(r: Ratio, x: Ratio) -> int:
    """max{n : n(r)^n | n(x)}: no higher power of r divides x multiplicatively."""
    if not 1 < r.num < r.den:
        raise DomainError("not applicable: needs r < 1 < n(r)")
    if x.num == 0:
        raise DomainError("not applicable: x must be positive")
    return max_power_dividing(r.num, x.num)


def mult_divides(r: Ratio, n: int, x: Ratio, N) -> MembershipResult:
    """Whether r^n divides x in the multiplicative monoid of the semiring."""
    if x.num == 0:
        raise DomainError("x must be positive")
    if n < 0:
        raise DomainError("n must be >= 0")
    if 1 < r.num < r.den:
        bound = max_power_dividing(r.num, x.num)
        if n > bound:
            return MembershipResult(
                "not-member",
                reason=f"n={n} exceeds the multiplicative divisor bound {bound}")
    M, base = exponent_monoid(r, N)
    return is_member(x / r ** (n + base), M)
