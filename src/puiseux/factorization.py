"""Factorizations as finite-support coefficient vectors over a monoid's atoms.

Includes the down-rewriting identity, the unique minimum-length normal form,
the deterministic carry sweep that detects the (at most one) maximum-length
factorization, bounded exact enumeration, and length sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import DomainError, StepError
from .monoid import ExpMonoid, s_index
from .ratio import Ratio, ZERO


@dataclass(frozen=True)
class Factorization:
    monoid: ExpMonoid
    coeffs: Tuple[Tuple[int, int], ...]  # sorted (index, coeff >= 1) pairs

    @classmethod
    def make(cls, monoid: ExpMonoid, coeffs) -> "Factorization":
        """Build from a dict or iterable of (index, coeff); zeros are dropped."""
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        cleaned = {}
        for i, c in items:
            i, c = int(i), int(c)
            if c < 0 or i < 0:
                raise DomainError("coefficients and indices must be nonnegative")
            if c:
                cleaned[i] = cleaned.get(i, 0) + c
        return cls(monoid, tuple(sorted(cleaned.items())))

    def as_dict(self) -> Dict[int, int]:
        return dict(self.coeffs)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.coeffs)

    @property
    def top_index(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    @property
    def length(self) -> int:
        return sum(c for _, c in self.coeffs)

    def as_pairs(self) -> List[List[int]]:
        return [[i, c] for i, c in self.coeffs]


@dataclass(frozen=True)
class MaxLengthOutcome:
    found: Optional[Factorization]
    levels_explored: int

    @property
    def terminated(self) -> bool:
        return self.found is not None


def evaluate(z: Factorization) -> Ratio:
    """The exact value sum c_n * r**s_n; the empty factorization gives 0.

    The terms are summed over the common denominator d^S, S the top exponent,
    and only the sum is reduced.
    """
    n, d = z.monoid.r.num, z.monoid.r.den
    s = [s_index(z.monoid, i) for i, _ in z.coeffs]
    top = s[-1] if s else 0
    total = sum(c * n ** e * d ** (top - e) for (_, c), e in zip(z.coeffs, s))
    return Ratio.over_power(total, d ** top, d)


def _require_contracting(M: ExpMonoid, what: str) -> None:
    if M.r >= Ratio(1):
        raise DomainError(f"{what} requires r < 1; use finite enumeration")


def rewrite_down_step(z: Factorization, i: int) -> Factorization:
    """Trade d^{delta_{i-1}} atoms at level i for n^{delta_{i-1}} at level i-1.

    Value is preserved exactly; length strictly decreases when r < 1.
    """
    M = z.monoid
    _require_contracting(M, "down-rewriting")
    if i < 1:
        raise StepError("step index must be >= 1")
    d_pow = M.r.den ** M.delta.delta(i - 1)
    n_pow = M.r.num ** M.delta.delta(i - 1)
    coeffs = z.as_dict()
    if coeffs.get(i, 0) < d_pow:
        raise StepError(f"step not applicable at level {i}: need c_{i} >= {d_pow}")
    coeffs[i] -= d_pow
    coeffs[i - 1] = coeffs.get(i - 1, 0) + n_pow
    out = Factorization.make(M, coeffs)
    if evaluate(out) != evaluate(z):
        raise StepError(f"rewrite at level {i} changed the value")
    return out


def min_normal_form(z: Factorization) -> Factorization:
    """The unique minimum-length factorization of evaluate(z).

    One downward pass over the levels that hold a coefficient, from the top
    index to 1: level i keeps c_i mod d^{delta_{i-1}} and moves the quotient
    q down as q * n^{delta_{i-1}} atoms at level i-1. A step at i changes
    only levels i and i-1, so every level above i stays normal, and the
    pass leaves c_i < d^{delta_{i-1}} at every i >= 1.
    """
    M = z.monoid
    _require_contracting(M, "the minimum normal form")
    value = evaluate(z)
    coeffs = z.as_dict()
    levels = sorted(coeffs)
    while levels and levels[-1] >= 1:
        i = levels.pop()
        delta = M.delta.delta(i - 1)
        q, coeffs[i] = divmod(coeffs[i], M.r.den ** delta)
        if q:
            if i - 1 not in coeffs:  # every remaining level is below i
                levels.append(i - 1)
            coeffs[i - 1] = coeffs.get(i - 1, 0) + q * M.r.num ** delta
    out = Factorization.make(M, coeffs)
    if evaluate(out) != value:
        raise StepError("the minimum normal form changed the value")
    return out


def max_length_sweep(z: Factorization, level_bound: int = 64) -> MaxLengthOutcome:
    """Deterministic low-to-high carry sweep toward the max-length form.

    At level i the running total t_i is split as q*n^{delta_i} + rem; rem
    stays, q*d^{delta_i} carries to level i+1. Termination (carry hits zero)
    yields the unique maximum-length factorization; otherwise the bound is
    reported, at once when a shortfall tail makes the carry endless. On a
    gap-growth tail (d^{delta_i} < n^{delta_{i+1}}) the carry strictly
    decreases, so the sweep runs to its end and the bound is ignored. On a
    finite window the top level keeps all it receives, so it terminates too.
    """
    M = z.monoid
    _require_contracting(M, "the max-length sweep")
    if level_bound < 1:
        raise DomainError("level bound must be >= 1")
    value = evaluate(z)
    coeffs = z.as_dict()
    n, d = M.r.num, M.r.den
    window, tail = M.delta.max_exponent_index, M.delta.tail
    # on a shortfall tail (True) d^{delta_i} >= n^{delta_{i+1}} and coefficients
    # only add, so past the prefix each level's q is at least the last one's
    descent = False if tail is None else tail.descent(n, d)  # a window ends too
    out: Dict[int, int] = {}
    carry = 0
    i = 0
    top = z.top_index
    while carry or i <= top:
        if descent is not False and i > level_bound:
            return MaxLengthOutcome(None, level_bound)
        total = coeffs.get(i, 0) + carry
        if i == window:  # the top level of a finite window has none above it
            q, rem = 0, total
        else:
            delta_i = M.delta.delta(i)
            q, rem = divmod(total, n ** delta_i)
            if q and descent and i >= len(M.delta.prefix):
                return MaxLengthOutcome(None, level_bound)
        if rem:
            out[i] = rem
        carry = q * d ** delta_i if q else 0
        i += 1
    w = Factorization.make(M, out)
    if evaluate(w) != value:
        raise StepError("the max-length sweep changed the value")
    return MaxLengthOutcome(w, i)


def _search(x: Ratio, M: ExpMonoid, max_index: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Each factorization of x with support in [0, max_index] as the sorted
    tuple of its (index, coeff >= 1) pairs.

    Exact Diophantine search over the common denominator d^{s_B} with
    per-level caps and residue pruning. Levels enter `coeffs` in index order
    and leave it deepest first, so each tuple is sorted as built.
    """
    if max_index < 0:
        raise DomainError("max_index must be >= 0")
    window = M.delta.max_exponent_index
    B = max_index if window is None else min(max_index, window)
    if x == ZERO:
        yield ()
        return
    n, d = M.r.num, M.r.den
    s = [s_index(M, i) for i in range(B + 1)]
    D = d ** s[B]
    if D % x.den != 0:
        return
    target = x.num * (D // x.den)
    # per level i: n^{s_i}, the weight of one atom in units of 1/D, the step
    # n^{delta_i} between coefficients that can complete, 1/d^{s_B-s_i} mod it
    n_pow = [n ** e for e in s]
    w = [n_pow[i] * d ** (s[B] - s[i]) for i in range(B + 1)]
    mod = [n_pow[i + 1] // n_pow[i] for i in range(B)]
    inv = [pow(pow(d, s[B] - s[i], mod[i]), -1, mod[i]) for i in range(B)]

    def choices(i: int, rem: int) -> range:
        # completion needs n^{s_{i+1}} | rem - c*w[i]; solve for c mod n^{delta_i}
        start = rem // n_pow[i] * inv[i] % mod[i]
        return range(start, rem // w[i] + 1, mod[i])

    coeffs: Dict[int, int] = {}
    # depth first: stack entry i < B holds what levels i..B must make up and
    # the coefficients left to try at level i; level B takes a whole remainder
    stack = [(target, iter(choices(0, target) if B else (0,)))]  # B = 0: all to level B
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
            yield (*coeffs.items(), (B, q)) if q else tuple(coeffs.items())


def enumerate_all(x: Ratio, M: ExpMonoid, max_index: int) -> List[Factorization]:
    """All factorizations of x with support in [0, max_index], canonically
    sorted. For r > 1 a max_index at the first n with r^{s_n} > x makes the
    list the complete factorization set of x."""
    return [Factorization(M, p) for p in sorted(_search(x, M, max_index))]


def unique_factorization_check(z: Factorization) -> bool:
    """True when every coefficient is below n(r): then z's value factors uniquely."""
    _require_contracting(z.monoid, "the uniqueness criterion")
    return all(c < z.monoid.r.num for _, c in z.coeffs)


@dataclass(frozen=True)
class LengthSet:
    lengths: Tuple[int, ...]
    min_exact: bool
    max_exact: bool


def length_set(x: Ratio, M: ExpMonoid, max_index: int,
               witness: Optional[Factorization] = None) -> LengthSet:
    """Lengths of the bounded enumeration plus exactness flags.

    A flag is set only when the global extreme is in the reported set. For
    r < 1 the least length is that of the unique minimum normal form, which
    lies in the window with any factorization it comes from, because
    down-steps only lower indices; the greatest is that of the carry
    sweep's result, when the sweep terminates inside the window. For r >= 1
    both flags hold once the enumeration is complete: max_index reaches the
    end of a finite window, or the next atom r^{s_{max_index+1}} already
    exceeds x.
    """
    found = list(_search(x, M, max_index))
    if not found and witness is None:
        raise DomainError("membership unresolved: no factorization within bound")
    lengths = tuple(sorted({sum(c for _, c in p) for p in found}))
    if not lengths:
        return LengthSet(lengths, False, False)
    if M.r >= Ratio(1):
        window = M.delta.max_exponent_index
        complete = (M.r == Ratio(1) or (window is not None and max_index >= window)
                    or M.r ** s_index(M, max_index + 1) > x)
        return LengthSet(lengths, complete, complete)
    w = witness if witness is not None else Factorization(M, min(found))
    sweep = max_length_sweep(w)
    return LengthSet(lengths, True, sweep.terminated and sweep.found.length == lengths[-1])
