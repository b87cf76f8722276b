"""Factorizations as finite-support coefficient vectors over a monoid's atoms.

Includes the down-rewriting identity, the minimum normal form, the carry
sweep to the (at most one) maximum-length factorization, the one walk to the
least-length form, bounded exact enumeration, and length sets.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .errors import DomainError, StepError
from .monoid import ExpMonoid, s_index
from .ratio import Ratio, _ints, _ipow, _Value


class Factorization(_Value):
    """The sum of c atoms r^{s_i} over the sorted (index i, coeff c >= 1)
    pairs of coeffs.

    An immutable value of the fields (monoid, coeffs) on the shared base
    ``_Value``, which gives its equality, hash, repr, copies and pickles.
    __init__ stores the fields through the slot descriptors' __set__, the
    cheapest store that the blocking __setattr__ leaves open. Enumeration
    builds one per result and a witness chain one per link, so
    `enumerate_all` and `accp.witness_chain` make them all at once in
    `_factorizations`, with no __init__ call: object.__new__ mapped over
    the class, then each of those two stores mapped over the objects.
    """

    __slots__ = ("monoid", "coeffs")

    def __init__(self, monoid: ExpMonoid, coeffs: Tuple[Tuple[int, int], ...]):
        _set_monoid(self, monoid)
        _set_coeffs(self, coeffs)

    @classmethod
    def make(cls, monoid: ExpMonoid, coeffs) -> "Factorization":
        """Check outside input, a dict or iterable of int (index, coeff); zeros are dropped."""
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        items = [_ints("entries", i, c) for i, c in items]  # every type before any sign
        cleaned = {}
        for i, c in items:
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


_set_monoid, _set_coeffs = Factorization.monoid.__set__, Factorization.coeffs.__set__
_coeff = itemgetter(1)


class MaxLengthOutcome(_Value):
    __slots__ = ("found", "levels_explored")

    @property
    def terminated(self) -> bool:
        return self.found is not None


def evaluate(z: Factorization) -> Ratio:
    """The exact value sum c_n * r**s_n; the empty factorization gives 0.

    The terms are summed over the common denominator d^S, S the top exponent,
    and only the sum is reduced. Each power's exponent is a cumulative
    exponent, so it comes from `_ipow`; the sum is a plain loop, which costs
    less than a generator on the few terms of most factorizations.
    """
    M = z.monoid
    n, d = M.r.num, M.r.den
    s = [s_index(M, i) for i, _ in z.coeffs]
    top = s[-1] if s else 0
    total = 0
    for (_, c), e in zip(z.coeffs, s):
        total += c * _ipow(n, e) * _ipow(d, top - e)
    return Ratio.over_power(total, _ipow(d, top), d)


def _require_contracting(M: ExpMonoid, what: str) -> None:
    if M.r.num >= M.r.den:
        raise DomainError(f"{what} requires r < 1; use finite enumeration")


def _checked(M: ExpMonoid, coeffs: Dict[int, int], value: Ratio, what: str) -> Factorization:
    """The factorization of the nonzero coefficients, which must evaluate to value."""
    out = Factorization(M, tuple(sorted((i, c) for i, c in coeffs.items() if c)))
    if evaluate(out) != value:
        raise StepError(f"{what} changed the value")
    return out


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
    return _checked(M, coeffs, evaluate(z), f"rewrite at level {i}")


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
    return _checked(M, coeffs, value, "the minimum normal form")


def max_length_sweep(z: Factorization, level_bound: int = 64) -> MaxLengthOutcome:
    """Deterministic low-to-high carry sweep toward the max-length form.

    At level i the running total t_i is split as q_i*n^{delta_i} + rem; rem
    stays, q_i*d^{delta_i} carries to level i+1. Termination (carry hits zero)
    yields the unique maximum-length factorization; otherwise the bound is
    reported. On a gap-growth tail (d^{delta_i} < n^{delta_{i+1}}) the carry
    strictly decreases, so the sweep runs to its end and the bound is ignored.
    On a finite window the top level keeps all it receives, so it terminates too.

    The bound is reported at once when a certificate shows the carry endless.
    Coefficients only add, so d^{delta_i} >= n^{delta_{i+1}} gives q_{i+1} >=
    q_i, and a q_i >= 1 at a level from which that holds at every level never
    dies. P is the prefix length, and tail position k is level P + k. When a
    carry from level P + k meets d^{delta_{P+k}} >= n^{delta_{P+k+1}}, read
    off two powers the sweep forms anyway, it asks `Tail.descent` from k
    whether the comparison holds at every later position too:
    - Shortfall: a tail on which it holds at every position says so.
    - Difference chain, on a polynomial tail delta_{P+k} = p(k). Write H_f(k)
      for d^{f(k)} >= n^{f(k+1)}, an exact comparison in which an exponent may
      be negative, and D for the forward difference. If H holds at k for each
      of p, Dp, ..., D^{m-1}p, m = deg p, then H_p(j) holds for every j >= k.
      Proof, by induction down from the constant D^m p = m!*lead >= 1, for
      which H holds since d > n: given H_f(j) and H_{Df}(j), d^{f(j+1)} =
      d^{f(j)} d^{Df(j)} >= n^{f(j+1)} n^{Df(j+1)} = n^{f(j+2)}, which is
      H_f(j+1). So a positive quotient at a level i >= P + k never shrinks.
      The higher differences are small, and H_p(k) is what the sweep saw.
    - Block compare, on a periodic tail of period L (`Tail.period`), which
      replaces `Tail.descent` there. Past the prefix, and at or past the top
      coefficient, q_{i+1} = floor(q_i d^{delta_i} / n^{delta_{i+1}}). One
      period of these steps is a monotone map F, the same at every level of
      one phase mod L, so if q one period later is >= q >= 1, then
      F^{j+1}(q) >= F^j(q) >= 1 for every j and the carry is endless.
      Otherwise the quotients at that phase never rise again: the sweep
      reaches 0, or meets F(q) = q one period later.
    """
    _require_contracting(z.monoid, "the max-length sweep")
    if level_bound < 1:
        raise DomainError("level bound must be >= 1")
    M, top = z.monoid, z.top_index
    coeffs = z.as_dict()
    n, d = M.r.num, M.r.den
    window, tail, P = M.delta.max_exponent_index, M.delta.tail, len(M.delta.prefix)
    if window is not None and top > window:
        s_index(M, top)  # raises as evaluate does, before a gap past the window is read
    gaps = M.delta.gaps()  # level i reads delta_i, once and in order
    period = None if tail is None else tail.period
    blocks: List[int] = []  # q at each level from max(P, top) on, for the block compare
    out: Dict[int, int] = {}
    carry = up = 0  # up = d^{delta_{i-1}}, read while carry > 0
    i = 0
    while carry or i <= top:
        # past the bound only a window or a gap-growth tail sweeps on: both end
        if i > level_bound and tail is not None and tail.descent(n, d) is not False:
            return MaxLengthOutcome(None, level_bound)
        total = coeffs.get(i, 0) + carry
        if i == window:  # the top level of a finite window has none above it
            q, rem = 0, total
        else:
            delta_i = next(gaps)
            down = n ** delta_i
            q, rem = divmod(total, down)
            if q and i >= P:  # so the tail is not None: a window has i < P here
                if period:
                    if i >= top:
                        blocks.append(q)
                        if len(blocks) > period and q >= blocks[-1 - period]:
                            return MaxLengthOutcome(None, level_bound)
                elif up >= down and carry and i > P and tail.descent(n, d, i - 1 - P):
                    return MaxLengthOutcome(None, level_bound)
        if rem:
            out[i] = rem
        carry = q * (up := d ** delta_i) if q else 0
        i += 1
    return MaxLengthOutcome(_checked(M, out, evaluate(z), "the max-length sweep"), i)


def _least_form(x: Ratio, M: ExpMonoid, B: int) -> Optional[Dict[int, int]]:
    """The coefficients of the least-length factorization of x with support
    in [0, B], B inside the window, or None when x has none there.

    One walk, by the residue argument of `_leaves`: each level takes the least
    coefficient that can complete. For r >= 1 it walks up from level 0 with
    (a, b) = (n, d), leaving c_i < n^{delta_i} below B; for r < 1 down from
    B with (a, b) = (d, n) over the gaps reversed, leaving c_i <
    d^{delta_{i-1}} above 0. In units of 1/d^{s_B} a level weighs a^u
    b^{s_B-u}, u the gaps walked before it summed, and rem, what it and the
    levels after it make up, is kept divided by a^u: c = rem / b^{s_B-u} mod
    a^{gap}, and the last level takes what is left.
    """
    n, d = M.r.num, M.r.den
    gaps = list(islice(M.delta.gaps(), B))
    total = sum(gaps)
    D = _ipow(d, total)
    if D % x.den:
        return None
    rem = x.num * (D // x.den)
    a, b, levels = n, d, range(B + 1)
    if n < d:
        a, b, levels, gaps = d, n, levels[::-1], gaps[::-1]
    weight = _ipow(b, total)  # b^{s_B-u}
    out = {}
    for i, gap in zip(levels, gaps):
        mod = a ** gap
        c = rem * pow(weight, -1, mod) % mod
        rem -= c * weight
        if rem < 0:  # the least c outweighs what is left
            return None
        out[i] = c
        rem //= mod
        weight //= b ** gap
    out[levels[-1]] = rem
    return out


def _leaves(x: Ratio, M: ExpMonoid,
            max_index: int) -> Tuple[Optional[Callable[[int], tuple]], Iterator]:
    """The factorizations of x with support in [0, B], B = max_index cut to
    the window, as (run, leaves): leaves lazily yields a (head, R) pair per
    node at the last free level B-1, where head holds the levels below B-1
    and R is what levels B-1 and B must make up, and run(R) resolves its run
    (None when there is no leaf, as d(x) divides no power of d(r)).

    A run (B, c, q, k, m, e) stands for the k results head + (B-1, c + j*m)
    + (B, q - j*e), j < k, where m = n^{delta_{B-1}}, e = d^{delta_{B-1}};
    a zero coefficient is left out, and k = 0 when no c fits in R. It reads
    R alone: B, m, e and the weights are fixed for the call, so leaves with
    one R share their run, and a caller resolves it once per distinct R.
    For x = 0 or B = 0 the one result is a run with c = 0 and k = 1.

    Residue argument. Count in units of 1/D, D = d^{s_B}: an atom at level i
    weighs w_i = n^{s_i} d^{s_B-s_i}, and the remainder R that levels i..B
    must make up is divisible by n^{s_i}. Every weight above level i is
    divisible by n^{s_{i+1}}, so a coefficient c at level i can complete only
    when n^{delta_i} | R/n^{s_i} - c d^{s_B-s_i}; d is a unit mod n, so this
    fixes c mod n^{delta_i} (`inv`) and keeps the invariant one level up. At
    B-1 the top level takes any multiple of w_B = n^{s_B}, so every such c
    up to R/w_{B-1} completes with q = (R - c w_{B-1})/w_B >= 0, and since
    m w_{B-1} = e w_B, q falls by e as c rises by m. The divisibility is
    checked once per run and a failure raises StepError.

    The walk is depth first over one flat stack of (level i, remainder R,
    head) nodes, with no recursion: a node below B-2 pushes its children in
    reverse, so that they pop with the coefficient rising and zero last, and
    a node at B-2 yields its children as leaves in that order, unstacked.
    """
    if max_index < 0:
        raise DomainError("max_index must be >= 0")
    window = M.delta.max_exponent_index
    B = max_index if window is None else min(max_index, window)
    n, d = M.r.num, M.r.den
    s = list(accumulate(islice(M.delta.gaps(), B), initial=0))
    D = _ipow(d, s[B])
    if D % x.den != 0:
        return None, iter(())
    target = x.num * (D // x.den)
    if B == 0:
        return (lambda R: (0, 0, R, 1, 1, 1)), iter((((), target),))
    # per level i: n^{s_i}, the weight of one atom in units of 1/D, the step
    # n^{delta_i} between coefficients that can complete, 1/d^{s_B-s_i} mod it
    n_pow = [_ipow(n, e) for e in s]
    w = [n_pow[i] * _ipow(d, s[B] - s[i]) for i in range(B + 1)]
    mod = [n_pow[i + 1] // n_pow[i] for i in range(B)]
    inv = [pow(pow(d, s[B] - s[i], mod[i]), -1, mod[i]) for i in range(B)]
    last = B - 1
    m, e = mod[last], d ** (s[B] - s[last])

    def run(R: int) -> tuple:
        # the least coefficient at B-1 that can complete, and the most that fits
        c, top = R // n_pow[last] * inv[last] % m, R // w[last]
        if c > top:
            return B, c, 0, 0, m, e
        q, leftover = divmod(R - c * w[last], w[B])
        if leftover:
            raise StepError(f"level {B} cannot complete the run at level {last}")
        return B, c, q, (top - c) // m + 1, m, e

    def walk() -> Iterator[Tuple[tuple, int]]:
        stack, hand = [(0, target, ())], last - 1
        push = stack.append
        while stack:
            i, rem, head = stack.pop()
            step, weight = mod[i], w[i]
            least, top = rem // n_pow[i] * inv[i] % step, rem // weight
            if i == hand:
                for c in range(least or step, top + 1, step):
                    yield head + ((i, c),), rem - c * weight
                if not least:
                    yield head, rem
                continue
            if not least:
                push((i + 1, rem, head))
            for c in range(least or step, top + 1, step)[::-1]:
                push((i + 1, rem - c * weight, head + ((i, c),)))

    return run, (walk() if B > 1 else iter((((), target),)))


def _expand(B: int, c: int, q: int, k: int, m: int, e: int) -> List[tuple]:
    """The tails of a run's results, its pairs at levels B-1 and B, in
    ascending order: c rising, then c = 0. They do not depend on the head."""
    i, skip = B - 1, 0 if c else 1
    tails = [((i, c + j * m), (B, q - j * e)) if q - j * e else ((i, c + j * m),)
             for j in range(skip, k)]
    if skip:
        tails.append(((B, q),) if q else ())
    return tails


def _factorizations(M: ExpMonoid, coeffs: list) -> List[Factorization]:
    """A Factorization of M per entry of coeffs, in one bulk pass: object.__new__
    maps over the class, then each slot store over the objects; coeffs must
    already be sorted (index, coeff >= 1) pairs."""
    out = list(map(object.__new__, repeat(Factorization, len(coeffs))))
    any(map(_set_monoid, out, repeat(M)))  # a store returns None: any() runs them all
    any(map(_set_coeffs, out, coeffs))
    return out


def enumerate_all(x: Ratio, M: ExpMonoid, max_index: int) -> List[Factorization]:
    """All factorizations of x with support in [0, max_index], in ascending
    order of their (index, coeff >= 1) pairs with no sort: every level of
    `_leaves` tries its positive coefficients in rising order and zero last,
    so a result with c atoms at level i comes before one that skips level i,
    whose next pair has a larger index. For r > 1 a max_index at the first
    n with r^{s_n} > x makes the list the complete factorization set of x.

    A leaf's tail, the pairs of its run at levels B-1 and B, depends on its
    remainder R alone, so it is built once per distinct R, by `_expand`, and
    shared across the heads: each result is one head + tail concatenation,
    and the Factorizations are made in one pass at the end."""
    run, leaves = _leaves(x, M, max_index)
    tails: Dict[int, list] = {}
    pairs: List[tuple] = []
    extend = pairs.extend
    for head, R in leaves:
        tail = tails.get(R)
        if tail is None:
            tail = tails[R] = _expand(*run(R))
        extend(map(head.__add__, tail))
    return _factorizations(M, pairs)


def unique_factorization_check(z: Factorization) -> bool:
    """True when every coefficient is below n(r): then z's value factors uniquely."""
    _require_contracting(z.monoid, "the uniqueness criterion")
    return all(c < z.monoid.r.num for _, c in z.coeffs)


class LengthSet(_Value):
    __slots__ = ("lengths", "min_exact", "max_exact")


def length_set(x: Ratio, M: ExpMonoid, max_index: int,
               witness: Optional[Factorization] = None) -> LengthSet:
    """Lengths on [0, B], B = max_index cut to the window, and exactness flags.

    A flag is set only when the global extreme is in the set; both are read
    off the one search. For r >= 1 both hold once the enumeration is
    complete: max_index reaches the end of a finite window, or the next atom
    r^{s_{max_index+1}} already exceeds x. For r < 1 the least length is
    that of the minimum normal form, which down-steps keep in the window.
    The greatest is in the set when B ends a finite window or
    q* < n^{delta_B}, q* the greatest coefficient at B of a result. Proof:
    - The residue argument of `_leaves` fixes each c_i mod n^{delta_i} from
      the levels below, so at most one result z* has c_i < n^{delta_i} below
      B. A carry sweep that stops at B leads any result to z* by up-steps
      (n^{delta_i} atoms at level i < B for d^{delta_i} at i+1), which
      lengthen it and never lower c_B: z* is the longest, with c_B = q*.
    - If q* < n^{delta_B}, a carry sweep from any factorization of x leaves
      z*'s residue at each level up to B, by the same argument. Value is
      conserved, so the carry then dies: z* is the global maximum.
    - Else an up-step out of level B lengthens z*: the window holds no maximum.

    Along a run the lengths step by g = n^{delta_{B-1}} - d^{delta_{B-1}}
    from the head's length plus c + q; runs merge as intervals per class mod
    |g| (1 at r = 1). A witness makes an empty window an empty set.
    """
    window = M.delta.max_exponent_index
    B = max_index if window is None else min(max_index, window)
    run, leaves = _leaves(x, M, max_index)
    runs: Dict[int, tuple] = {}
    spans, g = [], 1  # (class mod |g|, least, greatest) of each run's lengths
    top = 0  # q*, the greatest coefficient at B: q falls along a run
    for size, R in {(sum(map(_coeff, head)), R) for head, R in leaves}:
        found = runs.get(R)
        if found is None:
            found = runs[R] = run(R)
        _, c, q, k, m, e = found
        if k:
            g = abs(m - e) or 1  # the same for every run; 0 only at r = 1
            top = max(top, q)
            low, high = sorted((size + c + q, size + c + q + (k - 1) * (m - e)))
            spans.append((low % g, low, high))
    if not spans and witness is None:
        raise DomainError(f"no factorization with support in [0, {B}]")
    merged = []  # disjoint [class, least, greatest], ascending in each class
    for cls, low, high in sorted(spans):
        if merged and merged[-1][0] == cls and low <= merged[-1][2] + g:
            merged[-1][2] = max(merged[-1][2], high)
        else:
            merged.append([cls, low, high])
    lengths = tuple(sorted(chain.from_iterable(range(low, high + 1, g) for _, low, high in merged)))
    if not lengths:
        return LengthSet(lengths, False, False)
    if M.r.num >= M.r.den:
        complete = (M.r.num == M.r.den or (window is not None and max_index >= window)
                    or M.r ** s_index(M, max_index + 1) > x)
        return LengthSet(lengths, complete, complete)
    return LengthSet(lengths, True, B == window or top < M.r.num ** next(M.delta.gaps(B)))
