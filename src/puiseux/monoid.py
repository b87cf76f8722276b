"""Symbolic exponential Puiseux monoids.

A monoid is described by a positive rational base ``r`` and a gap rule for
the strictly increasing exponent sequence s_0 = 0 < s_1 < s_2 < ...; the
gaps delta_n = s_{n+1} - s_n are kept symbolic (finite prefix plus a tail
rule) so tail conditions can be decided exactly instead of sampling a
materialized list.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import count, islice, pairwise
from math import comb
from operator import mul
from typing import Iterator, Optional, Tuple

from .errors import DomainError, IndexRangeError, ParseError
from .ratio import Ratio, _ints, _ipow, _power, _set, _Value, max_power_dividing


# ---------------------------------------------------------------------------
# Tail rules
# ---------------------------------------------------------------------------

SCAN_LIMIT = 10_000  # indices scanned for a run of the descending identity


def descending_run(M: "ExpMonoid", k: int, scan: int) -> Optional[Tuple[int, list]]:
    """(m, [c_m, ..., c_{m+k-1}]) for the least m that starts k indices in a
    row, all below scan, with c_j = d^{delta_j} - n^{delta_{j+1}} > 0; or None.

    Each such j is a link n^{delta_j} r^{s_j} = c_j r^{s_{j+1}} +
    n^{delta_{j+1}} r^{s_{j+1}} of a strictly descending divisibility chain.
    """
    n, d = M.r.num, M.r.den
    run: list = []
    for j, (lower, upper) in enumerate(pairwise(islice(M.delta.gaps(), scan + 1))):
        c = d ** lower - n ** upper
        if c > 0:
            run.append(c)
            if len(run) == k:
                return j - k + 1, run
        else:
            run = []
    return None


def _shortfall_instance(M: "ExpMonoid", m: int) -> str:
    dm, dm1 = islice(M.delta.gaps(m), 2)
    return f"d^delta_{m}={_power(M.r.den, dm)} > n^delta_{m + 1}={_power(M.r.num, dm1)}"


def _log_pair(x: int, y: int) -> Optional[Tuple[int, int]]:
    """The coprime (i, j) with x = g^i and y = g^j for an integer g >= 2, or None."""
    v, u = sorted((x, y))
    while v > 1 and u % v == 0:  # Euclid on the exponents: g^i / g^j = g^(i-j)
        v, u = sorted((u // v, v))
    if v > 1 or min(x, y) < 2:  # v = 1 means g^i / g^i was reached, u = g
        return None
    return max_power_dividing(u, x), max_power_dividing(u, y)


@lru_cache(maxsize=4096)
def _log2_bounds(x: int, p: int) -> Tuple[int, int]:
    """Integers lo <= 2^p log2 x < hi for x >= 1, off the bit length of x^(2^p):
    x is squared p times, each square cut to p + 8 leading bits, down for lo
    and up for hi. Each end moves by under 2^-6 before rounding: hi - lo <= 2."""
    def end(sign):  # floor cuts for lo, ceiling cuts for hi; m 2^e bounds x^(2^i)
        m, e = x, 0
        for _ in range(p):
            m *= m
            cut = max(m.bit_length() - p - 8, 0)
            m, e = sign * (sign * m >> cut), 2 * e + cut
        return e + m.bit_length() - (sign > 0)
    return end(1), end(-1)


def _rank(d: int, a: int, n: int, b: int) -> int:
    """How many of d^a and d^(a+1) are >= n^b, exactly, for d, n >= 1 and
    exponents of either sign: 2 when d^a >= n^b, 1 when d^a < n^b <=
    d^(a+1), 0 when d^(a+1) < n^b. Past 4096 bits of powers, log2 brackets
    of d and n at 32 bits past the exponents' bit length decide, and a near
    tie gets a second look at four times the bits; d^(a+1) is looked at
    only when d^a < n^b is certain. One pair of powers, from `_ipow`, is
    formed only below the cut or when a side's brackets still overlap, as
    on a tie such as 4^3000 = 8^2000, and it decides both sides: d^a / n^b
    = L / R with the negative exponents moved across, and d^(a+1) >= n^b
    exactly when d L >= R."""
    if max(abs(a) * d.bit_length(), abs(b) * n.bit_length()) > 4096:
        e = max(abs(a), abs(b)).bit_length()
        for p in (e + 32, 4 * e + 64):
            (d_lo, d_hi), (n_lo, n_hi) = _log2_bounds(d, p), _log2_bounds(n, p)
            (l0, l1), (r0, r1) = sorted((a * d_lo, a * d_hi)), sorted((b * n_lo, b * n_hi))
            if l0 >= r1:
                return 2
            if l1 < r0:  # d^a < n^b: then d^(a+1) unless its brackets overlap
                l0, l1 = sorted(((a + 1) * d_lo, (a + 1) * d_hi))
                if l0 >= r1 or l1 < r0:
                    return int(l0 >= r1)
    L, R = _ipow(d, max(a, 0)), _ipow(n, max(b, 0))
    if a < 0 or b < 0:
        L, R = L * _ipow(n, max(-b, 0)), R * _ipow(d, max(-a, 0))
    return 2 if L >= R else int(d * L >= R)


def _at_least(d: int, a: int, n: int, b: int) -> bool:
    """d^a >= n^b exactly, by `_rank`, which asks nothing of d^(a+1) once
    d^a >= n^b is certain. Its callers compare powers of the coprime n(r)
    and d(r), which never tie, so past the cut the side they do not need is
    settled, but for a near tie, by the brackets already read."""
    return _rank(d, a, n, b) == 2


class Tail(_Value):
    """A gap-rule family: the gaps past the explicit prefix.

    Each family sets its grammar ``name`` and its ``arity`` (None for one or
    more integers) and supplies ``total(k)``, the sum of its first k gaps in
    closed form, and ``accp_rule(M)``, which returns the (verdict, rule,
    instance) of the chain-condition classifier for an atomic M with r < 1
    and this tail. ``period`` is the length of the cycle a periodic family
    repeats, and None for the others.
    """

    __slots__ = ()
    period = None

    @property
    def args(self) -> tuple:
        """The integers of the grammar form name(args)."""
        values = self._astuple()
        return values if self.arity else values[0]

    def descent(self, n: int, d: int, k: int = 0) -> Optional[bool]:
        """True when d^{delta_j} >= n^{delta_{j+1}} is certain at every tail
        position j >= k, False when d^{delta_j} < n^{delta_{j+1}} is, None
        otherwise. Only a polynomial's answer depends on k."""
        return None

    def necessary_bound(self, n: int, d: int) -> Tuple[object, str]:
        """(holds, rhs) of d <= n * limsup n^{delta_k/s_k} for this family."""
        # delta_n/s_n -> 0, limsup factor is 1
        return d <= n, f"n(r)*1={n} (delta_n/s_n -> 0)"


class Constant(Tail):
    __slots__ = ("value",)
    name, arity = "const", 1

    def __init__(self, value: int):
        _ints("gap rule arguments", value)
        if value < 1:
            raise DomainError("constant gap must be >= 1")
        _set(self, "value", value)

    def delta(self, k: int) -> int:
        return self.value

    def total(self, k: int) -> int:
        return self.value * k

    def shifted(self, j: int) -> "Constant":
        return self

    def descent(self, n: int, d: int, k: int = 0) -> bool:
        return d >= n

    def accp_rule(self, M):
        return "no", "bounded-delta", f"delta_n={self.value} eventually"


def _horner(coeffs: tuple, k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _shift(coeffs: tuple, j: int) -> tuple:
    """Coefficients of p(k + j), low-order first."""
    return tuple(sum(c * comb(i, m) * j ** (i - m) for i, c in enumerate(coeffs) if i >= m)
                 for m in range(len(coeffs)))


def _difference(coeffs: tuple) -> tuple:
    """Coefficients of p(k + 1) - p(k); the leading terms cancel."""
    return tuple(a - b for a, b in zip(_shift(coeffs, 1), coeffs))[:-1]


def _monotone_breaks(coeffs: tuple, lo: int, hi: int) -> list:
    """Integers lo = k_0 < ... < k_m = hi with p monotone between neighbours.

    p is monotone wherever its forward difference keeps one sign. That
    difference is monotone between the points of its own list, so it
    changes sign at most once between two of them, and a binary search
    finds where.
    """
    if len(coeffs) <= 2 or hi - lo <= 1:
        return [lo, hi]
    diff = _difference(coeffs)
    points = [lo]
    inner = _monotone_breaks(diff, lo, hi - 1)
    for a, b in zip(inner, inner[1:]):
        negative = _horner(diff, a) < 0
        if (_horner(diff, b) < 0) != negative:
            while b - a > 1:
                mid = (a + b) // 2
                if (_horner(diff, mid) < 0) == negative:
                    a = mid
                else:
                    b = mid
            points.append(b)
    points.append(hi)
    return points


class Polynomial(Tail):
    """delta at tail position k is p(k) with integer coefficients.

    p must take values >= 1 at every k >= 0: we require a positive leading
    coefficient (or a constant >= 1) and verify the polynomial on the
    window [0, W] where W bounds its real roots, beyond which the dominant
    term keeps it increasing. On the window p is monotone between a few
    break points (``_monotone_breaks``), so its least value is at one of
    them.
    """

    __slots__ = ("coeffs", "_newton")  # low-order first; _newton serves total
    name, arity = "poly", None

    def __init__(self, coeffs: tuple):
        coeffs = _ints("polynomial coefficients", *coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        _set(self, "coeffs", coeffs)
        if not coeffs:
            raise DomainError("empty polynomial")
        if coeffs[-1] < 1:
            raise DomainError("leading coefficient must be positive")
        lead = coeffs[-1]
        window = 1 + max(abs(c) for c in coeffs) // lead + 1
        low = min(_monotone_breaks(coeffs, 0, window), key=self.delta)
        if self.delta(low) < 1:
            raise DomainError(f"polynomial gap p({low}) < 1")
        # Newton form p(k) = sum_j D^j p(0) * C(k, j), D the forward difference
        newton, diff = [coeffs[0]], coeffs
        while len(diff) > 1:
            diff = _difference(diff)
            newton.append(diff[0])
        _set(self, "_newton", tuple(newton))

    def delta(self, k: int) -> int:
        return _horner(self.coeffs, k)

    def total(self, k: int) -> int:
        # sum_{i<k} C(i, j) = C(k, j + 1)
        return sum(c * comb(k, j + 1) for j, c in enumerate(self._newton))

    def shifted(self, j: int) -> "Polynomial":
        return Polynomial(_shift(self.coeffs, j)) if j else self

    def descent(self, n: int, d: int, k: int = 0) -> Optional[bool]:
        # the difference chain of max_length_sweep: d^{f(k)} >= n^{f(k+1)} for
        # f = D^j p, j = m-1, ..., 0, the smallest exponents first. D^j p(k) is
        # sum_t N_{j+t} C(k, t) over the Newton form N, which is N_j at k = 0
        if d < n:
            return None
        v = N = self._newton
        if k:
            binomials = [comb(k, t) for t in range(len(N))]
            v = [sum(map(mul, N[j:], binomials)) for j in range(len(N))]
        for j in range(len(N) - 2, -1, -1):
            if not _at_least(d, v[j], n, v[j] + v[j + 1]):
                return None
        return True

    def accp_rule(self, M):
        if len(self.coeffs) == 1:
            return Constant(self.coeffs[0]).accp_rule(M)
        gaps = enumerate(pairwise(islice(M.delta.gaps(), SCAN_LIMIT + 1)))
        found = next((j for j, (low, up) in gaps if not _at_least(M.r.num, up, M.r.den, low)), None)
        if found is None:  # the gap ratio tends to 1, but slowly when d is close to n
            return "unknown", "no-closed-form", ""
        return "no", "polynomial-gaps", _shortfall_instance(M, found)


class Geometric(Tail):
    """delta at tail position k is scale * ratio**k."""

    __slots__ = ("scale", "ratio")
    name, arity = "geom", 2

    def __init__(self, scale: int, ratio: int):
        _ints("gap rule arguments", scale, ratio)
        if scale < 1:
            raise DomainError("geometric scale must be >= 1")
        if ratio < 2:
            raise DomainError("geometric ratio must be an integer >= 2")
        _set(self, "scale", scale)
        _set(self, "ratio", ratio)

    def delta(self, k: int) -> int:
        return self.scale * self.ratio ** k

    def total(self, k: int) -> int:
        return self.scale * (self.ratio ** k - 1) // (self.ratio - 1)

    def shifted(self, j: int) -> "Geometric":
        return Geometric(self.scale * self.ratio ** j, self.ratio)

    def descent(self, n: int, d: int, k: int = 0) -> bool:
        # delta_{k+1} = ratio * delta_k: the single comparison d >= n^ratio
        return _at_least(d, 1, n, self.ratio)

    def accp_rule(self, M):
        n, d, c = M.r.num, M.r.den, self.ratio
        # coprimality of n and d makes d = n^c impossible: always decisive
        if not self.descent(n, d):
            return "yes", "gap-growth", (f"d={d} < n^{c}={_power(n, c)}, so d^delta_n < "
                                         f"n^delta_n+1 for n >= {len(M.delta.prefix)}")
        return "no", "gap-shortfall", f"d={d} > n^{c}={_power(n, c)}"

    def necessary_bound(self, n: int, d: int) -> Tuple[object, str]:
        c = self.ratio
        return _at_least(n, c, d, 1), f"n(r)^{c}={_power(n, c)} (delta_n/s_n -> {c - 1})"


class Periodic(Tail):
    __slots__ = ("pattern",)
    name, arity = "periodic", None

    def __init__(self, pattern: tuple):
        pattern = _ints("periodic pattern entries", *pattern)
        if not pattern or any(p < 1 for p in pattern):
            raise DomainError("periodic pattern entries must be >= 1")
        _set(self, "pattern", pattern)

    def delta(self, k: int) -> int:
        return self.pattern[k % len(self.pattern)]

    def total(self, k: int) -> int:
        whole, rest = divmod(k, len(self.pattern))
        return whole * sum(self.pattern) + sum(self.pattern[:rest])

    def shifted(self, j: int) -> "Periodic":
        j %= len(self.pattern)
        return Periodic(self.pattern[j:] + self.pattern[:j])

    @property
    def period(self) -> int:
        return len(self.pattern)

    def descent(self, n: int, d: int, k: int = 0) -> Optional[bool]:
        # the tail repeats one cycle of comparisons: certain when they agree
        found = {_at_least(d, a, n, b) for a, b in pairwise(self.pattern + self.pattern[:1])}
        return found.pop() if len(found) == 1 else None

    def accp_rule(self, M):
        return "no", "bounded-delta", f"delta_n <= {max(self.pattern)} eventually"


class Recurrence(Tail):
    """Gap rule delta_{k+1} = max{m : a^m < b^{delta_k}} seeded at `seed`.

    This is the integer form of the slowly-growing gap construction whose
    ratios approach log_a(b) from below; by definition b**delta_k >
    a**delta_{k+1} at every step; ``step`` compares the powers by ``_rank``.
    """

    __slots__ = ("a", "b", "seed", "_memo")  # _memo: the gaps so far, from delta_0
    name, arity = "recurrence", 3

    def __init__(self, a: int, b: int, seed: int):
        _ints("gap rule arguments", a, b, seed)
        if not (1 < a < b):
            raise DomainError("recurrence needs 1 < a < b")
        if seed < 1:
            raise DomainError("recurrence seed must be >= 1")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "seed", seed)
        _set(self, "_memo", [seed])

    def step(self, d: int) -> int:
        # the m with a^m < b^d <= a^(m+1), where _rank is 1: log2 brackets put
        # d lo_b / hi_a less than 1 below d log_a b, so m starts at or below
        # it, and exact comparisons move m up while a^(m+1) < b^d
        p = (d * self.b.bit_length()).bit_length() + 32
        m = d * _log2_bounds(self.b, p)[0] // _log2_bounds(self.a, p)[1]
        while not _rank(self.a, m, self.b, d):
            m += 1
        return m

    def _known(self, k: int) -> list:
        """The gaps delta_0, delta_1, ..., at least up to delta_k."""
        gaps = self._memo
        if k >= len(gaps):
            gaps = gaps[:]
            while len(gaps) <= k:
                gaps.append(self.step(gaps[-1]))
            # one store of a fresh list: a reader never sees a half-built memo
            _set(self, "_memo", gaps)
        return gaps

    def delta(self, k: int) -> int:
        return self._known(k)[k]

    def total(self, k: int) -> int:
        return sum(self._known(k - 1)[:k])

    def shifted(self, j: int) -> "Recurrence":
        return Recurrence(self.a, self.b, self.delta(j))

    def stalls(self) -> bool:
        """Every gap is the seed: delta_1 = delta_0, and (b/a)^delta rises with delta."""
        return self.delta(1) == self.seed

    def descent(self, n: int, d: int, k: int = 0) -> Optional[bool]:
        # b^delta_k > a^delta_{k+1} at every step gives d^delta_k > n^delta_{k+1}
        # when a^q = n^p and b^q = d^p, p, q >= 1 (raise it to the power p/q), and
        # when 64-bit log2 brackets prove log_a b < log_n d. Constant gaps, on a
        # stall, need d >= n. For any other (a, b) no rule is known
        logs = _log_pair(self.a, n)
        if logs and logs == _log_pair(self.b, d):
            return True
        lo, hi = zip(*(_log2_bounds(x, 64) for x in (self.a, d, self.b, n)))
        return hi[2] * hi[3] <= lo[0] * lo[1] or (d >= n if self.stalls() else None)

    def accp_rule(self, M):
        if not self.descent(M.r.num, M.r.den):
            return "unknown", "no-closed-form", ""
        return "no", "gap-shortfall", _shortfall_instance(M, len(M.delta.prefix))

    def necessary_bound(self, n: int, d: int) -> Tuple[object, str]:
        if self.stalls():  # constant gaps: delta_n/s_n -> 0
            return super().necessary_bound(n, d)
        logs = _log_pair(self.a, n)  # (1, 1) on (a, b) = (n, d)
        if not logs or logs != _log_pair(self.b, d):
            return "unknown", "no closed form for this rule"
        # gap ratios approach log_a(b) = log_n(d) from below, so the limsup factor
        # is n^{log_n(d) - 1} and the bound holds with equality: n * n^{R-1} = d
        return True, f"n(r)^log_n(d)={d} (equality: ratio limit attains the bound)"


TAILS = {cls.name: cls for cls in (Constant, Polynomial, Geometric, Periodic, Recurrence)}


class DeltaSpec(_Value):
    """Finite explicit prefix of gaps plus an optional symbolic tail.

    ``tail is None`` means the exponent set is the finite one determined by
    the prefix: s_0 .. s_{len(prefix)}.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: tuple = (), tail: Optional[Tail] = None):
        prefix = _ints("prefix gaps", *prefix)
        if any(d < 1 for d in prefix):
            raise DomainError("prefix gaps must be >= 1")
        _set(self, "prefix", prefix)
        _set(self, "tail", tail)

    @property
    def max_exponent_index(self) -> Optional[int]:
        """Largest valid index into s, or None when unbounded."""
        return len(self.prefix) if self.tail is None else None

    def delta(self, n: int) -> int:
        if n < 0:
            raise IndexRangeError("negative gap index")
        if n < len(self.prefix):
            return self.prefix[n]
        if self.tail is None:
            raise IndexRangeError(
                f"gap index {n} beyond finite window of {len(self.prefix)} gaps")
        return self.tail.delta(n - len(self.prefix))

    def gaps(self, start: int = 0) -> Iterator[int]:
        """delta_start, delta_start+1, ... in order; delta serves sparse reads.
        Past a finite window the next read raises what delta raises there."""
        if start < 0:
            raise IndexRangeError("negative gap index")
        yield from self.prefix[start:]
        if self.tail is None:
            self.delta(max(start, len(self.prefix)))  # raises: the window ends
        yield from map(self.tail.delta, count(max(start - len(self.prefix), 0)))

    def drop(self, i: int) -> "DeltaSpec":
        """Spec for the exponent set with the first i gaps removed."""
        if i < 0:
            raise IndexRangeError("negative truncation index")
        if i <= len(self.prefix):
            return DeltaSpec(self.prefix[i:], self.tail)
        if self.tail is None:
            raise IndexRangeError(
                f"cannot drop {i} gaps from a finite window of {len(self.prefix)}")
        return DeltaSpec((), self.tail.shifted(i - len(self.prefix)))


# ---------------------------------------------------------------------------
# The monoid itself
# ---------------------------------------------------------------------------

class ExpMonoid(_Value):
    __slots__ = ("r", "delta")

    def __init__(self, r: Ratio, delta: DeltaSpec):
        if r.num == 0:
            raise DomainError("base must be positive")
        _set(self, "r", r)
        _set(self, "delta", delta)


class AtomicityVerdict(_Value):
    # kind: "iso-naturals" | "antimatter" | "atomic";
    # atoms: human-readable description of the atom set
    __slots__ = ("kind", "atoms")


def s_index(M: ExpMonoid, n: int) -> int:
    """The n-th exponent s_n = sum of the first n gaps (s_0 = 0), in closed form."""
    if n < 0:
        raise IndexRangeError("negative exponent index")
    limit = M.delta.max_exponent_index
    if limit is not None and n > limit:
        raise IndexRangeError(f"exponent index {n} beyond finite window {limit}")
    prefix = M.delta.prefix
    head = sum(prefix[:n])
    return head if n <= len(prefix) else head + M.delta.tail.total(n - len(prefix))


def atom(M: ExpMonoid, n: int) -> Ratio:
    """The n-th generator r**s_n, exactly."""
    return M.r ** s_index(M, n)


def classify_atomicity(M: ExpMonoid) -> AtomicityVerdict:
    n, d = M.r.num, M.r.den
    if d == 1:
        return AtomicityVerdict("iso-naturals", "{1}")
    if n == 1:
        return AtomicityVerdict("antimatter", "")
    return AtomicityVerdict("atomic", "{r^s_n : n >= 0}")


def truncate(M: ExpMonoid, i: int) -> ExpMonoid:
    """Monoid over the exponent set shifted down by s_i (first i gaps dropped)."""
    return ExpMonoid(M.r, M.delta.drop(i))


# ---------------------------------------------------------------------------
# Spec grammar:  r=<p>/<q>; delta=[prefix(...);] <tail>
# ---------------------------------------------------------------------------

_DELTA = re.compile(r"(?:prefix\(([^()]*)\);)?(?:finite|([a-z]+)\(([^()]*)\))")


def _parse_int_args(name: str, body: str) -> list:
    try:
        return [int(tok) for tok in body.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"non-integer argument in {name}(...)") from exc


def _int_tuple(what: str, values) -> tuple:
    if not isinstance(values, (list, tuple)) or any(type(v) is not int for v in values):
        raise ParseError(f"{what} needs a list of integers")
    return tuple(values)


def _make_tail(name: str, args: list) -> Tail:
    """The tail rule name(args); its own domain checks raise DomainError."""
    cls = TAILS.get(name)
    if cls is None:
        raise ParseError(f"unknown gap rule {name!r}")
    args = _int_tuple(name, args)
    if len(args) != cls.arity if cls.arity else not args:
        raise ParseError(f"{name} takes {cls.arity or 'one or more'} argument(s)")
    return cls(*args) if cls.arity else cls(args)


def parse_delta(text: str) -> DeltaSpec:
    m = _DELTA.fullmatch(re.sub(r"\s+", "", text))
    if not m:
        raise ParseError(f"unrecognized gap rule {text!r}")
    prefix, name, body = m.groups()
    try:
        tail = None if name is None else _make_tail(name, _parse_int_args(name, body))
        return DeltaSpec(_parse_int_args("prefix", prefix or ""), tail)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def parse_monoid(text: str) -> ExpMonoid:
    """Parse "r=2/3; delta=geom(1,2)": each field once, in that order, any whitespace."""
    m = re.fullmatch(r"r=([^;]*);delta=(.*)", re.sub(r"\s+", "", text))
    if not m:
        raise ParseError(f"monoid spec {text!r} is not of the form 'r=...; delta=...'")
    r = Ratio.parse(m.group(1))
    if r.num == 0:
        raise ParseError("base r must be positive")
    return ExpMonoid(r, parse_delta(m.group(2)))


def monoid_from_json(doc: dict) -> ExpMonoid:
    """Spec-file form: {"r": "2/3", "delta": {"prefix": [...], "tail": {...}}}.

    The tail is null, "finite" or {name: [args]}; a one-argument rule may
    give its argument bare, as in {"const": 2}.
    """
    try:
        r = Ratio.parse(str(doc["r"]))
        dd = doc["delta"]
        if not isinstance(dd, dict):
            raise ParseError("'delta' must be an object")
        prefix = _int_tuple("prefix", dd.get("prefix", []))
        tail_doc, tail = dd.get("tail"), None
        if tail_doc not in (None, "finite"):
            if not isinstance(tail_doc, dict) or len(tail_doc) != 1:
                raise ParseError("'tail' must be an object holding one rule")
            (name, args), = tail_doc.items()
            tail = _make_tail(name, [args] if type(args) is int else args)
        return ExpMonoid(r, DeltaSpec(prefix, tail))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed monoid document: {exc}") from exc
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def _call(name: str, args) -> str:
    return f"{name}({','.join(map(str, args))})"


def format_delta(spec: DeltaSpec) -> str:
    tail = "finite" if spec.tail is None else _call(spec.tail.name, spec.tail.args)
    return f"{_call('prefix', spec.prefix)};{tail}" if spec.prefix else tail


def format_monoid(M: ExpMonoid) -> str:
    return f"r={M.r}; delta={format_delta(M.delta)}"
