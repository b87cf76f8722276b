"""Semiring layer: numerical-monoid exponent sets, multiplicative divisibility,
and the multiplicative chain-condition classifier.

An exponent set N turns the generated monoid into a semiring exactly when N
is (isomorphic to) a numerical monoid; chain conditions of the restricted
multiplicative monoid delegate to the full cyclic one, so the verdicts here
never depend on N.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from .errors import DomainError, ParseError
from .membership import MembershipResult, is_member
from .monoid import Constant, DeltaSpec, ExpMonoid
from .ratio import Ratio, max_power_dividing


# ---------------------------------------------------------------------------
# Numerical monoids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericalMonoidSpec:
    generators: Tuple[int, ...]

    @classmethod
    def make(cls, gens) -> "NumericalMonoidSpec":
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens or gens[0] < 1:
            raise DomainError("generators must be positive integers")
        return cls(gens)

    @property
    def gcd(self) -> int:
        return reduce(gcd, self.generators)


def _reachable(gens, up_to: int) -> List[bool]:
    """reach[v] for 0 <= v <= up_to: is v a nonnegative combination of gens."""
    reach = [False] * (up_to + 1)
    reach[0] = True
    for g in gens:
        for v in range(g, up_to + 1):
            if reach[v - g]:
                reach[v] = True
    return reach


def nm_membership(N: NumericalMonoidSpec, x: int) -> bool:
    """Exact reachability: is x a nonnegative combination of the generators."""
    return x >= 0 and _reachable(N.generators, x)[x]


def apery_set(N: NumericalMonoidSpec, m: Optional[int] = None) -> List[int]:
    """Smallest member in each residue class mod m (default: least generator)."""
    if N.gcd != 1:
        raise DomainError("not a numerical monoid (infinite complement)")
    if m is None:
        m = min(N.generators)
    # Dijkstra over the residues mod m: an edge of weight g joins w to w + g
    smallest: Dict[int, int] = {0: 0}
    heap = [0]
    while heap:
        w = heapq.heappop(heap)
        if w > smallest[w % m]:
            continue
        for g in N.generators:
            v = w + g
            if v < smallest.get(v % m, v + 1):
                smallest[v % m] = v
                heapq.heappush(heap, v)
    return [smallest[i] for i in range(m)]


def frobenius(N: NumericalMonoidSpec) -> int:
    """Largest integer outside N, via the Apery set of the least generator."""
    m = min(N.generators)
    f = max(apery_set(N, m)) - m
    if f < 0:
        raise DomainError("no Frobenius number: the monoid is all of N_0")
    return f


def frobenius_bruteforce(N: NumericalMonoidSpec) -> int:
    """Independent gap scan used to cross-check the Apery route."""
    if N.gcd != 1:
        raise DomainError("not a numerical monoid (infinite complement)")
    reach = _reachable(N.generators, max(N.generators) ** 2)
    gaps = [x for x in range(1, len(reach)) if not reach[x]]
    if not gaps:
        raise DomainError("no Frobenius number: the monoid is all of N_0")
    return max(gaps)


# ---------------------------------------------------------------------------
# Exponent sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generators:
    monoid: NumericalMonoidSpec


@dataclass(frozen=True)
class PrefixCofinite:
    """N = P union {n : n >= threshold} with P a subset of [0, threshold)."""
    prefix: Tuple[int, ...]
    threshold: int

    @classmethod
    def make(cls, prefix, threshold) -> "PrefixCofinite":
        prefix = tuple(sorted(set(int(p) for p in prefix)))
        if any(p < 0 for p in prefix):
            raise DomainError("prefix elements must be nonnegative")
        if any(p >= threshold for p in prefix):
            raise DomainError("prefix elements must lie below the threshold")
        return cls(prefix, int(threshold))

    def contains(self, x: int) -> bool:
        return x >= self.threshold or x in self.prefix


ExponentSetSpec = Union[Generators, PrefixCofinite]

NATURALS = PrefixCofinite((), 0)


def parse_exponent_set(text: str) -> ExponentSetSpec:
    """Grammar: `N=gens(2,3)` or `N=prefix(0,1);tail>=5` (N= optional)."""
    s = re.sub(r"\s+", "", text)
    if s.startswith("N="):
        s = s[2:]
    m = re.fullmatch(r"gens\(([\d,]*)\)", s)
    if m:
        try:
            gens = [int(t) for t in m.group(1).split(",") if t]
            return Generators(NumericalMonoidSpec.make(gens))
        except (ValueError, DomainError) as exc:
            raise ParseError(f"bad generator set {text!r}: {exc}") from exc
    m = re.fullmatch(r"prefix\(([\d,]*)\);tail>=(\d+)", s)
    if m:
        try:
            prefix = [int(t) for t in m.group(1).split(",") if t]
            return PrefixCofinite.make(prefix, int(m.group(2)))
        except (ValueError, DomainError) as exc:
            raise ParseError(f"bad exponent set {text!r}: {exc}") from exc
    raise ParseError(f"unrecognized exponent set {text!r}")


def format_exponent_set(N: ExponentSetSpec) -> str:
    if isinstance(N, Generators):
        return "gens(" + ",".join(map(str, N.monoid.generators)) + ")"
    return ("prefix(" + ",".join(map(str, N.prefix)) +
            f");tail>={N.threshold}")


def _exponent_members(N: ExponentSetSpec, up_to: int) -> List[int]:
    if isinstance(N, PrefixCofinite):
        return [x for x in range(up_to + 1) if N.contains(x)]
    return [x for x, ok in enumerate(_reachable(N.monoid.generators, up_to)) if ok]


def exponent_monoid(r: Ratio, N: ExponentSetSpec) -> Tuple[ExpMonoid, int]:
    """The generated monoid as an explicit gap spec, plus the least exponent.

    Past its conductor every exponent set here is an arithmetic tail with
    step gcd(N), so a finite gap prefix plus a constant tail is exact. When
    min(N) > 0 the monoid is r^{min} times the shifted monoid; the shift is
    returned so callers can divide it out.
    """
    if isinstance(N, PrefixCofinite):
        step = 1  # cofinite sets are arithmetic with step 1 past the threshold
        horizon = N.threshold + 2
    else:
        step = N.monoid.gcd
        scaled = NumericalMonoidSpec.make(g // step for g in N.monoid.generators)
        if min(scaled.generators) == 1:
            conductor = 0
        else:
            conductor = frobenius(scaled) + 1
        horizon = step * conductor + 2 * step
    members = _exponent_members(N, horizon)
    if not members:
        raise DomainError("empty exponent set")
    base = members[0]
    shifted = [x - base for x in members]
    gaps = tuple(b - a for a, b in zip(shifted, shifted[1:]))
    # drop the stabilized run of `step` gaps into the constant tail
    cut = len(gaps)
    while cut > 0 and gaps[cut - 1] == step:
        cut -= 1
    spec = DeltaSpec(gaps[:cut], Constant(step))
    return ExpMonoid(r, spec), base


# ---------------------------------------------------------------------------
# Semiring detection and multiplicative structure
# ---------------------------------------------------------------------------

def is_semiring(r: Ratio, N: ExponentSetSpec) -> Dict[str, object]:
    if r.num == 0:
        raise DomainError("base r must be positive")
    out: Dict[str, object] = {}
    if r.num == 1 or r.den == 1:
        out["degenerate"] = (f"r={r} falls outside the characterization "
                             "hypothesis (n(r)=1 or r integral)")
    if isinstance(N, Generators):
        # any submonoid of N_0 containing 0 is isomorphic to a numerical monoid
        out["semiring"] = True
        out["reason"] = "generator-form exponent sets are additively closed with 0"
        return out
    if not N.contains(0):
        out["semiring"] = False
        out["reason"] = "0 not in N"
        return out
    window = _exponent_members(N, 2 * max(N.threshold, 1))
    for i, a in enumerate(window):
        for b in window[i:]:
            if a + b <= 2 * N.threshold and not N.contains(a + b):
                out["semiring"] = False
                out["reason"] = f"{a}+{b}={a + b} not in N"
                return out
    out["semiring"] = True
    out["reason"] = "0 in N and additive closure verified on the finite window"
    return out


def mult_divisor_bound(r: Ratio, x: Ratio) -> int:
    """max{n : n(r)^n | n(x)}: no higher power of r divides x multiplicatively."""
    if not (r < Ratio(1) and r.num > 1):
        raise DomainError("not applicable: needs r < 1 < n(r)")
    if x.num == 0:
        raise DomainError("not applicable: x must be positive")
    if x.num == 1:
        return 0
    return max_power_dividing(r.num, x.num)


def mult_divides(r: Ratio, n: int, x: Ratio, N: ExponentSetSpec,
                 support_bound: Optional[int] = None) -> MembershipResult:
    """Whether r^n divides x in the multiplicative monoid of the semiring."""
    if x.num == 0:
        raise DomainError("x must be positive")
    if n < 0:
        raise DomainError("n must be >= 0")
    if r < Ratio(1) and r.num > 1 and n > mult_divisor_bound(r, x):
        return MembershipResult(
            "not-member",
            reason=f"n={n} exceeds the multiplicative divisor bound "
                   f"{mult_divisor_bound(r, x)}")
    y = x / r ** n
    M, base = exponent_monoid(r, N)
    y_shifted = y / r ** base
    return is_member(y_shifted, M, support_bound)


@dataclass(frozen=True)
class MultVerdict:
    accp: str
    bfp: str
    ffp: str
    evidence: Dict[str, str]


def classify_mult(r: Ratio, N: Optional[ExponentSetSpec] = None) -> MultVerdict:
    """Chain conditions of the multiplicative monoid; independent of N.

    Delegation makes the restricted and full cyclic monoids agree, so N is
    accepted only for interface symmetry. The prime-power-denominator rule
    certifies the ACCP alone; BFP/FFP stay unknown there.
    """
    n, d = r.num, r.den
    if n == 0:
        raise DomainError("base r must be positive")
    if d == 1:
        return MultVerdict("yes", "yes", "yes",
                           {"rule": "integer-base",
                            "instance": "multiplicative monoid embeds in (N, *)"})
    if n == 1:
        return MultVerdict("n/a", "n/a", "n/a",
                           {"rule": "not-reduced",
                            "instance": f"r={r} and 1/r both divide 1 multiplicatively"})
    if n > d:
        return MultVerdict("yes", "yes", "yes",
                           {"rule": "ffm-above-one",
                            "instance": "every atom exceeds 1, so divisor sets are finite"})
    p = _smallest_prime_factor(d)
    if _is_power_of(d, p):
        return MultVerdict("yes", "unknown", "unknown",
                           {"rule": "prime-power-denominator",
                            "instance": f"d(r)={d}={p}^{max_power_dividing(p, d)}"})
    return MultVerdict("unknown", "unknown", "unknown",
                       {"rule": "no-closed-form",
                        "instance": f"r={r}<1 with composite-radical denominator"})


def _smallest_prime_factor(m: int) -> int:
    f = 2
    while f * f <= m:
        if m % f == 0:
            return f
        f += 1
    return m


def _is_power_of(m: int, p: int) -> bool:
    while m % p == 0:
        m //= p
    return m == 1
