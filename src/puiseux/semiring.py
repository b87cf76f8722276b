"""Semiring layer: numerical-monoid exponent sets, multiplicative divisibility,
and the multiplicative chain-condition classifier.

An exponent set N turns the generated monoid into a semiring exactly when N
is (isomorphic to) a numerical monoid; chain conditions of the restricted
multiplicative monoid delegate to the full cyclic one, so the verdicts here
never depend on N.

This module imports `errors` and `ratio` alone. Its bridge to the monoid layer,
`exponent_monoid`, `mult_divisor_bound` and `mult_divides`, lives in `membership`.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_right
from math import gcd, isqrt
from typing import Dict, List, Optional, Tuple, Union

from .errors import DomainError, ParseError
from .ratio import Ratio, _ints, _power, _Value, max_power_dividing


# ---------------------------------------------------------------------------
# Exponent sets: numerical monoids and prefix-cofinite sets
# ---------------------------------------------------------------------------

class NumericalMonoidSpec(_Value):
    """The submonoid of N_0 generated by `generators`, of any gcd."""

    __slots__ = ("generators",)

    @classmethod
    def make(cls, gens) -> "NumericalMonoidSpec":
        gens = tuple(sorted(set(_ints("generators", *gens))))
        if not gens or gens[0] < 1:
            raise DomainError("generators must be positive integers")
        return cls(gens)

    @property
    def gcd(self) -> int:
        return gcd(*self.generators)

    def least(self) -> Dict[int, int]:
        """Least member of each residue class mod the least generator m; a
        class with no member (gcd > 1) is absent."""
        m = min(self.generators)
        steps = [g for g in self.generators if g % m]  # a multiple of m keeps the class
        # Dijkstra over the residues mod m: an edge of weight g joins w to w + g
        smallest: Dict[int, int] = {0: 0}
        heap = [0]
        while heap:
            w = heapq.heappop(heap)
            if w > smallest[w % m]:
                continue
            for g in steps:
                v = w + g
                if v < smallest.get(v % m, v + 1):
                    smallest[v % m] = v
                    heapq.heappush(heap, v)
        return smallest

    def window(self) -> Tuple[List[int], int]:
        """(members up to conductor + 2 step, step), with step = gcd(N) and
        the conductor max(least) - m + step, from which N holds every
        multiple of step."""
        m, step = min(self.generators), self.gcd
        least = self.least()
        top = max(least.values()) - m + 3 * step
        return [x for x in range(top + 1) if x >= least.get(x % m, x + 1)], step

    def closure(self) -> Tuple[bool, str]:
        # any submonoid of N_0 containing 0 is isomorphic to a numerical monoid
        return True, "generator-form exponent sets are additively closed with 0"

    def __str__(self) -> str:
        return "gens(" + ",".join(map(str, self.generators)) + ")"


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
    """Exact membership: x is at least the least member of its residue class."""
    return x >= N.least().get(x % min(N.generators), x + 1)


def apery_set(N: NumericalMonoidSpec) -> List[int]:
    """Smallest member in each residue class mod the least generator."""
    if N.gcd != 1:
        raise DomainError("not a numerical monoid (infinite complement)")
    least = N.least()
    return [least[i] for i in range(min(N.generators))]


def frobenius(N: NumericalMonoidSpec) -> int:
    """Largest integer outside N, via the Apery set of the least generator."""
    f = max(apery_set(N)) - min(N.generators)
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


class PrefixCofinite(_Value):
    """N = P union {n : n >= threshold} with P a subset of [0, threshold)."""

    __slots__ = ("prefix", "threshold")

    @classmethod
    def make(cls, prefix, threshold) -> "PrefixCofinite":
        *prefix, threshold = _ints("prefix elements and the threshold", *prefix, threshold)
        prefix = tuple(sorted(set(prefix)))
        if threshold < 0:
            raise DomainError("the threshold must be nonnegative")
        if any(p < 0 for p in prefix):
            raise DomainError("prefix elements must be nonnegative")
        if any(p >= threshold for p in prefix):
            raise DomainError("prefix elements must lie below the threshold")
        return cls(prefix, threshold)

    def contains(self, x: int) -> bool:
        return x >= self.threshold or x in self.prefix

    def window(self) -> Tuple[List[int], int]:
        """(members up to threshold + 2, 1): N holds every integer from the threshold on."""
        return [*self.prefix, *range(self.threshold, self.threshold + 3)], 1

    def closure(self) -> Tuple[bool, str]:
        """0 in N and additive closure; a sum at or past the threshold is in
        N, so only pairs of prefix elements can fail."""
        if not self.contains(0):
            return False, "0 not in N"
        for i, a in enumerate(self.prefix):
            for b in self.prefix[i:]:
                if not self.contains(a + b):
                    return False, f"{a}+{b}={a + b} not in N"
        return True, "0 in N and additive closure verified on the finite window"

    def __str__(self) -> str:
        return "prefix(" + ",".join(map(str, self.prefix)) + f");tail>={self.threshold}"


ExponentSetSpec = Union[NumericalMonoidSpec, PrefixCofinite]

NATURALS = PrefixCofinite((), 0)


def parse_exponent_set(text: str) -> ExponentSetSpec:
    """Grammar: `N=gens(2,3)` or `N=prefix(0,1);tail>=5` (N= optional)."""
    m = re.fullmatch(r"(?:N=)?(?:gens\(([\d,]*)\)|prefix\(([\d,]*)\);tail>=(\d+))",
                     re.sub(r"\s+", "", text))
    if not m:
        raise ParseError(f"unrecognized exponent set {text!r}")
    gens, prefix, start = m.groups()
    try:  # int() of a run past the int -> str digit limit raises ValueError
        if gens is not None:
            return NumericalMonoidSpec.make([int(t) for t in gens.split(",") if t])
        return PrefixCofinite.make([int(t) for t in prefix.split(",") if t], int(start))
    except (ValueError, DomainError) as exc:
        what = "generator" if gens is not None else "exponent"
        raise ParseError(f"bad {what} set {text!r}: {exc}") from exc


def __getattr__(name):  # the bridge's names load `membership` on first use (PEP 562), then keep it
    if name not in ("exponent_monoid", "mult_divisor_bound", "mult_divides"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import membership
    value = globals()[name] = getattr(membership, name)
    return value


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
    out["semiring"], out["reason"] = N.closure()
    return out


class MultVerdict(_Value):
    __slots__ = ("accp", "bfp", "ffp", "evidence")


def classify_mult(r: Ratio) -> MultVerdict:
    """Chain conditions of the multiplicative monoid, from r alone.

    Delegation makes the monoid restricted to any exponent set agree with
    the full cyclic one, so no exponent set is taken. The prime-power-
    denominator rule certifies the ACCP alone; BFP/FFP stay unknown there.
    d(r) = q^k with k maximal is a prime power exactly when q is prime.
    Miller-Rabin on the first k prime bases decides primality below psi_k
    (Jaeschke, Math. Comp. 1993; Sorenson and Webster, Math. Comp. 2017),
    which settles q < psi_13; past it, with no witness, the verdict is
    unknown and names the bound.
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
    q, k = _perfect_power(d)
    prime = _is_prime(q)
    if prime:
        return MultVerdict("yes", "unknown", "unknown",
                           {"rule": "prime-power-denominator",
                            "instance": f"d(r)={_power(q, k)}={q}^{k}"})
    if prime is None:
        return MultVerdict("unknown", "unknown", "unknown",
                           {"rule": "primality-bound",
                            "instance": f"d(r)=q^{k}, q >= psi_13={_PSI_13}: no witness in bases "
                                        "2..41, which proves q prime only below psi_13"})
    return MultVerdict("unknown", "unknown", "unknown",
                       {"rule": "no-closed-form",
                        "instance": f"r={n}/{_power(q, k)}<1 with composite-radical denominator"})


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton steps down from one more than the
    root of the top half of m's bits (shifted back), so a few steps suffice."""
    c = -(-m.bit_length() // k)  # the root has at most c bits
    if c <= 1:
        return 1
    s = c // 2
    x = (_iroot(m >> (k * s), k) + 1) << s
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(d: int) -> Tuple[int, int]:
    """(q, k) with d = q^k and k maximal, for d >= 2. d is an e-th power exactly
    when e divides k, so every prime e-th root is taken out, as often as it goes.
    If a prime p <= 41 divides d, then e also divides v = v_p(q), so only the
    primes dividing v are tried; otherwise q >= 43, and 2^(5e) < 43^e <= q
    bounds e by bit_length // 5."""
    p = next((b for b in _BASES if d % b == 0), 0)
    q, k, e = d, 1, 2
    v = max_power_dividing(p, d) if p else 0
    while e <= (v or q.bit_length() // 5):
        if v % e == 0 and _is_prime(e):
            root = isqrt(q) if e == 2 else _iroot(q, e)
            if root ** e == q:
                q, k, v = root, k * e, v // e
                continue
        e += 1
    return q, k


# psi_k is the least odd composite that passes Miller-Rabin on the first k
# prime bases (OEIS A014233), so those k bases decide primality below it.
# psi_1..psi_8: Jaeschke, "On strong pseudoprimes to several bases", Math. Comp.
# 1993; psi_9..psi_11: Jiang and Deng, Math. Comp. 2014; psi_12, psi_13:
# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 2017.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
_PSI_13 = _PSI[-1]


def _is_prime(n: int) -> Optional[bool]:
    """Is n >= 2 prime: Miller-Rabin on the first k bases for the least k with
    n < psi_k, or on all 13 for n >= psi_13, where with no witness it is None."""
    for b in _BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = t * 2^s with t odd
    t = (n - 1) >> s
    for b in _BASES[:bisect_right(_PSI, n) + 1]:
        x = pow(b, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True if n < _PSI_13 else None
