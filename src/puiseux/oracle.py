"""Brute-force factorization enumeration.

Deliberately naive: a plain nested search over coefficient vectors with
only the value cap c_i <= floor(remaining / atom_i) and no modular
reasoning, so it shares no logic with the pruned fast path it validates.
Implemented first and frozen; fast-path modules are checked against it,
never the other way around.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Tuple

from .errors import DomainError
from .monoid import ExpMonoid
from .ratio import Ratio


def oracle_enumerate(x: Ratio, M: ExpMonoid, max_index: int) -> List[Tuple[int, ...]]:
    """All coefficient vectors (c_0..c_max_index) summing to x, exhaustively.

    Works on the cleared-denominator equation
        sum_i c_i * n^{s_i} * d^{s_B - s_i} = x * d^{s_B}.
    """
    if max_index < 0:
        raise DomainError("max_index must be >= 0")
    limit = M.delta.max_exponent_index
    B = max_index if limit is None else min(max_index, limit)
    n, d = M.r.num, M.r.den
    s = list(accumulate((M.delta.delta(i) for i in range(B)), initial=0))
    common = d ** s[B]
    if common % x.den != 0:
        return []
    target = x.num * (common // x.den)
    weights = [n ** s[i] * d ** (s[B] - s[i]) for i in range(B + 1)]
    results: List[Tuple[int, ...]] = []
    vector = [0] * (B + 1)

    def search(i: int, remaining: int) -> None:
        if i > B:
            if remaining == 0:
                results.append(tuple(vector))
            return
        w = weights[i]
        for c in range(remaining // w + 1):
            vector[i] = c
            search(i + 1, remaining - c * w)
        vector[i] = 0

    search(0, target)
    results.sort()
    return results


def oracle_lengths(x: Ratio, M: ExpMonoid, max_index: int) -> List[int]:
    """Sorted distinct lengths of the brute-force enumeration."""
    return sorted({sum(v) for v in oracle_enumerate(x, M, max_index)})
