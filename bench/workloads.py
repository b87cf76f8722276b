"""Seeded query generation and execution for the four benchmark workloads.

A query is a plain tuple ``(kind, *args)`` of strings and ints, so the same
seed always yields the same list and a test can compare two lists directly.
``prepare`` turns a query into a zero-argument callable; the callable looks
the library function up on its module at call time, so the trace wrappers
installed by ``tracing.Tracer`` are seen without re-preparing anything.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, List

import puiseux
from puiseux import accp, factorization as fz, membership as mb, monoid as mo, semiring as sr

from reference import Family, s_index, value

WORKLOADS = ("factor-mix", "deep-index", "semiring-mix", "cli-batch")


FAMILIES: Dict[str, Family] = {
    "const": Family("r=2/3; delta=const(1)", (2, 3), (), ("const", 1)),
    "geom": Family("r=2/3; delta=geom(1,2)", (2, 3), (), ("geom", 1, 2)),
    "poly": Family("r=2/3; delta=poly(1,1)", (2, 3), (), ("poly", (1, 1))),
    "periodic": Family("r=3/4; delta=periodic(1,2)", (3, 4), (), ("periodic", (1, 2))),
    "prefix+const": Family("r=3/4; delta=prefix(2,1);const(1)", (3, 4), (2, 1), ("const", 1)),
    "expanding": Family("r=3/2; delta=const(1)", (3, 2), (), ("const", 1)),
    "finite": Family("r=2/3; delta=prefix(1,1,2);finite", (2, 3), (1, 1, 2), ("finite",)),
    # deep-index only: tails on which the descending identity holds at every index
    "periodic-chain": Family("r=2/3; delta=periodic(2,3)", (2, 3), (), ("periodic", (2, 3))),
}

# Integer part X of x = X + c a + c' a' for the search queries (enumerate_all,
# length_set), per family and support bound B; a and a' are the two smallest
# atoms in [0, B]. Enumeration work grows like x^B; each X is about half the
# largest value that keeps one enumeration under 2 ms on a 2-core x86 box, so
# no search stratum dwarfs the others and the tail does not hinge on one draw.
SEARCH_X = {
    "const": {3: 12, 4: 7, 5: 5, 6: 3},
    "geom": {3: 24, 4: 24, 5: 22, 6: 20},
    "poly": {3: 22, 4: 14, 5: 9, 6: 5},
    "periodic": {3: 28, 4: 16, 5: 10, 6: 10},
    "prefix+const": {3: 19, 4: 12, 5: 6, 6: 6},
    "expanding": {3: 8, 4: 8, 5: 8, 6: 8},
    "finite": {3: 15, 4: 13, 5: 12, 6: 12},
}

# factor-mix strata: kind -> (copies per family, families it applies to).
# The rewriting kinds are three quarters of the mix, so they set the median.
_ALL = tuple(SEARCH_X)
_CONTRACTING = ("const", "geom", "poly", "periodic", "prefix+const", "finite")
FACTOR_STRATA = {
    "is_member": (60, _ALL),
    "min_normal_form": (72, _CONTRACTING),
    "max_length_sweep": (60, _CONTRACTING[:-1]),
    "enumerate_all": (12, _ALL),
    "length_set": (10, _ALL),
}

# The heaviest factor-mix stratum, which sets its latency tail: enumerate_all
# on `const` with B = 5 and x = 8 + c r^4 + 2 r^5, c in {0, 1}, about five
# times the work of any other search. With six copies both values of c are
# drawn for almost every seed, so the tail does not hinge on the draw.
TAIL_STRATUM = ("const", 5, 8, 6)   # family, B, X, copies

# deep-index and semiring-mix strata: kind -> copies, split evenly over the
# families, pairs or shapes of that kind. The counts put the median inside
# one dense cluster of costs (evaluate and atom; Apery sets and Frobenius
# numbers), so that latency_p50_ms does not sit on a gap between clusters.
DEEP_CHAIN = {"const": (100, 300), "periodic-chain": (100, 300), "poly": (80, 100)}
DEEP_PAIRS = {(2, 3, 2): (12, 17), (2, 5, 2): (6, 9), (3, 7, 2): (8, 12), (3, 5, 5): (12, 16)}
DEEP_INDEX_FAMILIES = ("const", "periodic-chain", "prefix+const")
DEEP_STRATA = {"witness_chain": 36, "counterexample": 16, "classify": 16,
               "check_necessary": 8, "evaluate": 120, "atom": 120,
               "series_partial_sums": 18}

SEMI_STRATA = {"nm_membership": 12, "apery_set": 120, "frobenius": 120,
               "frobenius_bruteforce": 24, "exponent_monoid": 80,
               "mult_divides": 80, "is_semiring": 80, "classify_mult": 30}
SEMI_RATIOS = ("2/3", "3/5", "2/5", "4/7", "3/8")

# The CLI examples of the README, verbatim.
CLI_EXAMPLES = (
    ("classify", "--monoid", "r=2/3; delta=geom(1,2)"),
    ("enumerate", "--monoid", "r=2/3; delta=const(1)", "--x", "2", "--max-index", "3"),
    ("counterexample", "--a", "2", "--b", "3", "--k", "6"),
    ("member", "--monoid", "r=2/3; delta=const(1)", "--x", "1/5"),
    ("normal-form", "--monoid", "r=2/3; delta=const(1)", "--z", "[[2,9]]"),
    ("max-length", "--monoid", "r=2/3; delta=geom(1,2)", "--z", "[[0,2]]"),
    ("lengths", "--monoid", "r=2/3; delta=geom(1,2)", "--x", "2", "--max-index", "2"),
    ("chain", "--monoid", "r=2/3; delta=const(1)", "--k", "25"),
    ("semiring", "--r", "2/3", "--N", "gens(2,3)"),
    ("mult-classify", "--r", "2/9"),
    ("oracle", "enumerate", "--monoid", "r=2/3; delta=const(1)", "--x", "2",
     "--max-index", "3"),
)


# ---------------------------------------------------------------------------
# Generation: plain data only, no library calls
# ---------------------------------------------------------------------------

def _top(fam: Family, B: int) -> int:
    return min(B, len(fam.prefix)) if fam.tail == ("finite",) else B


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _coeffs(rng: random.Random, top: int, terms: int, cmax: int) -> tuple:
    out: Dict[int, int] = {}
    for _ in range(terms):
        i = rng.randint(0, top)
        out[i] = out.get(i, 0) + rng.randint(1, cmax)
    return tuple(sorted(out.items()))


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """``count`` integers, one from each of ``count`` equal slices of [lo, hi].

    Stratified draws keep the cost profile of every seed's list close to
    every other's, while the inputs themselves change with the seed.
    """
    width = (hi - lo + 1) / count
    out = [lo + int(width * (i + rng.random())) for i in range(count)]
    rng.shuffle(out)
    return out


def _factor_query(rng: random.Random, kind: str, name: str, i: int) -> tuple:
    fam = FAMILIES[name]
    expanding = fam.r[0] > fam.r[1]
    if kind in ("enumerate_all", "length_set"):
        B = 3 + i % 4
        top = _top(fam, B)
        # the added atoms are the two smallest in [0, B]: small next to X
        lo, hi = (0, 1) if expanding else (top - 1, top)
        frac = value(fam, ((lo, rng.randint(0, 2)), (hi, rng.randint(1, 3))))
        return (kind, name, _frac_str(SEARCH_X[name][B] + frac), B)
    if kind == "is_member":
        if i % 10 < 5:        # a member: the value of a random factorization
            # for r > 1 the search runs up to the first atom above x, so keep x small
            top, cmax = (2, 2) if expanding else (_top(fam, 5), 6)
            x = value(fam, _coeffs(rng, top, rng.randint(1, 3), cmax))
        elif i % 10 < 8:      # compatible denominator, membership not known
            den = fam.r[1] ** s_index(fam, rng.randint(0, _top(fam, 3)))
            x = Fraction(rng.randint(1, 4 * den), den)
        else:                 # a prime of the denominator is foreign to d(r)
            p = next(q for q in (7, 11, 13, 17, 19) if fam.r[1] % q and fam.r[0] % q)
            x = Fraction(rng.randint(1, 40), p * rng.choice((1, fam.r[1])))
        return (kind, name, _frac_str(x))
    return (kind, name, _coeffs(rng, _top(fam, 8), rng.randint(1, 4), 60))


def _factor_mix(rng: random.Random) -> List[tuple]:
    out = []
    for kind, (copies, names) in FACTOR_STRATA.items():
        for name in names:
            out.extend(_factor_query(rng, kind, name, i) for i in range(copies))
    name, B, X, copies = TAIL_STRATUM
    for _ in range(copies):
        frac = value(FAMILIES[name], ((B - 1, rng.randint(0, 1)), (B, 2)))
        out.append(("enumerate_all", name, _frac_str(X + frac), B))
    return out


def _deep_index(rng: random.Random) -> List[tuple]:
    out = []
    per = DEEP_STRATA["witness_chain"] // len(DEEP_CHAIN)
    for name, (lo, hi) in DEEP_CHAIN.items():
        out.extend(("witness_chain", name, k) for k in _spread(rng, lo, hi, per))
    for kind in ("counterexample", "classify", "check_necessary"):
        per = DEEP_STRATA[kind] // len(DEEP_PAIRS)
        for (a, b, seed), (lo, hi) in DEEP_PAIRS.items():
            out.extend((kind, a, b, k, seed) for k in _spread(rng, lo, hi, per))
    for name in DEEP_INDEX_FAMILIES:
        per = DEEP_STRATA["evaluate"] // len(DEEP_INDEX_FAMILIES)
        for i, top in enumerate(_spread(rng, 1000, 5000, per)):
            coeffs = {rng.randint(1000, top): rng.randint(1, 50) for _ in range(i % 2)}
            coeffs[top] = rng.randint(1, 50)
            out.append(("evaluate", name, tuple(sorted(coeffs.items()))))
        per = DEEP_STRATA["atom"] // len(DEEP_INDEX_FAMILIES)
        out.extend(("atom", name, n) for n in _spread(rng, 1000, 5000, per))
        per = DEEP_STRATA["series_partial_sums"] // len(DEEP_INDEX_FAMILIES)
        out.extend(("series_partial_sums", name, t) for t in _spread(rng, 100, 300, per))
    return out


def _coprime_gens(rng: random.Random, count: int, lo: int, hi: int, fixed: int) -> tuple:
    """``fixed`` and ``count - 1`` other integers from [lo, hi], with gcd 1."""
    pool = [g for g in range(lo, hi + 1) if g != fixed]
    while True:
        gens = tuple(sorted(rng.sample(pool, count - 1) + [fixed]))
        if math.gcd(*gens) == 1:
            return gens


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        y = pow(a, d, m)
        if y in (1, m - 1):
            continue
        for _ in range(s - 1):
            y = y * y % m
            if y == m - 1:
                break
        else:
            return False
    return True


def _next_prime(m: int) -> int:
    while not _is_prime(m):
        m += 1
    return m


def _cofinite(rng: random.Random, threshold: int) -> str:
    """A prefix-cofinite exponent set: 0, a random part of [1, threshold), the rest."""
    prefix = sorted({0} | set(rng.sample(range(1, threshold), rng.randint(0, threshold // 2))))
    return "prefix(" + ",".join(map(str, prefix)) + f");tail>={threshold}"


def _exponent_set(rng: random.Random) -> str:
    if rng.random() < 0.5:
        gens = _coprime_gens(rng, rng.choice((2, 3)), 2, 9, rng.randint(2, 9))
        return "gens(" + ",".join(map(str, gens)) + ")"
    return _cofinite(rng, rng.randint(3, 12))


def _semiring_mix(rng: random.Random) -> List[tuple]:
    out = []
    for x in _spread(rng, 1000, 100_000, SEMI_STRATA["nm_membership"]):
        out.append(("nm_membership", _coprime_gens(rng, 3, 5, 40, rng.randint(5, 40)), x))
    # Apery work grows with the least generator, the brute force with the largest
    for kind in ("apery_set", "frobenius"):
        for i, m in enumerate(_spread(rng, 5, 30, SEMI_STRATA[kind])):
            out.append((kind, _coprime_gens(rng, 3 + i % 2, m + 1, 60, m)))
    for i, top in enumerate(_spread(rng, 6, 12, SEMI_STRATA["frobenius_bruteforce"])):
        out.append(("frobenius_bruteforce", _coprime_gens(rng, 2 + i % 2, 3, top - 1, top)))
    for _ in range(SEMI_STRATA["exponent_monoid"]):
        out.append(("exponent_monoid", rng.choice(SEMI_RATIOS), _exponent_set(rng)))
    for _ in range(SEMI_STRATA["mult_divides"]):
        r = rng.choice(SEMI_RATIOS)
        n = rng.randint(0, 3)
        rq = Fraction(r)
        y = sum(rng.randint(0, 3) * rq ** e for e in range(rng.randint(1, 4))) + 1
        x = y * rq ** rng.randint(0, 3)
        out.append(("mult_divides", r, n, _frac_str(x), _exponent_set(rng)))
    for threshold in _spread(rng, 4, 40, SEMI_STRATA["is_semiring"]):
        out.append(("is_semiring", rng.choice(SEMI_RATIOS), _cofinite(rng, threshold)))
    per = SEMI_STRATA["classify_mult"] // 3
    # a large prime, where the trial division runs to its square root; a prime
    # power; a product of two large primes
    for lo in _spread(rng, 10 ** 9, 10 ** 10, per):
        out.append(_mult_query(rng, _next_prime(lo)))
    for p in _spread(rng, 100, 3000, per):
        out.append(_mult_query(rng, _next_prime(p) ** rng.randint(2, 3)))
    for p in _spread(rng, 10 ** 4, 10 ** 5, per):
        out.append(_mult_query(rng, _next_prime(p) * _next_prime(rng.randint(10 ** 4, 10 ** 5))))
    return out


def _mult_query(rng: random.Random, d: int) -> tuple:
    n = rng.randint(2, 50)
    while math.gcd(n, d) != 1:
        n += 1
    return ("classify_mult", f"{n}/{d}")


def _cli_batch(rng: random.Random) -> List[tuple]:
    return [("cli",) + argv for argv in CLI_EXAMPLES]


_GENERATORS = {"factor-mix": _factor_mix, "deep-index": _deep_index,
               "semiring-mix": _semiring_mix, "cli-batch": _cli_batch}


def generate(workload: str, seed: int) -> List[tuple]:
    """The workload's queries for this seed, in the order the loop sends them."""
    rng = random.Random(f"{workload}:{seed}")
    queries = _GENERATORS[workload](rng)
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# Preparation and execution
# ---------------------------------------------------------------------------

def _call(module, name: str, *args):
    # looked up per call so that trace wrappers installed later are used
    return getattr(module, name)(*args)


def _length_query(x, M, B):
    """The `lengths` CLI path: a witness from is_member, then length_set."""
    res = mb.is_member(x, M)
    if not res.is_member:
        return res
    return fz.length_set(x, M, B, witness=res.witness)


class Context:
    """Parsed library objects shared by the prepared queries of one run."""

    def __init__(self):
        self.monoids = {}
        self.counterexamples = {}

    def monoid(self, name: str):
        if name not in self.monoids:
            self.monoids[name] = puiseux.parse_monoid(FAMILIES[name].spec)
        return self.monoids[name]

    def counterexample(self, a: int, b: int, k: int, seed: int):
        key = (a, b, k, seed)
        if key not in self.counterexamples:
            spec, _ = puiseux.construct_counterexample(a, b, k, seed)
            self.counterexamples[key] = puiseux.ExpMonoid(puiseux.Ratio(a, b), spec)
        return self.counterexamples[key]


def prepare(query: tuple, ctx: Context) -> Callable[[], object]:
    """A zero-argument callable that runs ``query`` against the library."""
    pz = puiseux
    kind = query[0]
    P = functools.partial
    if kind in ("is_member", "enumerate_all", "length_set", "min_normal_form",
                "max_length_sweep", "evaluate", "atom", "witness_chain",
                "series_partial_sums"):
        M = ctx.monoid(query[1])
        if kind == "is_member":
            return P(_call, mb, "is_member", pz.Ratio.parse(query[2]), M)
        if kind == "enumerate_all":
            return P(_call, fz, "enumerate_all", pz.Ratio.parse(query[2]), M, query[3])
        if kind == "length_set":
            return P(_length_query, pz.Ratio.parse(query[2]), M, query[3])
        if kind in ("min_normal_form", "max_length_sweep", "evaluate"):
            z = pz.Factorization.make(M, query[2])
            return P(_call, fz, kind, z)
        if kind == "atom":
            return P(_call, mo, "atom", M, query[2])
        return P(_call, accp, kind, M, query[2])
    if kind == "counterexample":
        _, a, b, k, seed = query
        return P(_call, accp, "construct_counterexample", a, b, k, seed)
    if kind == "classify":
        return P(_call, accp, "classify", ctx.counterexample(*query[1:]))
    if kind == "check_necessary":
        return P(_call, accp, "check_necessary", ctx.counterexample(*query[1:]))
    if kind in ("nm_membership", "apery_set", "frobenius", "frobenius_bruteforce"):
        N = pz.NumericalMonoidSpec.make(query[1])
        return P(_call, sr, kind, N, *query[2:])
    if kind in ("exponent_monoid", "is_semiring"):
        return P(_call, sr, kind, pz.Ratio.parse(query[1]), pz.parse_exponent_set(query[2]))
    if kind == "mult_divides":
        _, r, n, x, N = query
        return P(_call, sr, "mult_divides", pz.Ratio.parse(r), n, pz.Ratio.parse(x),
                 pz.parse_exponent_set(N))
    if kind == "classify_mult":
        return P(_call, sr, "classify_mult", pz.Ratio.parse(query[1]))
    raise ValueError(f"unknown query kind {kind!r}")
