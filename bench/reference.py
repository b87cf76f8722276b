"""Independent answers for every benchmark query.

Nothing here reuses the fast paths under test. Gap rules are recomputed from
plain data, values with ``fractions.Fraction``, counterexample inequalities
and chain identities with plain ints, Apery sets by a shortest-path search,
prime structure with ``sympy.factorint``, and factorization sets with the
library's frozen brute-force oracle wherever its work is bounded.

``Checker.check`` returns None for a right (or honestly inconclusive)
answer and a reason otherwise. A reason that starts with a ``KNOWN_DEFECTS``
key marks a defect of the library that is already on record; it still
counts as a wrong answer.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import puiseux
from puiseux import oracle

# Wrong answers the seed library is known to give. They count toward the
# error rate like any other wrong answer; only an unlisted one makes the
# run report correct=false.
KNOWN_DEFECTS = {
    "length_set.flags": "min_exact/max_exact claimed although the window "
                        "truncates the length set (ROADMAP open item 4)",
    "length_set.finite-window": "length_set on a finite window runs the carry "
                                "sweep past the window and raises IndexRangeError",
    "semiring.apery-bfs": "apery_set keeps the first element its breadth-first "
                          "search reaches in each residue class, which has the "
                          "fewest summands but is not always the least; "
                          "frobenius inherits the error",
}

# Upper bound on the oracle's search nodes above which a check falls back to
# value checks only. The bound overestimates the real node count, and it
# keeps one oracle call under about 0.2 s.
ORACLE_NODE_BOUND = 1_000_000


@dataclass(frozen=True)
class Family:
    """A gap-rule family, kept twice: as library grammar and as plain data.

    ``spec`` goes to the library parser; ``r``, ``prefix`` and ``tail`` feed
    the reference gap function below, which never parses.
    """
    spec: str
    r: Tuple[int, int]
    prefix: Tuple[int, ...]
    tail: tuple   # ("const", c) | ("poly", coeffs) | ("geom", scale, ratio)
                  # | ("periodic", pattern) | ("finite",)

    @property
    def window(self) -> Optional[int]:
        return len(self.prefix) if self.tail == ("finite",) else None


def gap(fam: Family, k: int) -> int:
    if k < len(fam.prefix):
        return fam.prefix[k]
    k -= len(fam.prefix)
    kind = fam.tail[0]
    if kind == "const":
        return fam.tail[1]
    if kind == "geom":
        return fam.tail[1] * fam.tail[2] ** k
    if kind == "periodic":
        return fam.tail[1][k % len(fam.tail[1])]
    if kind == "poly":
        return sum(c * k ** e for e, c in enumerate(fam.tail[1]))
    raise IndexError("gap index beyond a finite window")


@functools.lru_cache(maxsize=None)
def _sums(fam: Family, n: int) -> Tuple[int, ...]:
    out = [0]
    for k in range(n):
        out.append(out[-1] + gap(fam, k))
    return tuple(out)


def s_index(fam: Family, n: int) -> int:
    size = 64
    while size <= n:
        size *= 2
    if fam.window is not None:
        size = fam.window
    return _sums(fam, size)[n]


def value(fam: Family, coeffs) -> Fraction:
    r = Fraction(*fam.r)
    return sum((c * r ** s_index(fam, i) for i, c in coeffs), Fraction(0))


def _ratio_is(q, f: Fraction) -> bool:
    return q.num == f.numerator and q.den == f.denominator


def _frac(q) -> Fraction:
    return Fraction(q.num, q.den)


def _foreign_prime(den: int, d: int) -> bool:
    # den | d^e for some e iff no prime of den is foreign to d; e = bit length suffices
    return pow(d, den.bit_length(), den) != 0 if den > 1 else False


# ---------------------------------------------------------------------------
# Numerical monoids and exponent sets
# ---------------------------------------------------------------------------

def apery(gens) -> List[int]:
    """Least element of each residue class mod min(gens), by Dijkstra."""
    m = min(gens)
    dist = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        dv, res = heapq.heappop(heap)
        if dv > dist[res]:
            continue
        for g in gens:
            nd, nr = dv + g, (res + g) % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def _parse_set(text: str):
    s = text.replace(" ", "")
    m = re.fullmatch(r"gens\(([\d,]*)\)", s)
    if m:
        return ("gens", tuple(int(t) for t in m.group(1).split(",")))
    m = re.fullmatch(r"prefix\(([\d,]*)\);tail>=(\d+)", s)
    return ("cofinite", tuple(int(t) for t in m.group(1).split(",") if t), int(m.group(2)))


def _in_set(spec, e: int) -> bool:
    if spec[0] == "cofinite":
        return e >= spec[2] or e in spec[1]
    gens = spec[1]
    g = math.gcd(*gens)
    if e % g:
        return False
    scaled = tuple(x // g for x in gens)
    if min(scaled) == 1:
        return True
    ap = apery(scaled)
    return e // g >= ap[(e // g) % min(scaled)]


def rec_step(a: int, b: int, d: int) -> int:
    """max{m : a^m < b^d}, by binary search on exact powers."""
    t = b ** d
    lo, hi = 0, t.bit_length() + 1          # a^lo < t <= a^hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a ** mid < t:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

class Checker:
    """Checks answers against the references; tallies how each was checked."""

    def __init__(self, ctx, families: Dict[str, Family]):
        self.ctx = ctx
        self.families = families
        self.stats: Counter = Counter()
        self._kind = ""   # kind of the query being checked, for the tallies

    def check(self, query: tuple, result) -> Optional[str]:
        kind = self._kind = query[0]
        if isinstance(result, BaseException):
            if isinstance(result, puiseux.ChainError):
                return None   # the documented honest "no witness available"
            if (kind == "length_set" and query[1] == "finite"
                    and isinstance(result, puiseux.IndexRangeError)):
                return f"length_set.finite-window: {result}"
            return f"raised {type(result).__name__}: {result}"
        return getattr(self, "_" + kind.replace("-", "_"))(query, result)

    # -- oracle ------------------------------------------------------------

    def _oracle(self, name: str, x: Fraction, B: int):
        """The oracle's vectors on [0, B], or None when its work is unbounded."""
        fam = self.families[name]
        if fam.window is not None:
            B = min(B, fam.window)
        n, d = fam.r
        s = [s_index(fam, i) for i in range(B + 1)]
        D = d ** s[B]
        if D % x.denominator == 0:
            T = x.numerator * (D // x.denominator)
            w = [n ** s[i] * d ** (s[B] - s[i]) for i in range(B + 1)]
            # partial vectors at level i lie in a simplex whose volume,
            # widened by one unit per axis, bounds their number
            work, W, prod, fact = 0, 0, 1, 1
            for i in range(B + 1):
                W, prod, fact = W + w[i], prod * w[i], fact * (i + 1)
                work += (T + W) ** (i + 1) // (fact * prod) + 1
                if work > ORACLE_NODE_BOUND:
                    self.stats[f"oracle.skipped.{self._kind}"] += 1
                    return None
        self.stats[f"oracle.checked.{self._kind}"] += 1
        M = self.ctx.monoid(name)
        return oracle.oracle_enumerate(puiseux.Ratio(x.numerator, x.denominator), M, B)

    @staticmethod
    def _vector(z, B: int) -> tuple:
        v = [0] * (B + 1)
        for i, c in z.coeffs:
            v[i] = c
        return tuple(v)

    # -- factor-mix --------------------------------------------------------

    def _is_member(self, query, res) -> Optional[str]:
        _, name, xs = query
        fam, x = self.families[name], Fraction(xs)
        n, d = fam.r
        foreign = _foreign_prime(x.denominator, d)
        if res.status == "member":
            if foreign or value(fam, res.witness.coeffs) != x:
                return "witness does not evaluate to x"
            if n < d and fam.window is None:
                for i, c in res.witness.coeffs:
                    if i >= 1 and c >= d ** gap(fam, i - 1):
                        return "witness is not the minimum normal form"
            return None
        if res.status == "not-member" and foreign:
            return None
        # not-member without a denominator obstruction, or unresolved: the
        # search bound it used must really hold no factorization
        if res.status == "not-member":
            if fam.window is not None:
                B = fam.window
            elif n > d:
                B = 0
                while Fraction(n, d) ** s_index(fam, B) <= x:
                    B += 1
            else:
                return "not-member claimed without an obstruction"
        else:
            B = res.bound
        vectors = self._oracle(name, x, B)
        if vectors:
            return f"{res.status} but the oracle finds {vectors[0]} within {B}"
        return None

    def _enumerate_all(self, query, zs) -> Optional[str]:
        _, name, xs, B = query
        fam, x = self.families[name], Fraction(xs)
        top = B if fam.window is None else min(B, fam.window)
        keys = [z.coeffs for z in zs]
        if keys != sorted(set(keys)):
            return "factorizations not sorted or not distinct"
        for z in zs:
            if z.coeffs and z.top_index > top:
                return "factorization outside the support bound"
            if value(fam, z.coeffs) != x:
                return f"factorization {z.coeffs} does not evaluate to x"
        vectors = self._oracle(name, x, B)
        if vectors is not None and sorted(self._vector(z, top) for z in zs) != vectors:
            return f"{len(zs)} factorizations, the oracle finds {len(vectors)}"
        return None

    def _min_normal_form(self, query, nf) -> Optional[str]:
        _, name, coeffs = query
        fam = self.families[name]
        x = value(fam, coeffs)
        if value(fam, nf.coeffs) != x:
            return "normal form changes the value"
        for i, c in nf.coeffs:
            if i >= 1 and c >= fam.r[1] ** gap(fam, i - 1):
                return f"coefficient {c} at {i} admits a down-step"
        vectors = self._oracle(name, x, max(i for i, _ in coeffs))
        if vectors is not None and nf.length != min(sum(v) for v in vectors):
            return "normal form is not of minimum length"
        return None

    def _max_length_sweep(self, query, outcome) -> Optional[str]:
        _, name, coeffs = query
        fam = self.families[name]
        if outcome.found is None:
            return None if outcome.levels_explored == 64 else "bound misreported"
        w = outcome.found
        x = value(fam, coeffs)
        if value(fam, w.coeffs) != x:
            return "sweep changes the value"
        for i, c in w.coeffs:
            if c >= fam.r[0] ** gap(fam, i):
                return f"coefficient {c} at {i} admits an up-step"
        vectors = self._oracle(name, x, w.top_index)
        if vectors is not None and w.length != max(sum(v) for v in vectors):
            return "sweep result is not of maximum length"
        return None

    def _length_set(self, query, ls) -> Optional[str]:
        _, name, xs, B = query
        fam, x = self.families[name], Fraction(xs)
        n, d = fam.r
        if isinstance(ls, puiseux.MembershipResult):
            return None if ls.status == "unresolved" else "x is a member by construction"
        vectors = self._oracle(name, x, B)
        if vectors is not None and list(ls.lengths) != sorted({sum(v) for v in vectors}):
            return "lengths differ from the oracle's"
        # the flags claim global exactness: test them on a wider window,
        # complete for r > 1 and for finite windows
        wide = B + 2
        if fam.window is not None:
            wide = fam.window
        elif n > d:
            while Fraction(n, d) ** s_index(fam, wide) <= x:
                wide += 1
        truth = self._oracle(name, x, wide)
        if truth is None or not ls.lengths:
            return None
        lengths = [sum(v) for v in truth]
        if ls.min_exact and min(ls.lengths) != min(lengths):
            return f"length_set.flags: min_exact but length {min(lengths)} exists"
        if ls.max_exact and max(ls.lengths) < max(lengths):
            return f"length_set.flags: max_exact but length {max(lengths)} exists"
        return None

    # -- deep-index --------------------------------------------------------

    def _witness_chain(self, query, chain) -> Optional[str]:
        _, name, k = query
        fam = self.families[name]
        n, d = fam.r
        r = Fraction(n, d)
        m0 = chain.start
        if len(chain.elements) != k + 1 or len(chain.diffs) != k:
            return "chain has the wrong number of links"
        holds = [d ** gap(fam, m) > n ** gap(fam, m + 1) for m in range(max(m0 - 1, 0), m0 + k)]
        if not all(holds[1 if m0 else 0:]) or (m0 and holds[0]):
            return "chain is not anchored at the first run of k links"
        prev = None
        for j, m in enumerate(range(m0, m0 + k + 1)):
            x = n ** gap(fam, m) * r ** s_index(fam, m)
            if not _ratio_is(chain.elements[j], x):
                return f"element {j} differs from n^delta_m r^s_m"
            if prev is not None:
                coeff = d ** gap(fam, m - 1) - n ** gap(fam, m)
                link = coeff * r ** s_index(fam, m)
                if chain.diffs[j - 1].coeffs != ((m, coeff),) or prev - x != link:
                    return f"link {j - 1} does not close"
                if not prev > x:
                    return "chain is not strictly descending"
            prev = x
        return None

    def _counterexample(self, query, out) -> Optional[str]:
        _, a, b, k, seed = query
        spec, report = out
        delta = [seed]
        for _ in range(k - 1):
            delta.append(rec_step(a, b, delta[-1]))
        if report["delta"] != delta or spec.prefix != tuple(delta):
            return "gap sequence differs from the recurrence"
        if spec.tail.seed != rec_step(a, b, delta[-1]) or (spec.tail.a, spec.tail.b) != (a, b):
            return "tail does not continue the recurrence"
        for j in range(k - 1):
            bd = b ** delta[j]
            if not (bd > a ** delta[j + 1] and a ** (delta[j + 1] + 1) >= bd):
                return f"step {j} violates the defining inequalities"
        checks = report["checks"]
        if (len(checks) != k - 1 or not report["verified"]
                or not all(c["descending_ok"] and c["ratio_close_ok"] for c in checks)):
            return "verification report disagrees with the inequalities"
        return None

    def _cx_deltas(self, query) -> Tuple[int, int]:
        _, a, b, k, seed = query
        dl = seed
        for _ in range(k - 1):
            dl = rec_step(a, b, dl)
        nxt = rec_step(a, b, dl)
        return nxt, rec_step(a, b, nxt)

    def _classify(self, query, c) -> Optional[str]:
        _, a, b, k, _seed = query
        if c.accp != "no" or c.evidence.get("rule") != "gap-shortfall":
            return f"verdict {c.accp} for a counterexample monoid"
        m = re.fullmatch(r"d\^delta_(\d+)=(\d+) > n\^delta_(\d+)=(\d+)", c.evidence["instance"])
        dm, dm1 = self._cx_deltas(query)
        if (not m or int(m.group(1)) != k or int(m.group(2)) != b ** dm
                or int(m.group(4)) != a ** dm1 or not b ** dm > a ** dm1):
            return "shortfall instance is wrong"
        return None

    def _check_necessary(self, query, out) -> Optional[str]:
        _, a, b, _k, _seed = query
        # the log-recurrence attains the necessary bound with equality
        if out.get("bound_holds") is not True or out.get("lhs") != f"d(r)={b}":
            return "necessary bound misreported"
        return None

    def _evaluate(self, query, q) -> Optional[str]:
        _, name, coeffs = query
        return None if _ratio_is(q, value(self.families[name], coeffs)) else "wrong value"

    def _atom(self, query, q) -> Optional[str]:
        _, name, i = query
        fam = self.families[name]
        ok = _ratio_is(q, Fraction(*fam.r) ** s_index(fam, i))
        return None if ok else "wrong atom"

    def _series_partial_sums(self, query, sums) -> Optional[str]:
        _, name, terms = query
        fam = self.families[name]
        n, d = fam.r
        total = Fraction(0)
        if len(sums) != terms:
            return "wrong number of partial sums"
        for k in range(terms):
            total += (n ** gap(fam, k) - 1) * Fraction(n, d) ** s_index(fam, k)
            if not _ratio_is(sums[k], total):
                return f"partial sum {k} is wrong"
        return None

    # -- semiring-mix ------------------------------------------------------

    def _nm_membership(self, query, got) -> Optional[str]:
        _, gens, x = query
        ap = apery(gens)
        return None if got == (x >= ap[x % min(gens)]) else "membership contradicts the Apery set"

    def _apery_set(self, query, got) -> Optional[str]:
        return None if list(got) == apery(query[1]) else "semiring.apery-bfs: wrong Apery set"

    def _frobenius_bruteforce(self, query, got) -> Optional[str]:
        gens = query[1]
        want = max(apery(gens)) - min(gens)
        if len(gens) == 2:
            a, b = gens
            want = a * b - a - b
        return None if got == want else f"Frobenius number {got}, expected {want}"

    def _frobenius(self, query, got) -> Optional[str]:
        reason = self._frobenius_bruteforce(query, got)
        return reason and "semiring.apery-bfs: " + reason

    def _exponent_monoid(self, query, out) -> Optional[str]:
        _, rs, Ns = query
        M, base = out
        spec = _parse_set(Ns)
        if _frac(M.r) != Fraction(rs):
            return "wrong base"
        members = [e for e in range(200) if _in_set(spec, e)]
        if base != members[0]:
            return "wrong least exponent"
        s, got = 0, []
        prefix, step = M.delta.prefix, M.delta.tail.value
        for k in range(len(members)):
            got.append(base + s)
            s += prefix[k] if k < len(prefix) else step
        return None if got == members else "exponent sequence differs from the set"

    def _mult_divides(self, query, res) -> Optional[str]:
        _, rs, n, xs, Ns = query
        r, x = Fraction(rs), Fraction(xs)
        spec = _parse_set(Ns)
        if res.status == "member":
            base = next(e for e in range(200) if _in_set(spec, e))
            delta = res.witness.monoid.delta
            total = Fraction(0)
            for i, c in res.witness.coeffs:
                e = base + sum(delta.prefix[j] if j < len(delta.prefix) else delta.tail.value
                               for j in range(i))
                if not _in_set(spec, e):
                    return f"witness uses exponent {e} outside N"
                total += c * r ** e
            return None if total * r ** n == x else "witness does not give x"
        if res.status == "not-member":
            if "divisor bound" in (res.reason or ""):
                k, m = 0, x.numerator
                while m % r.numerator == 0:
                    m, k = m // r.numerator, k + 1
                return None if n > k else "divisor bound misapplied"
            if not _foreign_prime((x / r ** n).denominator, r.denominator):
                return "not-member claimed without an obstruction"
        return None

    def _is_semiring(self, query, out) -> Optional[str]:
        _, _rs, Ns = query
        _, prefix, t = _parse_set(Ns)
        closed = 0 in prefix and all(a + b in prefix for a in prefix for b in prefix if a + b < t)
        return None if out.get("semiring") is closed else f"semiring={out.get('semiring')}"

    def _classify_mult(self, query, v) -> Optional[str]:
        import sympy
        r = Fraction(query[1])
        n, d = r.numerator, r.denominator
        if d == 1 or n > d:
            want = ("yes", "yes", "yes")
        elif n == 1:
            want = ("n/a", "n/a", "n/a")
        else:
            f = sympy.factorint(d)
            want = ("yes", "unknown", "unknown") if len(f) == 1 else ("unknown",) * 3
            if len(f) == 1:
                (p, e), = f.items()
                if v.evidence.get("instance") != f"d(r)={d}={p}^{e}":
                    return "prime-power instance is wrong"
        return None if (v.accp, v.bfp, v.ffp) == want else f"verdict {v.accp}, expected {want[0]}"

    # -- cli-batch ---------------------------------------------------------

    def _cli(self, query, out) -> Optional[str]:
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(stdout)
        want = json.loads(json.dumps(cli_expected(query[1:])))
        if doc.get("status") != "ok" or doc.get("result") != want:
            return "CLI result differs from the in-process library answer"
        return None


def _argv_dict(argv) -> Dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def cli_expected(argv) -> dict:
    """The result the CLI should print, built from direct library calls."""
    from puiseux import accp, factorization as fz, membership as mb, semiring as sr
    cmd, a = argv[0], _argv_dict(argv)
    M = puiseux.parse_monoid(a["monoid"]) if "monoid" in a else None
    pairs = lambda z: [list(p) for p in z.coeffs]   # noqa: E731

    def member_doc(res):
        out = {"status": res.status}
        if res.witness is not None:
            out["witness"] = pairs(res.witness)
        if res.reason:
            out["reason"] = res.reason
        if res.bound is not None:
            out["bound"] = res.bound
        return out

    if cmd == "classify":
        c = accp.classify(M)
        return {"atomicity": c.atomicity.kind, "atoms": c.atomicity.atoms, "accp": c.accp,
                "bfp": c.accp, "ffp": c.accp, "evidence": c.evidence}
    if cmd == "enumerate":
        zs = fz.enumerate_all(puiseux.Ratio.parse(a["x"]), M, int(a["max-index"]))
        return {"count": len(zs), "factorizations": [pairs(z) for z in zs],
                "lengths": sorted({z.length for z in zs})}
    if cmd == "counterexample":
        ai, bi = int(a["a"]), int(a["b"])
        spec, report = accp.construct_counterexample(ai, bi, int(a["k"]))
        c = accp.classify(puiseux.ExpMonoid(puiseux.Ratio(ai, bi), spec))
        return dict(report, classification={"atomicity": c.atomicity.kind, "accp": c.accp,
                                            "evidence": c.evidence})
    if cmd == "member":
        return {"membership": member_doc(mb.is_member(puiseux.Ratio.parse(a["x"]), M))}
    if cmd in ("normal-form", "max-length"):
        z = puiseux.Factorization.make(M, json.loads(a["z"]))
        if cmd == "normal-form":
            nf = fz.min_normal_form(z)
            return {"normal_form": pairs(nf), "length": nf.length, "value": str(fz.evaluate(nf))}
        o = fz.max_length_sweep(z, 64)
        if o.terminated:
            return {"status": "found", "factorization": pairs(o.found), "length": o.found.length}
        return {"status": "no-termination-within-bound", "levels_explored": o.levels_explored}
    if cmd == "lengths":
        x = puiseux.Ratio.parse(a["x"])
        res = mb.is_member(x, M)
        ls = fz.length_set(x, M, int(a["max-index"]), witness=res.witness)
        return {"lengths": list(ls.lengths), "min_exact": ls.min_exact, "max_exact": ls.max_exact}
    if cmd == "chain":
        ch = accp.witness_chain(M, int(a["k"]))
        return {"start": ch.start, "elements": [str(q) for q in ch.elements],
                "differences": [pairs(y) for y in ch.diffs]}
    if cmd == "semiring":
        return sr.is_semiring(puiseux.Ratio.parse(a["r"]), sr.parse_exponent_set(a["N"]))
    if cmd == "mult-classify":
        v = sr.classify_mult(puiseux.Ratio.parse(a["r"]))
        return {"accp": v.accp, "bfp": v.bfp, "ffp": v.ffp, "evidence": v.evidence}
    if cmd == "oracle":
        vs = oracle.oracle_enumerate(puiseux.Ratio.parse(a["x"]), M, int(a["max-index"]))
        return {"count": len(vs), "vectors": [list(v) for v in vs],
                "lengths": sorted({sum(v) for v in vs})}
    raise ValueError(f"no reference for CLI command {cmd!r}")
