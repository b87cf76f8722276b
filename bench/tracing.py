"""Span tracing around the library's layer boundaries, from outside the library.

``Tracer.install`` replaces every public function of each layer module --
and every name a sibling module imported from it, such as
``membership.enumerate_all`` -- with a wrapper that records a span
(id, name, start, end, parent id, query id, time spent in child spans).
``Recurrence.step`` gets a span too; ``DeltaSpec.delta`` and the ``Ratio``
operators are only counted, because they run millions of times.
``uninstall`` puts every original back. Spans stay in memory until
``write`` saves them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import types
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List

import puiseux

LAYERS = ("ratio", "monoid", "factorization", "membership", "accp", "semiring",
          "oracle", "cli")
RATIO_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
             "__pow__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.qid = -1           # id of the query being run; -1 outside the timed queries
        self._next = 0
        self._stack: List[list] = []
        self._patched: List[tuple] = []
        # counters read off return values of the timed queries
        self._hooks: Dict[str, Callable[[object], None]] = {
            "factorization.enumerate_all":
                lambda zs: self._bump("factorization.enumerate.results", len(zs)),
            "factorization.max_length_sweep":
                lambda o: self._bump("factorization.sweep.levels", o.levels_explored),
            "membership.is_member":
                lambda res: self._bump("membership.decided", res.status != "unresolved"),
            "accp.witness_chain":
                lambda ch: self._bump("accp.chain.links", len(ch.diffs)),
        }

    def _bump(self, key: str, amount: int) -> None:
        if self.qid >= 0:
            self.counts[key] += amount

    # -- recording ---------------------------------------------------------

    def _open(self):
        sid = self._next
        self._next = sid + 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _close(self, name: str, frame: list, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += t1 - t0
        self.spans.append((frame[0], name, t0, t1, parent[0] if parent else -1,
                           self.qid, frame[1]))

    @contextlib.contextmanager
    def span(self, name: str):
        frame, t0 = self._open()
        try:
            yield
        finally:
            self._close(name, frame, t0)

    def _span_wrapper(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.qid >= 0:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(f"puiseux.{name}") for name in LAYERS]
        wrappers = {}
        for mod in [puiseux, *modules]:
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(val, types.FunctionType)
                        or val.__module__.split(".")[-1] not in LAYERS):
                    continue
                if id(val) not in wrappers:
                    name = f"{val.__module__.split('.')[-1]}.{val.__name__}"
                    wrappers[id(val)] = self._span_wrapper(name, val)
                self._patch(mod, attr, wrappers[id(val)])
        mono, ratio = modules[1], modules[0]
        self._patch(mono.Recurrence, "step",
                    self._span_wrapper("monoid.Recurrence.step", mono.Recurrence.step))
        self._patch(mono.DeltaSpec, "delta",
                    self._count_wrapper("monoid.gap", mono.DeltaSpec.delta))
        for op in RATIO_OPS:
            self._patch(ratio.Ratio, op, self._count_wrapper("ratio.ops", vars(ratio.Ratio)[op]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Save the spans as CSV: id,name,start,end,parent,query,child_s."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,query,child_s\n")
            for sid, name, t0, t1, parent, qid, child in sorted(self.spans):
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{qid},{child:.9f}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric prefix -> span names whose self time it sums
BUSY = {
    "monoid.s_index": ("monoid.s_index",),
    "monoid.recurrence_step": ("monoid.Recurrence.step",),
    "monoid.parse": ("monoid.parse_monoid", "monoid.parse_delta", "monoid.monoid_from_json"),
    "factorization.enumerate": ("factorization.enumerate_all",),
    "factorization.normal_form": ("factorization.min_normal_form",),
    "factorization.sweep": ("factorization.max_length_sweep",),
    "factorization.evaluate": ("factorization.evaluate",),
    "membership.is_member": ("membership.is_member",),
    "membership.support_bound": ("membership.default_support_bound",),
    "accp.classify": ("accp.classify",),
    "accp.witness_chain": ("accp.witness_chain",),
    "accp.counterexample": ("accp.construct_counterexample",),
    "semiring.nm_membership": ("semiring.nm_membership",),
    "semiring.apery": ("semiring.apery_set",),
    "semiring.frobenius_bruteforce": ("semiring.frobenius_bruteforce",),
    "semiring.exponent_monoid": ("semiring.exponent_monoid",),
    "semiring.classify_mult": ("semiring.classify_mult",),
    "oracle.enumerate": ("oracle.oracle_enumerate",),
}
CALLS = {
    "monoid.s_index.calls": "monoid.s_index",
    "factorization.enumerate.calls": "factorization.enumerate_all",
    "membership.is_member.calls": "membership.is_member",
    "semiring.nm_membership.calls": "semiring.nm_membership",
    "oracle.enumerate.calls": "oracle.oracle_enumerate",
}


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-layer numbers from the spans, per pass through the query list.

    Oracle spans come from the check pass (query id -1) and are totals of it;
    all others come from ``passes`` whole passes of the timed queries.
    """
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    for _, name, t0, t1, _, qid, child in tracer.spans:
        oracle = name.startswith("oracle.")
        if (qid < 0) != oracle:
            continue
        weight = 1 if oracle else 1 / passes
        busy[name] += (t1 - t0 - child) * weight
        calls[name] += weight
    counts = tracer.counts
    out = {f"{prefix}.busy_s": sum(busy[n] for n in names) for prefix, names in BUSY.items()}
    out.update({metric: calls[name] for metric, name in CALLS.items()})
    out["monoid.gap.calls"] = counts["monoid.gap"] / passes
    out["ratio.ops"] = counts["ratio.ops"] / passes
    for key in ("factorization.enumerate.results", "factorization.sweep.levels",
                "accp.chain.links"):
        out[key] = counts[key] / passes
    member_calls = calls["membership.is_member"] * passes
    out["membership.resolved_ratio"] = (counts["membership.decided"] / member_calls
                                        if member_calls else 0.0)
    return out


def max_bits(answer) -> int:
    """Largest numerator or denominator bit length of any Ratio in an answer."""
    if isinstance(answer, puiseux.Ratio):
        return max(answer.num.bit_length(), answer.den.bit_length())
    if isinstance(answer, (list, tuple)):
        return max((max_bits(a) for a in answer), default=0)
    if hasattr(answer, "__dataclass_fields__"):
        return max((max_bits(getattr(answer, f)) for f in answer.__dataclass_fields__),
                   default=0)
    return 0


def _best(fn, reps: int = 5) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def growth_metrics() -> Dict[str, float]:
    """log2(t(2s)/t(s)) for the scale parameter of four known hot paths;
    2.0 reads as quadratic. Each time is the best of five."""
    from puiseux import accp, factorization as fz, semiring as sr
    M = puiseux.parse_monoid("r=2/3; delta=const(1)")
    N = sr.NumericalMonoidSpec.make((5, 7, 11))

    def doubling(f, s):
        return math.log2(_best(lambda: f(2 * s)) / _best(lambda: f(s)))

    return {
        "growth.witness_chain": doubling(lambda k: accp.witness_chain(M, k), 400),
        "growth.enumerate": doubling(lambda B: fz.enumerate_all(puiseux.Ratio(2), M, B), 6),
        "growth.nm_membership": doubling(lambda x: sr.nm_membership(N, x), 50_000),
        "growth.counterexample": math.log2(
            _best(lambda: accp.construct_counterexample(2, 3, 19))
            / _best(lambda: accp.construct_counterexample(2, 3, 18))),
    }


def median_span(tracer: Tracer, name: str) -> float:
    times = [t1 - t0 for _, n, t0, t1, _, qid, _ in tracer.spans if n == name and qid >= 0]
    return statistics.median(times) if times else 0.0
