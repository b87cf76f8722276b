"""The puiseux benchmark: one seeded workload, a closed loop with one client.

    python3 bench/run.py --workload factor-mix --seed 1 --seconds 10 --trace 0

The workload's queries are generated from ``--seed`` in this process and
sent one at a time: the next query goes out only when the previous one has
returned, because every caller of this library waits for its exact answer.
Each query is timed from outside. After the loop every distinct answer is
checked against ``reference.py``, outside the timed region.

Latencies are reported at the speed of a reference machine (see ``Loop``),
because other work on a shared machine slows executions and can slow a
whole run: each execution is followed by a fixed piece of work that slows
down with it, a gauge in process and a bare interpreter after a CLI child
or a set-up probe. The summary prints the throughput as timed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json. With ``--trace 1`` the run is split
into an untraced half and a traced half on the same queries, and the JSON
holds the per-layer metrics instead; the spans are written to
``.bench_out/``. Lines before the last one are a readable summary.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WARMUP = 3           # queries run once before timing, as part of set-up
SETUP_SAMPLES = 9    # fresh processes whose set-up time gives setup_s
PROBE_SAMPLES = 5    # fresh processes per CLI start-up probe
TAIL_BEYOND = 10     # samples that must lie beyond the reported tail percentile
GAUGE_REF = 1.25e-3  # gauge time, in s, on the reference machine that latencies are
                     # reported at: its least time on a quiet 2-core x86 box
INTERP_REF = 0.045   # least start of a bare interpreter, in s, on the same machine


def _load_library():
    if not (SRC / "puiseux" / "__init__.py").is_file():
        sys.exit(f"bench: no puiseux sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import puiseux
    if Path(puiseux.__file__).resolve().parent != SRC / "puiseux":
        sys.exit(f"bench: imported puiseux from {puiseux.__file__}, not from {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cli_child(argv, env):
    proc = subprocess.run([sys.executable, "-m", "puiseux.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def _gauge() -> float:
    """Time of a fixed piece of pure-Python work, the speed gauge: rational
    arithmetic, small dicts and sorting, as in the library, and big-integer
    squaring. It uses no library code, so that no change to it moves the gauge."""
    t0 = perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(1, 240):
        q = Fraction(i % 17 + 1, i % 13 + 2)
        acc = acc + q if acc < 50 else q
        table[i % 41, i % 3] = (q, acc)
    rows = sorted(table.items(), key=lambda kv: (kv[1][0], kv[0]))
    x = 3 ** 300 + len(rows)
    for _ in range(40):
        x = (x * x + 7) % (2 ** 521 - 1)
    return perf_counter() - t0


class Run:
    """Set-up state of one workload and seed: queries, library objects, callables."""

    def __init__(self, workload: str, seed: int):
        import workloads
        self.queries = workloads.generate(workload, seed)
        self.ctx = workloads.Context()
        if workload == "cli-batch":
            env = _child_env()
            self.thunks = [lambda argv=q[1:]: _cli_child(argv, env) for q in self.queries]
        else:
            self.thunks = [workloads.prepare(q, self.ctx) for q in self.queries]
        for thunk in self.thunks[:WARMUP]:
            _answer(thunk)


def _answer(thunk):
    try:
        return thunk()
    except Exception as exc:   # an unexpected exception is a wrong answer
        return exc


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and a.args == b.args
    try:
        return bool(a == b)
    except Exception:
        return False


class Loop:
    """One closed loop through the query list until time is up, and at least
    one whole pass, so that every query of the list is answered.

    Other work on a shared machine slows executions by a factor that changes
    from one second to the next and can hold for a whole run. So each
    execution is timed from outside and followed at once by ``pair``, a
    fixed piece of work that no change to the library moves and that slows
    down with it; ``pair`` is timed too. A query's latency is the median over
    its executions of the ratio of the two times, times ``ref``, the time
    ``pair`` takes on the reference machine: latencies are reported at that
    machine's speed. Throughput is the rate of one client that waits for each
    answer in turn at those latencies: executions over the sum of their
    latencies. ``raw_qps`` is the rate as timed, without ``pair``.

    With ``whole_passes`` the loop stops only at the end of a pass through
    the list, so that work per pass is exact. ``aside`` is called
    ``aside_runs`` times, spread evenly over the loop between two queries,
    so that a burst of outside load meets only a few of its calls; its time
    is added to the loop's.
    """

    def __init__(self, queries, thunks, seconds: float, pair, ref: float, tracer=None,
                 whole_passes=False, aside=None, aside_runs=0):
        self.count = 0
        self.first = {}       # query -> its first answer
        self.ratios = {}      # query -> its time over the time of pair(), per execution
        self.differ = set()   # queries with an execution whose answer differs from the first
        n = len(thunks)
        start = perf_counter()
        end = start + seconds
        asides, aside_s, pair_s = 0, 0.0, 0.0
        while True:
            j = self.count % n
            t = perf_counter()
            if asides < aside_runs and t >= start + aside_s + (asides + 0.5) * seconds / aside_runs:
                aside()
                asides += 1
                aside_s += perf_counter() - t
                continue
            if t >= end + aside_s and self.count >= n and not (whole_passes and j):
                break
            if tracer is not None:
                tracer.qid = self.count
            t0 = perf_counter()
            res = _answer(thunks[j])
            t1 = perf_counter()
            if tracer is not None:
                tracer.qid = -1
            pair()
            t2 = perf_counter()
            pair_s += t2 - t1
            q = queries[j]
            if q in self.first:
                if not _same(self.first[q], res):
                    self.differ.add(q)
            else:
                self.first[q], self.ratios[q] = res, []
            self.ratios[q].append((t1 - t0) / (t2 - t1))
            self.count += 1
        for _ in range(asides, aside_runs):
            aside()
        self.raw_qps = self.count / (t - start - aside_s - pair_s)
        self.latency = {q: statistics.median(x) * ref for q, x in self.ratios.items()}
        self.qps = 1.0 / statistics.fmean(self.latencies())

    def latencies(self) -> list:
        """Every execution at its query's latency, in ascending order."""
        return sorted(x for q, x in self.latency.items() for _ in self.ratios[q])


def _check(run: Run, loops) -> dict:
    """Check the answer of every distinct query of the list once, outside the
    timed region. A query fails when its answer is wrong or when two of its
    executions answered differently; failures count per distinct query, so
    that they depend on the seed and not on how many passes the time allowed."""
    import reference
    import workloads
    checker = reference.Checker(run.ctx, workloads.FAMILIES)
    failed = set().union(*(loop.differ for loop in loops))
    known, unknown = {}, []
    for q in dict.fromkeys(run.queries):
        try:
            reason = checker.check(q, loops[0].first[q])
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            continue
        failed.add(q)
        tag = reason.split(":")[0]
        if tag in reference.KNOWN_DEFECTS:
            known[tag] = known.get(tag, 0) + 1
        else:
            unknown.append((q, reason))
    correct = not unknown and not any(loop.differ for loop in loops)
    return {"attempted": len(set(run.queries)), "failed": failed, "known": known,
            "unknown": unknown, "correct": correct, "oracle": dict(checker.stats)}


def _tail(xs):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _bare_start(env) -> float:
    """Time to start and end a bare interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
    return perf_counter() - t0


def _setup_probe(workload: str, seed: int, env) -> float:
    """Process start to first timed query, on a fresh process, over the start
    of a bare interpreter right after it: the two slow down together."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit("bench: set-up probe failed")
    return (t1 - t0) / _bare_start(env)


def _pair(workload: str, env) -> tuple:
    """What the loop runs after each query, and its time on the reference
    machine: a bare interpreter after a CLI child, the gauge in process."""
    if workload == "cli-batch":
        return (lambda: _bare_start(env)), INTERP_REF
    return _gauge, GAUGE_REF


def untraced(workload: str, seed: int, seconds: float) -> tuple:
    run = Run(workload, seed)
    env = _child_env()
    setup = []
    loop = Loop(run.queries, run.thunks, seconds, *_pair(workload, env),
                aside=lambda: setup.append(_setup_probe(workload, seed, env)),
                aside_runs=SETUP_SAMPLES)
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    t0 = perf_counter()
    checked = _check(run, [loop])
    check_s = perf_counter() - t0
    latencies = loop.latencies()
    tail, pct, n = _tail(latencies)
    error_rate = len(checked["failed"]) / checked["attempted"]
    metrics = {
        "throughput_qps": loop.qps,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "correct_rate": 1.0 - error_rate,
        "setup_s": statistics.median(setup) * INTERP_REF,
        "peak_rss_mb": rss_mb,
    }
    notes = [f"{loop.count} executions of {len(loop.first)} distinct queries, "
             f"closed loop, one client; as timed {loop.raw_qps:.2f} queries/s",
             f"latency_tail_ms is p{pct:.3f}: {TAIL_BEYOND} of {n} samples lie beyond it",
             f"error_rate {error_rate:.6f} ({len(checked['failed'])} of "
             f"{checked['attempted']} distinct queries failed)",
             f"checks took {check_s:.2f} s",
             "setup_s samples, over a bare interpreter start: "
             + " ".join(f"{s:.3f}" for s in setup)]
    return metrics, checked, notes


def _cli_probes() -> dict:
    env = _child_env()
    code = ("import time; t = time.perf_counter(); import puiseux.cli; "
            "print(time.perf_counter() - t)")
    interp, imports = [], []
    for _ in range(PROBE_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        interp.append(perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imports)}


def _canonical(answer) -> str:
    """Byte-exact form of an answer; integers in hex, so no size limit applies."""
    def conv(x):
        if isinstance(x, BaseException):
            return ["raised", type(x).__name__, [conv(a) for a in x.args]]
        if isinstance(x, bool) or x is None or isinstance(x, (str, float)):
            return x
        if isinstance(x, int):
            return hex(x)
        if isinstance(x, (list, tuple)):
            return [conv(a) for a in x]
        if isinstance(x, dict):
            return [[conv(k), conv(v)] for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))]
        if hasattr(x, "__slots__") and not hasattr(x, "__dict__"):
            return [type(x).__name__] + [conv(getattr(x, s)) for s in x.__slots__]
        if hasattr(x, "__dataclass_fields__"):
            return [type(x).__name__] + [conv(getattr(x, f)) for f in x.__dataclass_fields__]
        return ["repr", repr(x)]
    return json.dumps(conv(answer))


def traced(workload: str, seed: int, seconds: float) -> tuple:
    import tracing
    run = Run(workload, seed)
    pair = _pair(workload, _child_env())
    plain = Loop(run.queries, run.thunks, seconds / 2, *pair)
    tracer = tracing.Tracer()
    thunks = run.thunks
    if workload == "cli-batch":
        from puiseux import cli
        env = _child_env()

        def traced_cli(argv):
            with tracer.span("cli.process"):
                child = _cli_child(argv, env)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(list(argv))
            inproc = (code, buf.getvalue())
            return inproc if inproc == child else ("child differs", child, inproc)
        thunks = [lambda argv=q[1:]: traced_cli(argv) for q in run.queries]
    tracer.install()
    try:
        loop = Loop(run.queries, thunks, seconds / 2, *pair, tracer, whole_passes=True)
        checked = _check(run, [plain, loop])
    finally:
        tracer.uninstall()
    differ = [q for q in loop.first if _canonical(loop.first[q]) != _canonical(plain.first[q])]
    checked["failed"].update(differ)
    checked["correct"] = checked["correct"] and not differ
    metrics = tracing.layer_metrics(tracer, loop.count // len(run.queries))
    metrics["ratio.max_bits"] = max((tracing.max_bits(a) for a in loop.first.values()), default=0)
    metrics["trace.overhead_ratio"] = loop.qps / plain.qps
    metrics.update(tracing.growth_metrics())
    metrics["cli.main_s"] = tracing.median_span(tracer, "cli.main")
    metrics["cli.process_s"] = tracing.median_span(tracer, "cli.process")
    metrics.update(_cli_probes() if workload == "cli-batch"
                   else {"cli.interp_s": 0.0, "cli.import_s": 0.0})
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-{seed}.csv")
    notes = [f"untraced {plain.count} queries at {plain.qps:.2f}/s, "
             f"traced {loop.count} at {loop.qps:.2f}/s, {len(tracer.spans)} spans",
             f"answers differing between the traced and untraced halves: {len(differ)}"]
    return metrics, checked, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    _load_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_probe:
        Run(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measure = traced if args.trace else untraced
    metrics, checked, notes = measure(args.workload, args.seed, args.seconds)
    if set(metrics) != set(declared):
        odd = sorted(set(metrics) ^ set(declared))
        sys.exit(f"bench: metrics {odd} disagree with BENCHMARK.json")
    if not all(math.isfinite(v) for v in metrics.values()):
        sys.exit("bench: a metric is not finite")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    for tag, count in sorted(checked["known"].items()):
        print(f"  known defect {tag}: {count} distinct queries answered wrong")
    for q, reason in checked["unknown"][:20]:
        print(f"  WRONG {q!r}: {reason}")
    print(f"  oracle checks: {checked['oracle']}")
    for name in sorted(metrics):
        print(f"  {name:36s} {metrics[name]:>16.6f} {declared[name]}")
    print(json.dumps({
        "correct": checked["correct"],
        "attempted": checked["attempted"],
        "failed": len(checked["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
