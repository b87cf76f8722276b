"""Command-line front end. Every subcommand prints one JSON document.

Exit codes: 0 on success (inconclusive verdicts included), 2 on parse
errors, 3 on precondition errors. All rationals are emitted as "p/q"
strings and factorizations as [[index, coefficient], ...] pairs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, ParseError, PuiseuxError
from .ratio import Ratio

# each handler imports its layer when it runs: a process loads one subcommand's modules


def _load_monoid(args):
    from .monoid import monoid_from_json, parse_monoid
    if args.spec_file:
        with open(args.spec_file) as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, not text, too deep
                raise ParseError(f"spec file is not JSON: {exc}") from exc
        return monoid_from_json(doc)
    if args.monoid:
        return parse_monoid(args.monoid)
    raise ParseError("a monoid is required: pass --monoid or --spec-file")


def _parse_factorization(M, text: str):
    from .factorization import Factorization
    try:
        return Factorization.make(M, json.loads(text))
    except (ValueError, TypeError, RecursionError) as exc:
        raise ParseError(f"malformed factorization {text!r}: {exc}") from exc


def _membership_json(res) -> dict:
    out = {"status": res.status}
    if res.witness is not None:
        out["witness"] = res.witness.as_pairs()
    if res.reason:
        out["reason"] = res.reason
    if res.bound is not None:
        out["bound"] = res.bound
    return out


# -- subcommand handlers -----------------------------------------------------
# Each takes (args, M, x): the monoid of --monoid/--spec-file and the rational
# --x, both loaded by main, or None where the subcommand has no such option.

def _cmd_classify(args, M, x) -> dict:
    from . import accp
    c = accp.classify(M)
    return {"atomicity": c.atomicity.kind, "atoms": c.atomicity.atoms,
            "accp": c.accp, "bfp": c.accp, "ffp": c.accp,
            "evidence": c.evidence}


def _cmd_normal_form(args, M, x) -> dict:
    from . import factorization as fz
    z = _parse_factorization(M, args.z)
    nf = fz.min_normal_form(z)
    return {"normal_form": nf.as_pairs(), "length": nf.length,
            "value": str(fz.evaluate(nf))}


def _cmd_max_length(args, M, x) -> dict:
    from . import factorization as fz
    z = _parse_factorization(M, args.z)
    outcome = fz.max_length_sweep(z, args.bound)
    if outcome.terminated:
        return {"status": "found", "factorization": outcome.found.as_pairs(),
                "length": outcome.found.length}
    return {"status": "no-termination-within-bound",
            "levels_explored": outcome.levels_explored}


def _cmd_enumerate(args, M, x) -> dict:
    from . import factorization as fz
    zs = fz.enumerate_all(x, M, args.max_index)
    return {"count": len(zs),
            "factorizations": [z.as_pairs() for z in zs],
            "lengths": sorted({z.length for z in zs})}


def _cmd_member(args, M, x) -> dict:
    from . import membership
    return {"membership": _membership_json(membership.is_member(x, M, args.bound))}


def _cmd_lengths(args, M, x) -> dict:
    from . import factorization as fz, membership
    res = membership.is_member(x, M, args.bound)
    if res.status == "not-member":
        raise DomainError(f"not a member: {res.reason}")
    if not res.is_member:
        raise DomainError("membership unresolved: no witness for the query")
    ls = fz.length_set(x, M, args.max_index, witness=res.witness)
    return {"lengths": list(ls.lengths), "min_exact": ls.min_exact,
            "max_exact": ls.max_exact}


def _cmd_chain(args, M, x) -> dict:
    from . import accp
    chain = accp.witness_chain(M, args.k)
    return {"start": chain.start,
            "elements": [str(e) for e in chain.elements],
            "differences": [y.as_pairs() for y in chain.diffs]}


def _cmd_counterexample(args, M, x) -> dict:
    from . import accp
    from .monoid import ExpMonoid
    spec, report = accp.construct_counterexample(args.a, args.b, args.k)
    M = ExpMonoid(Ratio(args.a, args.b), spec)
    out = dict(report)
    c = accp.classify(M)
    out["classification"] = {"atomicity": c.atomicity.kind, "accp": c.accp,
                             "evidence": c.evidence}
    return out


def _cmd_semiring(args, M, x) -> dict:
    from . import semiring
    r = Ratio.parse(args.r)
    N = semiring.parse_exponent_set(args.N)
    return semiring.is_semiring(r, N)


def _cmd_mult_classify(args, M, x) -> dict:
    from . import semiring
    r = Ratio.parse(args.r)
    if args.N:  # the verdict depends on r alone; a malformed set is still an error
        semiring.parse_exponent_set(args.N)
    v = semiring.classify_mult(r)
    return {"accp": v.accp, "bfp": v.bfp, "ffp": v.ffp, "evidence": v.evidence}


def _cmd_oracle(args, M, x) -> dict:
    from . import oracle
    vectors = oracle.oracle_enumerate(x, M, args.max_index)
    return {"count": len(vectors),
            "vectors": [list(v) for v in vectors],
            "lengths": sorted({sum(v) for v in vectors})}


# -- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="puiseux")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, *options, monoid=True):
        """Subcommand name, run by fn, with (flag, add_argument keywords) options."""
        p = sub.add_parser(name)
        if monoid:
            p.add_argument("--monoid", help='inline spec, e.g. "r=2/3; delta=geom(1,2)"')
            p.add_argument("--spec-file", help="path to a JSON monoid document")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)

    required = {"required": True}
    required_int = {"type": int, "required": True}
    x = ("--x", required)
    max_index = ("--max-index", required_int)
    bound = ("--bound", {"type": int})
    z = ("--z", dict(required, help="JSON [[index,coeff],...]"))
    command("classify", _cmd_classify)
    command("normal-form", _cmd_normal_form, z)
    command("max-length", _cmd_max_length, z, ("--bound", {"type": int, "default": 64}))
    command("enumerate", _cmd_enumerate, x, max_index)
    command("member", _cmd_member, x, bound)
    command("lengths", _cmd_lengths, x, max_index, bound)
    command("chain", _cmd_chain, ("--k", required_int))
    command("counterexample", _cmd_counterexample, ("--a", required_int), ("--b", required_int),
            ("--k", required_int), monoid=False)
    command("semiring", _cmd_semiring, ("--r", required),
            ("--N", dict(required, help='e.g. "gens(2,3)" or "prefix(0,1);tail>=5"')), monoid=False)
    command("mult-classify", _cmd_mult_classify, ("--r", required), ("--N", {}), monoid=False)
    command("oracle", _cmd_oracle, ("action", {"choices": ["enumerate"]}), x, max_index)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("fn", "command") and v is not None}
    doc = {"command": args.command, "input": echo}
    try:
        M = _load_monoid(args) if "monoid" in vars(args) else None
        x = Ratio.parse(args.x) if "x" in vars(args) else None
        doc["result"] = args.fn(args, M, x)
        doc["status"] = "ok"
        code = 0
    except (PuiseuxError, OSError) as exc:
        doc.update(status="error", message=str(exc))
        code = 2 if isinstance(exc, ParseError) else 3
    try:
        text = json.dumps(doc, sort_keys=True)
    except ValueError:  # an integer of the result is past CPython's int -> str cap
        del doc["result"]
        doc.update(status="error", message="result too large to print: past the int -> str "
                                           f"limit of {sys.get_int_max_str_digits()} digits")
        text, code = json.dumps(doc, sort_keys=True), 3
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
