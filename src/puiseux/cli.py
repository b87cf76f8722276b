"""Command-line front end. Every subcommand prints one JSON document.

Exit codes: 0 on success (inconclusive verdicts included), 2 on parse
errors, 3 on precondition errors. All rationals are emitted as "p/q"
strings and factorizations as [[index, coefficient], ...] pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import accp, factorization as fz, membership, oracle, semiring
from .errors import DomainError, ParseError, PuiseuxError
from .monoid import ExpMonoid, monoid_from_json, parse_monoid
from .ratio import Ratio


def _load_monoid(args) -> ExpMonoid:
    if getattr(args, "spec_file", None):
        with open(args.spec_file) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # not JSON, or not even text
                raise ParseError(f"spec file is not JSON: {exc}") from exc
        return monoid_from_json(doc)
    if getattr(args, "monoid", None):
        return parse_monoid(args.monoid)
    raise ParseError("a monoid is required: pass --monoid or --spec-file")


def _parse_factorization(M: ExpMonoid, text: str) -> fz.Factorization:
    try:
        pairs = json.loads(text)
        return fz.Factorization.make(M, [(int(i), int(c)) for i, c in pairs])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed factorization {text!r}: {exc}") from exc


def _fact_json(z: Optional[fz.Factorization]):
    return None if z is None else z.as_pairs()


def _membership_json(res: membership.MembershipResult) -> dict:
    out = {"status": res.status}
    if res.witness is not None:
        out["witness"] = _fact_json(res.witness)
    if res.reason:
        out["reason"] = res.reason
    if res.bound is not None:
        out["bound"] = res.bound
    return out


# -- subcommand handlers -----------------------------------------------------

def _cmd_classify(args) -> dict:
    M = _load_monoid(args)
    c = accp.classify(M)
    return {"atomicity": c.atomicity.kind, "atoms": c.atomicity.atoms,
            "accp": c.accp, "bfp": c.accp, "ffp": c.accp,
            "evidence": c.evidence}


def _cmd_normal_form(args) -> dict:
    M = _load_monoid(args)
    z = _parse_factorization(M, args.z)
    nf = fz.min_normal_form(z)
    return {"normal_form": _fact_json(nf), "length": nf.length,
            "value": str(fz.evaluate(nf))}


def _cmd_max_length(args) -> dict:
    M = _load_monoid(args)
    z = _parse_factorization(M, args.z)
    outcome = fz.max_length_sweep(z, args.bound)
    if outcome.terminated:
        return {"status": "found", "factorization": _fact_json(outcome.found),
                "length": outcome.found.length}
    return {"status": "no-termination-within-bound",
            "levels_explored": outcome.levels_explored}


def _cmd_enumerate(args) -> dict:
    M = _load_monoid(args)
    x = Ratio.parse(args.x)
    zs = fz.enumerate_all(x, M, args.max_index)
    return {"count": len(zs),
            "factorizations": [_fact_json(z) for z in zs],
            "lengths": sorted({z.length for z in zs})}


def _cmd_member(args) -> dict:
    M = _load_monoid(args)
    x = Ratio.parse(args.x)
    return {"membership": _membership_json(membership.is_member(x, M, args.bound))}


def _cmd_lengths(args) -> dict:
    M = _load_monoid(args)
    x = Ratio.parse(args.x)
    res = membership.is_member(x, M, args.bound)
    if not res.is_member:
        raise DomainError("membership unresolved: no witness for the query")
    ls = fz.length_set(x, M, args.max_index, witness=res.witness)
    return {"lengths": list(ls.lengths), "min_exact": ls.min_exact,
            "max_exact": ls.max_exact}


def _cmd_chain(args) -> dict:
    M = _load_monoid(args)
    chain = accp.witness_chain(M, args.k)
    return {"start": chain.start,
            "elements": [str(x) for x in chain.elements],
            "differences": [_fact_json(y) for y in chain.diffs]}


def _cmd_counterexample(args) -> dict:
    spec, report = accp.construct_counterexample(args.a, args.b, args.k)
    M = ExpMonoid(Ratio(args.a, args.b), spec)
    out = dict(report)
    c = accp.classify(M)
    out["classification"] = {"atomicity": c.atomicity.kind, "accp": c.accp,
                             "evidence": c.evidence}
    return out


def _cmd_semiring(args) -> dict:
    r = Ratio.parse(args.r)
    N = semiring.parse_exponent_set(args.N)
    return semiring.is_semiring(r, N)


def _cmd_mult_classify(args) -> dict:
    r = Ratio.parse(args.r)
    N = semiring.parse_exponent_set(args.N) if args.N else None
    v = semiring.classify_mult(r, N)
    return {"accp": v.accp, "bfp": v.bfp, "ffp": v.ffp, "evidence": v.evidence}


def _cmd_oracle(args) -> dict:
    if args.action != "enumerate":
        raise ParseError(f"unknown oracle action {args.action!r}")
    M = _load_monoid(args)
    x = Ratio.parse(args.x)
    vectors = oracle.oracle_enumerate(x, M, args.max_index)
    return {"count": len(vectors),
            "vectors": [list(v) for v in vectors],
            "lengths": sorted({sum(v) for v in vectors})}


# -- wiring ------------------------------------------------------------------

def _add_monoid_args(p):
    p.add_argument("--monoid", help='inline spec, e.g. "r=2/3; delta=geom(1,2)"')
    p.add_argument("--spec-file", help="path to a JSON monoid document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="puiseux")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify"); _add_monoid_args(p); p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("normal-form"); _add_monoid_args(p)
    p.add_argument("--z", required=True, help="JSON [[index,coeff],...]")
    p.set_defaults(fn=_cmd_normal_form)

    p = sub.add_parser("max-length"); _add_monoid_args(p)
    p.add_argument("--z", required=True); p.add_argument("--bound", type=int, default=64)
    p.set_defaults(fn=_cmd_max_length)

    p = sub.add_parser("enumerate"); _add_monoid_args(p)
    p.add_argument("--x", required=True); p.add_argument("--max-index", type=int, required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("member"); _add_monoid_args(p)
    p.add_argument("--x", required=True); p.add_argument("--bound", type=int)
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("lengths"); _add_monoid_args(p)
    p.add_argument("--x", required=True); p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(fn=_cmd_lengths)

    p = sub.add_parser("chain"); _add_monoid_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("counterexample")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("semiring")
    p.add_argument("--r", required=True)
    p.add_argument("--N", required=True, help='e.g. "gens(2,3)" or "prefix(0,1);tail>=5"')
    p.set_defaults(fn=_cmd_semiring)

    p = sub.add_parser("mult-classify")
    p.add_argument("--r", required=True); p.add_argument("--N")
    p.set_defaults(fn=_cmd_mult_classify)

    p = sub.add_parser("oracle"); _add_monoid_args(p)
    p.add_argument("action", choices=["enumerate"])
    p.add_argument("--x", required=True); p.add_argument("--max-index", type=int, required=True)
    p.set_defaults(fn=_cmd_oracle)

    return parser


def _input_echo(args) -> dict:
    skip = {"fn", "command"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    doc = {"command": args.command, "input": _input_echo(args)}
    try:
        doc["result"] = args.fn(args)
        doc["status"] = "ok"
        code = 0
    except ParseError as exc:
        doc["status"] = "error"
        doc["message"] = str(exc)
        code = 2
    except (PuiseuxError, OSError) as exc:
        doc["status"] = "error"
        doc["message"] = str(exc)
        code = 3
    print(json.dumps(doc, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
