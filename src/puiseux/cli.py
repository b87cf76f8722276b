"""Command-line front end. Every subcommand prints one JSON document.

Exit codes: 0 on success (inconclusive verdicts included), 2 on parse
errors, 3 on precondition errors. All rationals are emitted as "p/q"
strings and factorizations as [[index, coefficient], ...] pairs.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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


# -- the option table ---------------------------------------------------------
# subcommand -> (handler, options); an option is (flag, type, required,
# default), its value kept under the flag without dashes, "-" read as "_".
# Oracle's action is the one positional: no dashes, its type a tuple of choices.

MONOID = (("--monoid", str, False, None), ("--spec-file", str, False, None))
X, Z, R = (("--" + flag, str, True, None) for flag in "xzr")
A, B, K = (("--" + flag, int, True, None) for flag in "abk")
MAX_INDEX, BOUND = ("--max-index", int, True, None), ("--bound", int, False, None)
COMMANDS = {
    "classify": (_cmd_classify, MONOID),
    "normal-form": (_cmd_normal_form, (*MONOID, Z)),
    "max-length": (_cmd_max_length, (*MONOID, Z, ("--bound", int, False, 64))),
    "enumerate": (_cmd_enumerate, (*MONOID, X, MAX_INDEX)),
    "member": (_cmd_member, (*MONOID, X, BOUND)),
    "lengths": (_cmd_lengths, (*MONOID, X, MAX_INDEX, BOUND)),
    "chain": (_cmd_chain, (*MONOID, K)),
    "counterexample": (_cmd_counterexample, (A, B, K)),
    "semiring": (_cmd_semiring, (R, ("--N", str, True, None))),
    "mult-classify": (_cmd_mult_classify, (R, ("--N", str, False, None))),
    "oracle": (_cmd_oracle, (("action", ("enumerate",), True, None), *MONOID, X, MAX_INDEX)),
}
HELP, TOP = ("--help", None, False, None), (("command", tuple(COMMANDS), True, None),)


class _Usage(Exception):
    """(subcommand or None for the top level, reason): a usage error, or a
    request for help when reason is None."""


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _usage(name) -> str:
    if name is None:
        return f"usage: puiseux [-h] {{{','.join(COMMANDS)}}} ..."
    words = []
    for flag, kind, required, _ in COMMANDS[name][1]:
        word = f"{{{','.join(kind)}}}" if type(kind) is tuple else f"{flag} {_dest(flag).upper()}"
        words.append(word if required else f"[{word}]")
    return " ".join(["usage: puiseux", name, "[-h]", *words])


def _flag(token: str, name):
    """None for a value; else (option, the text after its "=" or None), option
    None for an unknown flag. A long flag of subcommand name, or --help, may be
    cut to a unique prefix. A token that starts with "-" is a value only when
    it is "-", looks like a negative number or holds a space."""
    if token[:1] != "-" or token == "-":
        return None
    if token.startswith("-h"):  # -h takes no value: text after it is an error
        return HELP, token[2:] or None
    flag, eq, value = token.partition("=")
    if len(flag) > 2:  # "--" alone would be a prefix of every flag
        options = (*COMMANDS[name][1], HELP) if name else (HELP,)
        found = [o for o in options if o[0].startswith(flag)]  # no flag is a prefix of another
        if len(found) > 1:
            raise _Usage(name, f"ambiguous option: {flag} could match "
                               f"{', '.join(o[0] for o in found)}")
        if found:
            return found[0], value if eq else None
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (None, None)


def _parse(tokens, name=None) -> SimpleNamespace:
    """The subcommand and a value for each of its options, read from tokens
    against COMMANDS; `_Usage` on a usage error or -h. At the top level (name
    None) the first value names the subcommand, which reads the rest. A flag
    comes as "--flag value" or "--flag=value"; the last of a repeated flag
    wins. Every token is sorted into flag or value first, so an ambiguous
    prefix fails before all else; an unknown flag, a stray value or a missing
    option fails after the rest is read, so a later -h still answers."""
    tokens = list(tokens)
    options = COMMANDS[name][1] if name else TOP
    flags = [_flag(token, name) for token in tokens]
    values = {_dest(flag): default for flag, _, _, default in options}
    positional = [o for o in options if o[0][0] != "-"]
    extra, j = [], 0
    while j < len(tokens):
        option, value = flags[j] or (positional.pop() if positional else None, tokens[j])
        j += 1
        if option is HELP:
            raise _Usage(name, None if value is None else f"-h/--help takes no value: {value!r}")
        if option is None:
            extra.append(tokens[j - 1])
            continue
        flag, kind = option[:2]
        if value is None:  # the value is the next token
            if j == len(tokens) or flags[j] is not None:
                raise _Usage(name, f"argument {flag}: expected one argument")
            value, j = tokens[j], j + 1
        if type(kind) is tuple:
            if value not in kind:
                raise _Usage(name, f"argument {flag}: invalid choice: {value!r}")
        else:
            try:
                value = kind(value)
            except ValueError:
                raise _Usage(name, f"argument {flag}: invalid int value: {value!r}") from None
        values[_dest(flag)] = value
        if option is TOP[0]:
            args = _parse(tokens[j:], value)
            break
    missing = [flag for flag, _, required, _ in options if required and values[_dest(flag)] is None]
    if missing or extra:
        raise _Usage(name, f"the following arguments are required: {', '.join(missing)}"
                     if missing else f"unrecognized arguments: {' '.join(extra)}")
    return args if name is None else SimpleNamespace(command=name, **values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as stop:
        name, reason = stop.args
        if reason is None:
            print("\n".join(_usage(n) for n in ([name] if name else COMMANDS)))
            return 0
        print(f"{_usage(name)}\npuiseux: error: {reason}", file=sys.stderr)
        return 2
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}
    doc = {"command": args.command, "input": echo}
    try:
        M = _load_monoid(args) if "monoid" in vars(args) else None
        x = Ratio.parse(args.x) if "x" in vars(args) else None
        doc["result"] = COMMANDS[args.command][0](args, M, x)
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
