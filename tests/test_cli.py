import argparse
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import puiseux
from puiseux.accp import classify, construct_counterexample
from puiseux.cli import (COMMANDS, _Usage, _cmd_chain, _cmd_classify, _cmd_counterexample,
                         _cmd_enumerate, _cmd_lengths, _cmd_max_length, _cmd_member,
                         _cmd_mult_classify, _cmd_normal_form, _cmd_oracle, _cmd_semiring,
                         _parse, _parse_factorization, main)
from puiseux.errors import DomainError, ParseError
from puiseux.factorization import Factorization, evaluate
from puiseux.monoid import ExpMonoid, format_monoid, parse_monoid
from puiseux.ratio import Ratio


def run(capsys, *argv):
    code = main(list(argv))
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def test_classify_bounded_delta(capsys):
    code, doc = run(capsys, "classify", "--monoid", "r=2/3; delta=const(1)")
    assert code == 0
    assert doc["status"] == "ok"
    res = doc["result"]
    assert res["accp"] == res["bfp"] == res["ffp"] == "no"
    assert res["evidence"]["rule"] == "bounded-delta"


def test_classify_unknown_exits_zero(capsys):
    code, doc = run(capsys, "mult-classify", "--r", "2/15")
    assert code == 0
    assert doc["result"]["accp"] == "unknown"


@pytest.mark.parametrize("r,x,reason", [
    ("2/3", "1/5", "a prime of d(x)=5 does not divide d(r)=3"),
    ("3/2", "1/3", "a prime of d(x)=3 does not divide d(r)=2"),
])
def test_lengths_names_a_non_member(capsys, r, x, reason):
    monoid = f"r={r}; delta=const(1)"
    code, doc = run(capsys, "member", "--monoid", monoid, "--x", x)
    assert (code, doc["result"]["membership"]) == (0, {"status": "not-member", "reason": reason})
    code, doc = run(capsys, "lengths", "--monoid", monoid, "--x", x, "--max-index", "3")
    assert (code, doc["status"], doc["message"]) == (3, "error", f"not a member: {reason}")


def test_lengths_keeps_the_unresolved_verdict(capsys):
    code, doc = run(capsys, "lengths", "--monoid", "r=2/3; delta=const(1)", "--x", "1/9",
                    "--max-index", "3", "--bound", "0")
    assert (code, doc["message"]) == (3, "membership unresolved: no witness for the query")


@pytest.mark.parametrize("x", ["1/9", "1/5"])  # a bounded search, a foreign prime
def test_a_negative_bound_is_a_precondition_error(capsys, x):
    monoid = "r=2/3; delta=const(1)"
    for argv in (["member"], ["lengths", "--max-index", "3"]):
        code, doc = run(capsys, *argv, "--monoid", monoid, "--x", x, "--bound", "-1")
        assert (code, doc["status"], doc["message"]) == (3, "error", "support bound must be >= 0")


def test_a_repeated_field_is_a_parse_error(capsys):
    code, doc = run(capsys, "classify", "--monoid", "r=2/3; delta=const(1); r=5/7")
    assert (code, doc["status"]) == (2, "error")


def test_counterexample(capsys):
    code, doc = run(capsys, "counterexample", "--a", "2", "--b", "3", "--k", "6")
    assert code == 0
    assert doc["result"]["delta"] == [2, 3, 4, 6, 9, 14]
    assert doc["result"]["verified"] is True
    assert doc["result"]["classification"]["accp"] == "no"


def test_counterexample_with_huge_gap_powers(capsys):
    # 5^delta_10 has more decimal digits than int -> str allows
    code, doc = run(capsys, "counterexample", "--a", "2", "--b", "5", "--k", "10")
    assert code == 0
    assert doc["result"]["classification"]["accp"] == "no"


def test_counterexample_monoid_survives_the_grammar(capsys):
    spec, _ = construct_counterexample(2, 3, 6)
    monoid = ExpMonoid(Ratio(2, 3), spec)
    code, doc = run(capsys, "classify", "--monoid", format_monoid(monoid))
    assert code == 0
    c = classify(monoid)
    assert (doc["result"]["accp"], doc["result"]["evidence"]) == (c.accp, c.evidence)


def test_member_denominator_obstruction(capsys):
    code, doc = run(capsys, "member", "--monoid", "r=2/3; delta=const(1)",
                    "--x", "1/5")
    assert code == 0
    assert doc["result"]["membership"]["status"] == "not-member"


def test_enumerate_round_trips(capsys):
    code, doc = run(capsys, "enumerate", "--monoid", "r=2/3; delta=const(1)",
                    "--x", "2", "--max-index", "3")
    assert code == 0
    assert doc["result"]["count"] == 4
    assert doc["result"]["lengths"] == [2, 3, 4, 5]
    M = parse_monoid("r=2/3; delta=const(1)")
    for pairs in doc["result"]["factorizations"]:
        z = Factorization.make(M, [(i, c) for i, c in pairs])
        assert evaluate(z) == Ratio(2)


def test_normal_form(capsys):
    code, doc = run(capsys, "normal-form", "--monoid", "r=2/3; delta=const(1)",
                    "--z", "[[2,9]]")
    assert code == 0
    assert doc["result"]["normal_form"] == [[0, 4]]
    assert doc["result"]["length"] == 4
    assert doc["result"]["value"] == "4/1"


def test_max_length_found_and_bounded(capsys):
    code, doc = run(capsys, "max-length", "--monoid", "r=2/3; delta=geom(1,2)",
                    "--z", "[[0,2]]")
    assert code == 0
    assert doc["result"] == {"status": "found", "factorization": [[1, 3]],
                             "length": 3}
    code, doc = run(capsys, "max-length", "--monoid", "r=2/3; delta=const(1)",
                    "--z", "[[0,2]]")
    assert code == 0
    assert doc["result"]["status"] == "no-termination-within-bound"
    assert doc["result"]["levels_explored"] == 64


def test_lengths(capsys):
    code, doc = run(capsys, "lengths", "--monoid", "r=2/3; delta=geom(1,2)",
                    "--x", "2", "--max-index", "2")
    assert code == 0
    assert doc["result"] == {"lengths": [2, 3], "min_exact": True,
                             "max_exact": True}


def test_chain(capsys):
    code, doc = run(capsys, "chain", "--monoid", "r=2/3; delta=const(1)",
                    "--k", "2")
    assert code == 0
    assert len(doc["result"]["elements"]) == 3
    assert len(doc["result"]["differences"]) == 2


def test_semiring_and_mult(capsys):
    code, doc = run(capsys, "semiring", "--r", "2/3", "--N", "gens(2,3)")
    assert code == 0
    assert doc["result"]["semiring"] is True
    code, doc = run(capsys, "mult-classify", "--r", "2/9")
    assert code == 0
    assert doc["result"]["accp"] == "yes"
    assert doc["result"]["bfp"] == "unknown"


def test_oracle_subcommand(capsys):
    code, doc = run(capsys, "oracle", "enumerate", "--monoid",
                    "r=2/3; delta=const(1)", "--x", "2", "--max-index", "3")
    assert code == 0
    assert doc["result"]["count"] == 4
    assert [0, 3, 0, 0] in doc["result"]["vectors"]


def test_spec_file_equivalent_to_inline(tmp_path, capsys):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(
        {"r": "2/3", "delta": {"prefix": [], "tail": {"geom": [1, 2]}}}))
    code, doc_file = run(capsys, "classify", "--spec-file", str(path))
    assert code == 0
    code, doc_inline = run(capsys, "classify", "--monoid",
                           "r=2/3; delta=geom(1,2)")
    assert doc_file["result"] == doc_inline["result"]


@pytest.mark.parametrize("z", ["[[1,2.9]]", "[[0.99,3]]", "[[1,true]]", '[["1",2]]',
                               "[[1,-2],[1,2.5]]"])
def test_factorization_needs_integer_pairs(capsys, z):
    # JSON floats, booleans and strings are not truncated or coerced
    code, doc = run(capsys, "normal-form", "--monoid", "r=2/3; delta=const(1)", "--z", z)
    assert code == 2
    assert doc["status"] == "error"
    assert "malformed factorization" in doc["message"]


def test_zero_base_in_the_semiring_layer_exit_3(capsys):
    for argv in (["semiring", "--r", "0", "--N", "gens(2,3)"], ["mult-classify", "--r", "0"]):
        code, doc = run(capsys, *argv)
        assert code == 3
        assert doc["message"] == "base r must be positive"


def test_parse_error_exit_2(capsys):
    code, doc = run(capsys, "classify", "--monoid", "r=2/x; delta=const(1)")
    assert code == 2
    assert doc["status"] == "error"
    code, doc = run(capsys, "classify", "--monoid", "r=2/3; delta=warp(3)")
    assert code == 2
    code, doc = run(capsys, "classify", "--monoid", "r=2/3; delta=prefix(1,2")
    assert code == 2


def test_malformed_spec_file_exit_2(tmp_path, capsys):
    path = tmp_path / "monoid.json"
    for content in (json.dumps({"r": "2/3", "delta": [1]}).encode(),
                    json.dumps({"r": "2/3", "delta": {"tail": {"geom": [1]}}}).encode(),
                    b"{", b"", b"\xff\xfe", b"[" * 100000):  # the last four are not JSON
        path.write_bytes(content)
        code, out = run(capsys, "classify", "--spec-file", str(path))
        assert code == 2
        assert out["status"] == "error"


def test_precondition_error_exit_3(capsys):
    # ACCP monoid: no constructive descending chain exists
    code, doc = run(capsys, "chain", "--monoid", "r=2/3; delta=geom(1,2)",
                    "--k", "2")
    assert code == 3
    assert doc["status"] == "error"
    # unresolved membership blocks the length-set query
    code, doc = run(capsys, "lengths", "--monoid", "r=2/3; delta=const(1)",
                    "--x", "1/5", "--max-index", "3")
    assert code == 3


def test_missing_spec_file_exit_3(capsys):
    code, doc = run(capsys, "classify", "--spec-file", "/nonexistent/m.json")
    assert code == 3


def test_byte_identical_repeat_runs(capsys):
    main(["classify", "--monoid", "r=2/3; delta=const(1)"])
    first = capsys.readouterr().out
    main(["classify", "--monoid", "r=2/3; delta=const(1)"])
    assert capsys.readouterr().out == first


def test_deep_support_bound_needs_no_recursion(capsys):
    # a thousand levels: more than CPython's default recursion limit
    code, doc = run(capsys, "enumerate", "--monoid", "r=2/3; delta=const(1)",
                    "--x", "2", "--max-index", "1000")
    assert code == 0
    assert doc["result"]["count"] == 1001
    code, doc = run(capsys, "member", "--monoid", "r=2/3; delta=const(1)",
                    "--x", "2", "--bound", "1500")
    assert code == 0
    assert doc["result"]["membership"] == {"status": "member", "witness": [[0, 2]]}


def test_value_past_the_int_str_limit_exit_3(capsys):
    # the value is (2/3)^16383: 3^16383 has about 7800 decimal digits
    code, doc = run(capsys, "normal-form", "--monoid", "r=2/3; delta=geom(1,2)",
                    "--z", "[[14,1]]")
    assert code == 3
    assert doc["status"] == "error"
    assert f"limit of {sys.get_int_max_str_digits()} digits" in doc["message"]


def test_result_past_the_int_str_limit_exit_3(capsys):
    # the sweep carries 9...9 (4200 digits) up to coefficients of 16 384 to
    # 52 288 bits, which json.dumps cannot print as decimal digits
    code, doc = run(capsys, "max-length", "--monoid", "r=2/3; delta=geom(1,2)",
                    "--z", f"[[0,{'9' * 4200}]]")
    assert code == 3
    assert doc["status"] == "error"
    assert "result" not in doc
    assert f"limit of {sys.get_int_max_str_digits()} digits" in doc["message"]


JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                    | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=12)


@settings(max_examples=300)
@given(st.one_of(JSON.map(json.dumps),
                 st.lists(st.lists(st.integers(-3, 10 ** 6), max_size=3)).map(json.dumps),
                 st.text(alphabet="[]{},-0123456789.e\"ab ", max_size=30)))
@example("[" * 100000)  # deeper than the JSON decoder recurses
def test_factorization_parses_or_raises(text):
    # the parser only: a normal form of a huge index costs unbounded time
    M = parse_monoid("r=2/3; delta=const(1)")
    try:
        z = _parse_factorization(M, text)
    except (ParseError, DomainError):
        return
    assert isinstance(z, Factorization)


# -- the option parser against argparse --------------------------------------
# The parser that the CLI used before its option table, kept verbatim as the
# reference: over every argv of the grammar below, both reject it, both print
# help, or both accept it with equal values.

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


REFERENCE = build_parser()
SUBPARSERS = next(action.choices for action in REFERENCE._actions
                  if isinstance(action, argparse._SubParsersAction))
LONG_FLAGS = sorted({flag for parser in SUBPARSERS.values() for action in parser._actions
                     for flag in action.option_strings if flag.startswith("--")})
# every prefix of every long flag, exact, unique or ambiguous
FLAG_SPELLINGS = sorted({flag[:n] for flag in LONG_FLAGS for n in range(3, len(flag) + 1)})


def _spellings(flag):
    return [spelling for spelling in FLAG_SPELLINGS if flag.startswith(spelling)]


# a value that is an int, a negative number, -x-like, holds a space or is empty
VALUES = ["2", "0", "12", "-1", "-.5", "-2.5", "-1.", "1.5", "two", "-x", "-1x", "-", "",
          "a b", "-a b", "--mon x", "enumerate", "frobnicate", "2/3", "r=2/3; delta=const(1)"]
# unknown flags; -h with text after it, --help with a value ("-hh" and "--" are
# left out: argparse reads "-hh" as -h twice and "--" as the end of the flags)
NOISE = ["--bogus", "--n", "--monoidx", "-x", "-q", "---x", "-x=1", "--bogus=1", "-1=2",
         "-h", "--help", "--he", "-hx", "-h=1", "-h=", "-h x", "--help=1", "--he=", "extra"]


@st.composite
def argvs(draw):
    """An argv near a valid one: each argument of a subcommand in any order
    and spelling. Half the draws are noisy: a flag may miss its value or
    repeat, a value may be odd, and stray tokens may stand anywhere."""
    noisy = draw(st.booleans())
    odd = st.sampled_from(VALUES) if noisy else st.nothing()
    head = draw(st.lists(st.sampled_from(NOISE), max_size=noisy))
    name = draw(st.sampled_from([*SUBPARSERS, "bogus", "-1"] if noisy else [*SUBPARSERS]))
    parts = []
    for action in getattr(SUBPARSERS.get(name), "_actions", []):
        if not action.option_strings:  # oracle's action
            parts.append([draw(st.sampled_from(["enumerate", "frobnicate"][:1 + noisy]))])
            continue
        given = draw(st.integers(0, 9) if action.required else st.booleans())
        if action.dest == "help" or not given:
            continue
        flag = draw(st.sampled_from(_spellings(action.option_strings[0])))
        typical = ["2", "3", "-1"] if action.type is int else ["2/3", "a b", "-1"]
        value = draw(st.sampled_from(typical) | odd)
        forms = [[flag, value], [f"{flag}={value}"]] + [[flag]] * noisy
        parts += [draw(st.sampled_from(forms)) for _ in range(draw(st.integers(1, 1 + noisy)))]
    stray = st.one_of(st.sampled_from(NOISE), st.sampled_from(FLAG_SPELLINGS), odd,
                      st.tuples(st.sampled_from(FLAG_SPELLINGS), odd).map("=".join))
    parts += draw(st.lists(stray.map(lambda token: [token]), max_size=3 * noisy))
    return [*head, name, *(token for part in draw(st.permutations(parts)) for token in part)]


def _reference(argv):
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            namespace = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        return "help" if exc.code == 0 else "reject"
    return {key: value for key, value in vars(namespace).items() if key != "fn"}


def _ours(argv):
    try:
        return vars(_parse(argv))
    except _Usage as stop:
        return "help" if stop.args[1] is None else "reject"


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example(["oracle", "--x", "2", "enumerate", "--max-index", "3", "--monoid", "m"])
@example(["member", "--monoid", "m", "--x", "1", "--bound", "-1"])
@example(["classify", "--monoid", "-a b"])  # a value, for it holds a space
@example(["lengths", "--m", "m", "--x", "1", "--max-index", "1"])  # ambiguous
@example(["lengths", "--max", "1", "--mo=m", "--x=1", "--x", "2"])  # the last --x wins
@example(["lengths", "-h", "--m", "1"])  # an ambiguous prefix fails before -h
@example(["--bogus", "classify", "-h"])  # an unknown flag fails after -h
@example([])
def test_the_option_table_reads_argv_as_argparse_did(argv):
    assert _ours(argv) == _reference(argv)


def test_no_flag_of_a_subcommand_is_a_prefix_of_another():
    # so that a flag given in full is never ambiguous
    for _, options in COMMANDS.values():
        flags = [option[0] for option in options] + ["--help"]
        assert [(f, g) for f in flags for g in flags if f != g and g.startswith(f)] == []


# -- every subcommand from fuzzed argv, in process ---------------------------
# values small enough that each run is bounded

CLI_VALUES = {  # flag -> (good values, malformed or out-of-range values)
    "--monoid": (["r=2/3; delta=const(1)", "r=2/3; delta=geom(1,2)", "r=2/3; delta=poly(1,1)",
                  "r=3/2; delta=poly(1,1)"], ["r=2/x; delta=const(1)", "r=2/3; delta=warp(3)", ""]),
    "--spec-file": ([], ["/nonexistent/m.json"]),
    "--x": (["2", "7/3", "1/5", "4/9", "1"], ["0", "1/0", "2/x", "-1", "1/-3"]),
    "--z": (["[[2,9]]", "[[0,2]]", "[[0,5],[1,2]]"],
            ["[[2,9]", "[[1,2.9]]", '[["1",2]]', "[[1,-2]]", "{}", "[[0,0]]"]),
    "--r": (["2/3", "2/9", "2/15", "3/2"], ["0", "1/0", "x", "-2/3"]),
    "--N": (["gens(2,3)", "prefix(0,1);tail>=5"], ["gens(a)", "prefix(0", "gens()"]),
    "--max-index": (range(5), [-1]), "--bound": (range(65), [-1]), "--a": (range(2, 13), [-1, 1]),
    "--b": (range(2, 13), [-1, 0]), "--k": (range(2, 31), [-1, 0]),
}


@st.composite
def cli_argvs(draw):
    """A subcommand with each option most often given, in any order and
    spelling, its value most often good, and now and then one stray token."""
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    parts = [["enumerate"]] if name == "oracle" else []
    for action in SUBPARSERS[name]._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        given = draw(st.sampled_from([True] * (9 if action.required else 1) + [False]))
        if flag in CLI_VALUES and given:
            good, bad = CLI_VALUES[flag]
            mostly_good = [st.sampled_from(good)] * 3 * bool(good) + [st.sampled_from(bad)]
            value = str(draw(st.one_of(mostly_good)))
            spelling = draw(st.sampled_from(_spellings(flag)))
            parts.append(draw(st.sampled_from([[spelling, value], [f"{spelling}={value}"]])))
    if draw(st.sampled_from([True, False, False, False])):
        parts.append([draw(st.sampled_from(NOISE + ["two", "-7"]))])
    return [name, *(token for part in draw(st.permutations(parts)) for token in part)]


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
@example(["counterexample", "--a", "2", "--b", "12", "--k", "10"])
@example(["member", "--monoid", "r=2/3; delta=geom(1,2)", "--x", "4/9", "--bound", "64"])
def test_every_fuzzed_argv_exits_0_2_or_3_with_one_document(argv):
    stop = None
    try:
        _parse(argv)
    except _Usage as usage:
        stop = usage
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    if stop is not None:  # help on stdout, or a usage error on stderr alone
        assert code == (0 if stop.args[1] is None else 2)
        assert out.getvalue().startswith("usage: puiseux ") if stop.args[1] is None else \
            out.getvalue() == ""
        return
    doc = json.loads(out.getvalue())
    assert (doc["status"], code) in {("ok", 0), ("error", 2), ("error", 3)}


def _cap_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_capped(*args):
    """Run python with args on the source tree, in 10 s and 2 GiB at most."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=10, env=dict(os.environ, PYTHONPATH=path),
                          preexec_fn=_cap_memory)


# -- lazy loading: a process loads the modules of its subcommand alone -------

def _loaded(code):
    """The puiseux submodules loaded after code runs in a fresh interpreter."""
    proc = _run_capped("-c", code + "\nimport json, sys; print(json.dumps(sorted("
                       "m[8:] for m in sys.modules if m.startswith('puiseux.'))))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


FRONT_END = {"cli", "errors", "ratio"}
SUBCOMMAND_MODULES = {
    "classify": {"accp", "monoid"},
    "counterexample": {"accp", "monoid"},
    "enumerate": {"factorization", "monoid"},
    "normal-form": {"factorization", "monoid"},
    "max-length": {"factorization", "monoid"},
    "member": {"membership", "factorization", "monoid"},
    "lengths": {"membership", "factorization", "monoid"},
    "chain": {"accp", "factorization", "monoid"},
    "oracle": {"oracle", "monoid"},
    "semiring": {"semiring"},
    "mult-classify": {"semiring"},
}


def _readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return [shlex.split(line[len("$ puiseux "):])
            for line in readme.read_text().splitlines() if line.startswith("$ puiseux ")]


# argparse, with gettext and locale behind its messages, and dataclasses and
# inspect would each cost start-up time in every CLI process
COSTLY = ["argparse", "dataclasses", "gettext", "inspect", "locale"]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_a_cli_child_loads_no_costly_module(argv):
    # a module that the interpreter loaded before the import does not count
    code = ("import io, sys; before = set(sys.modules); from puiseux.cli import main\n"
            f"sys.stdout = io.StringIO(); main({argv!r}); sys.stdout = sys.__stdout__\n"
            f"print(sorted(set({COSTLY!r}) & (set(sys.modules) - before)))")
    proc = _run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_package_loads_no_module():
    assert _loaded("import puiseux") == set()
    assert _loaded("import puiseux.cli") == FRONT_END


# the README example passes no --N; with it, the child also parses the set
WITH_N = pytest.param(["mult-classify", "--r", "2/9", "--N", "gens(2,3)"], id="mult-classify-N")


@pytest.mark.parametrize("argv", [*_readme_examples(), WITH_N], ids=lambda argv: argv[0])
def test_a_subcommand_loads_its_own_layer_alone(argv):
    code = ("import contextlib, io\nfrom puiseux.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    assert _loaded(code) == FRONT_END | SUBCOMMAND_MODULES[argv[0]]


# -- the package namespace ---------------------------------------------------

LAYERS = "accp errors factorization membership monoid oracle ratio semiring".split()
EXPORTS = """
    AtomicityVerdict ChainError Classification Constant DeltaSpec DomainError ExpMonoid
    Factorization Geometric IndexRangeError LengthSet MaxLengthOutcome MembershipResult
    MultVerdict NumericalMonoidSpec ParseError Periodic Polynomial PrefixCofinite PuiseuxError
    Ratio Recurrence StepError WitnessChain apery_set atom check_necessary classify
    classify_atomicity classify_mult construct_counterexample divides enumerate_all evaluate
    format_monoid frobenius frobenius_bruteforce is_member is_semiring length_set
    max_length_sweep max_power_dividing min_normal_form mult_divides mult_divisor_bound
    nm_membership oracle_enumerate oracle_lengths parse_exponent_set parse_monoid
    rewrite_down_step s_index series_partial_sums truncate unique_factorization_check
    witness_chain""".split()


def test_star_import_binds_the_exports_and_the_layers():
    scope = {}
    exec("from puiseux import *", scope)
    assert len(EXPORTS) == 56
    assert set(scope) - {"__builtins__"} == set(EXPORTS) | set(LAYERS)
    assert sorted(puiseux.__all__) == sorted(EXPORTS + LAYERS)


def test_each_export_is_the_object_of_its_home_module():
    for name in EXPORTS:
        value = getattr(puiseux, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    for name in LAYERS:
        assert getattr(puiseux, name) is importlib.import_module(f"puiseux.{name}")


def test_the_namespace_lists_its_lazy_names_and_refuses_others():
    assert {"__all__", *puiseux.__all__} <= set(dir(puiseux))
    assert puiseux.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        puiseux.no_such_name


def test_a_layer_resolves_after_a_bare_import():
    proc = _run_capped("-c", "import puiseux; print(puiseux.monoid.__name__, "
                             "puiseux.parse_monoid is puiseux.monoid.parse_monoid)")
    assert (proc.returncode, proc.stdout) == (0, "puiseux.monoid True\n"), proc.stderr


@pytest.mark.parametrize("argv, result", [
    (("max-length", "--monoid", "r=2/5; delta=geom(1,2)", "--z", "[[0,100]]"),
     {"levels_explored": 64, "status": "no-termination-within-bound"}),
    (("max-length", "--monoid", "r=2/3; delta=poly(1,1)", "--z", "[[0,100]]"),
     {"levels_explored": 64, "status": "no-termination-within-bound"}),
    (("max-length", "--monoid", "r=3/4; delta=periodic(1,2)", "--z", "[[0,100]]"),
     {"levels_explored": 64, "status": "no-termination-within-bound"}),
    (("max-length", "--monoid", "r=2/3; delta=recurrence(2,3,2)", "--z", "[[0,100]]"),
     {"levels_explored": 64, "status": "no-termination-within-bound"}),
    (("lengths", "--monoid", "r=2/3; delta=recurrence(2,3,2)", "--x", "100",
      "--max-index", "2"), {"min_exact": True, "max_exact": False}),
    (("max-length", "--monoid", "r=4/9; delta=recurrence(2,3,2)", "--z", "[[0,100]]"),
     {"levels_explored": 64, "status": "no-termination-within-bound"}),
    # log_2 3 < log_2 5, proven by 64-bit log2 brackets
    (("max-length", "--monoid", "r=2/5; delta=recurrence(2,3,2)", "--z", "[[0,100]]"),
     {"levels_explored": 64, "status": "no-termination-within-bound"}),
], ids=["geom-2/5", "poly-2/3", "periodic-3/4", "recurrence-max-length", "recurrence-lengths",
        "equal-logs-max-length", "smaller-log-max-length"])
def test_endless_carries_answer_at_once(argv, result):
    # carries that can never die: the sweep used to form powers of gigabits
    # before it reached level 64
    proc = _run_capped("-m", "puiseux.cli", *argv)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "ok"
    assert result.items() <= doc["result"].items()


@pytest.mark.parametrize("spec, instance", [
    ("r=60/61; delta=poly(1,0,1)", "d^delta_496=61^246017 > n^delta_497=60^247010"),
    ("r=90/91; delta=poly(1,0,1)", "d^delta_815=91^664226 > n^delta_816=90^665857"),
], ids=["60/61", "90/91"])
def test_a_late_polynomial_shortfall_is_found_in_time(spec, instance):
    # the first shortfall lies hundreds of indices out, where each power has
    # a million bits; log2 brackets compare them without forming them
    proc = _run_capped("-m", "puiseux.cli", "classify", "--monoid", spec)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["accp"], result["evidence"]) == ("no", {"instance": instance,
                                                           "rule": "polynomial-gaps"})


@pytest.mark.parametrize("d, step", [(6189245291, 9809721694),
                                     (4242721909926539673, 6724555128221608268)])
def test_a_near_tie_gets_a_finer_bracket(d, step):
    # d log_2 3 lies 1.4e-10 and 1.8e-19 above the integer step: brackets at
    # 32 bits past the exponents' size overlap there, the step's estimate is
    # one short, and 3^d would not fit in memory
    code = f"from puiseux.monoid import Recurrence; print(Recurrence(2, 3, 1).step({d}))"
    proc = _run_capped("-c", code)
    assert (proc.returncode, proc.stdout) == (0, f"{step}\n"), proc.stderr


def test_a_long_counterexample_checks_its_gaps_without_forming_powers():
    # delta_29 = 23205462599837629: each check used to form 12^delta_j and
    # 2^delta_{j+1} in full; log2 brackets decide them
    argv = ("counterexample", "--a", "2", "--b", "12", "--k", "30")
    proc = _run_capped("-m", "puiseux.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["verified"], len(result["checks"])) == (True, 29)
    assert result["checks"][-1] == {
        "step": 28, "descending": "12^6473000092795834 > 2^23205462599837629",
        "descending_ok": True, "ratio_close": "2^23205462599837630 >= 12^6473000092795834",
        "ratio_close_ok": True}


@pytest.mark.parametrize("spec, bound", [("r=2/3; delta=poly(1,1)", 100000),
                                         ("r=3/4; delta=periodic(1,2)", 10000000)],
                         ids=["difference-chain", "block-compare"])
def test_an_endless_carry_answers_at_once_at_any_bound(spec, bound):
    # a sweep to the bound would form n^{delta_i} at every level up to it
    argv = ("max-length", "--monoid", spec, "--z", "[[0,100]]", "--bound", str(bound))
    proc = _run_capped("-m", "puiseux.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == {"levels_explored": bound,
                                                 "status": "no-termination-within-bound"}


@pytest.mark.parametrize("x, result", [
    ("1", {"status": "member", "witness": [[0, 1]]}),
    ("5/9", {"bound": 30, "status": "unresolved"}),
], ids=["member", "unresolved"])
def test_a_large_support_bound_searches_to_the_complete_index(x, result):
    # s_30 = 2^30 - 1 on geom(1,2): a search at the bound forms 3^(2^30 - 1);
    # x = 1 is complete at index 0, x = 5/9 at index 2
    argv = ("member", "--monoid", "r=2/3; delta=geom(1,2)", "--x", x)
    proc = _run_capped("-m", "puiseux.cli", *argv, "--bound", "30")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"membership": result}
    if x == "1":  # the same answer as under the default bound
        assert json.loads(_run_capped("-m", "puiseux.cli", *argv).stdout)["result"] == \
            {"membership": result}


def test_an_expanding_member_is_read_off_by_one_walk():
    # the complete search, on [0, 5] as (3/2)^{s_5} = (3/2)^31 > 10^4, has
    # millions of runs; the walk fixes one coefficient per level
    argv = ("member", "--monoid", "r=3/2; delta=geom(1,2)", "--x", "10000")
    proc = _run_capped("-m", "puiseux.cli", *argv)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]["membership"]
    assert result["status"] == "member"
    assert sum(c for _, c in result["witness"]) == 627


@pytest.mark.parametrize("spec, x, result", [
    ("r=3/2; delta=geom(1,2)", "617675543767595/2147483648",
     {"status": "member", "witness": [[0, 1], [5, 1]]}),
    ("r=5/3; delta=poly(1,1)", "136337823005/14348907",
     {"reason": "exhausted complete search up to support 6", "status": "not-member"}),
], ids=["member-behind-dead-subtrees", "not-member"])
def test_an_expanding_query_takes_one_walk(spec, x, result):
    # x = 1 + r^{s_5}: a search that tries each nonzero level-1 coefficient
    # before zero meets a dead subtree under each; a non-member has no result
    # to stop the search early
    proc = _run_capped("-m", "puiseux.cli", "member", "--monoid", spec, "--x", x)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"membership": result}


def test_support_bound_of_a_foreign_prime_answers_at_once():
    # 7 never divides a power of 3: the scan runs to its cap at index 512,
    # where d^{s_m} in full would be 3^(2^512 - 1)
    proc = _run_capped("-c", "from puiseux import Ratio, parse_monoid\n"
                             "from puiseux.membership import _complete_index\n"
                             "M = parse_monoid('r=2/3; delta=geom(1,2)')\n"
                             "print(_complete_index(Ratio(1, 7), M, 512))")
    assert (proc.returncode, proc.stdout) == (0, "512\n")
