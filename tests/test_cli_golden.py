"""CLI calls outside the README, checked byte for byte against a golden file.

The cases cover every exit-2 and exit-3 path of ``tests/test_cli.py``, the
spec-file route of each subcommand that takes a monoid, options the README
does not show, and usage rejections (exit 2, nothing on stdout). Spec
files are written into a temporary working directory, so the argv and the
echoed input hold only relative names. Refresh the golden file only for an
intended change of output, with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from puiseux.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_cases.json"

SPEC_FILES = {
    "geom.json": b'{"r": "2/3", "delta": {"prefix": [], "tail": {"geom": [1, 2]}}}',
    "const.json": b'{"r": "2/3", "delta": {"prefix": [1, 2], "tail": {"const": 1}}}',
    "delta_list.json": b'{"r": "2/3", "delta": [1]}',
    "short_geom.json": b'{"r": "2/3", "delta": {"tail": {"geom": [1]}}}',
    "open_brace.json": b"{",
    "empty.json": b"",
    "not_utf8.json": b"\xff\xfe",
}

CONST = "r=2/3; delta=const(1)"
GEOM = "r=2/3; delta=geom(1,2)"

CASES = [
    # parse errors, exit 2
    ["classify", "--monoid", "r=2/x; delta=const(1)"],
    ["classify", "--monoid", "r=2/3; delta=warp(3)"],
    ["classify", "--monoid", "r=2/3; delta=prefix(1,2"],
    ["classify", "--spec-file", "delta_list.json"],
    ["classify", "--spec-file", "short_geom.json"],
    ["classify", "--spec-file", "open_brace.json"],
    ["classify", "--spec-file", "empty.json"],
    ["classify", "--spec-file", "not_utf8.json"],
    ["classify"],
    ["member", "--x", "1/0"],
    ["member", "--monoid", CONST, "--x", "1/0"],
    ["enumerate", "--monoid", CONST, "--x", "two", "--max-index", "3"],
    ["normal-form", "--monoid", CONST, "--z", "[[2,9]"],
    ["normal-form", "--monoid", CONST, "--z", "[[1,2.9]]"],
    ["normal-form", "--monoid", CONST, "--z", "[[0.99,3]]"],
    ["normal-form", "--monoid", CONST, "--z", "[[1,true]]"],
    ["normal-form", "--monoid", CONST, "--z", '[["1",2]]'],
    ["semiring", "--r", "2/3", "--N", "gens(a)"],
    # usage rejections: exit 2, usage on stderr only
    ["oracle", "frobnicate", "--monoid", CONST, "--x", "2", "--max-index", "3"],
    ["normal-form", "--monoid", CONST],
    ["chain", "--monoid", CONST, "--k", "two"],
    # precondition errors, exit 3
    ["chain", "--monoid", GEOM, "--k", "2"],
    ["chain", "--monoid", CONST, "--k", "0"],
    ["lengths", "--monoid", CONST, "--x", "1/5", "--max-index", "3"],
    ["classify", "--spec-file", "missing.json"],
    ["normal-form", "--monoid", CONST, "--z", "[[1,-2]]"],
    ["normal-form", "--monoid", "r=3/2; delta=const(1)", "--z", "[[1,2]]"],
    ["max-length", "--monoid", GEOM, "--z", "[[0,2]]", "--bound", "0"],
    ["enumerate", "--monoid", CONST, "--x", "2", "--max-index", "-1"],
    ["counterexample", "--a", "3", "--b", "2", "--k", "4"],
    ["semiring", "--r", "0", "--N", "gens(2,3)"],
    ["mult-classify", "--r", "0"],
    # answers, exit 0
    ["classify", "--monoid", CONST],
    ["classify", "--spec-file", "geom.json"],
    ["classify", "--spec-file", "geom.json", "--monoid", CONST],
    ["mult-classify", "--r", "2/15"],
    ["mult-classify", "--r", "2/3", "--N", "gens(2,3)"],
    ["counterexample", "--a", "2", "--b", "5", "--k", "10"],
    ["max-length", "--monoid", CONST, "--z", "[[0,2]]"],
    ["max-length", "--spec-file", "geom.json", "--z", "[[0,5],[1,2]]", "--bound", "8"],
    ["normal-form", "--spec-file", "const.json", "--z", "[[4,30],[1,2]]"],
    ["member", "--spec-file", "const.json", "--x", "4/9"],
    ["member", "--monoid", CONST, "--x", "1/9", "--bound", "0"],
    ["lengths", "--monoid", CONST, "--x", "2", "--max-index", "3", "--bound", "5"],
    ["lengths", "--spec-file", "geom.json", "--x", "2", "--max-index", "2", "--bound", "4"],
    ["enumerate", "--spec-file", "const.json", "--x", "7/3", "--max-index", "3"],
    ["chain", "--spec-file", "const.json", "--k", "3"],
    ["chain", "--monoid", "r=2/3; delta=poly(1,1)", "--k", "4"],
    ["semiring", "--r", "2/3", "--N", "prefix(0);tail>=3"],
    ["semiring", "--r", "2/3", "--N", "prefix(0,2);tail>=3"],
    ["oracle", "enumerate", "--spec-file", "const.json", "--x", "2", "--max-index", "3"],
    # every exponent-set form through the semiring layer
    ["semiring", "--r", "2/3", "--N", "gens(4,6)"],
    ["semiring", "--r", "2/3", "--N", "gens(1)"],
    ["semiring", "--r", "2/3", "--N", "N=gens(6,10,15)"],
    ["semiring", "--r", "2/3", "--N", "prefix(1);tail>=4"],
    ["semiring", "--r", "2/3", "--N", "prefix(0,1);tail>=5"],
    ["semiring", "--r", "2/3", "--N", "prefix(0,3,4);tail>=7"],
    ["semiring", "--r", "2/3", "--N", "prefix();tail>=0"],
    ["mult-classify", "--r", "2/9", "--N", "prefix(0);tail>=3"],
]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def write_spec_files(directory):
    for name, content in SPEC_FILES.items():
        (Path(directory) / name).write_bytes(content)


def test_golden_file_lists_the_cases():
    assert [case["argv"] for case in json.loads(GOLDEN.read_text())] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cli_output_is_byte_identical(index, tmp_path, monkeypatch, capsys):
    write_spec_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    case = json.loads(GOLDEN.read_text())[index]
    assert run(case["argv"]) == case


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_spec_files(tmp)
        os.chdir(tmp)
        cases = [run(argv) for argv in CASES]
        os.chdir(here)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
