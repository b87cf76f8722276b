"""The README's CLI examples, checked byte for byte against a golden file.

The golden file holds each example's argv, exit code and stdout. Refresh it
only for an intended change of output, with
``PYTHONPATH=src python tests/test_readme_cli.py``.
"""

import ast
import io
import json
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from puiseux.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "readme_cli.json"


def readme_examples():
    lines = (HERE.parent / "README.md").read_text().splitlines()
    return [shlex.split(line[len("$ puiseux "):])
            for line in lines if line.startswith("$ puiseux ")]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_golden_file_covers_the_readme_examples():
    golden = json.loads(GOLDEN.read_text())
    assert len(readme_examples()) == 11
    assert [case["argv"] for case in golden] == readme_examples()


@pytest.mark.parametrize("index", range(11))
def test_readme_example_output_is_byte_identical(index):
    case = json.loads(GOLDEN.read_text())[index]
    assert run(case["argv"]) == case


def test_readme_python_example_gives_its_commented_values():
    text = (HERE.parent / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    # join continuation lines, then check each line whose comment is a literal
    statements, scope, checked = [], {}, []
    for line in block.splitlines():
        if statements and line.startswith(" "):
            statements[-1] += "\n" + line
        elif line.strip():
            statements.append(line)
    for statement in statements:
        code, _, comment = statement.partition("  #")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(statement, scope)
            continue
        assert eval(code, scope) == expected, code
        checked.append(expected)
    assert checked == ["yes", {0: 2}]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in readme_examples()], indent=1) + "\n")
