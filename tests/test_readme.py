"""README's examples, run as written.

The python blocks run statement by statement; a statement whose line ends
in a comment and that is a bare expression must show that comment as its
output (``print(x)`` as ``str(x)``, any other expression as ``repr``).
The ``$ scbundles`` transcripts run in one scratch directory, in order,
and each must print exactly the lines under it.
"""

import ast
import re
from pathlib import Path

import pytest

from scbundles.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
TEXT_BLOCKS = re.findall(r"```text\n(.*?)```", README, re.S)


def shown_outputs(source, namespace):
    """Run a block; yield (expected, actual) for each commented expression."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        expected = lines[node.end_lineno - 1].partition("# ")[2].strip()
        if not isinstance(node, ast.Expr) or not expected:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        call = node.value
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print":
            (arg,) = call.args
            actual = str(eval(compile(ast.Expression(arg), "README.md", "eval"), namespace))
        else:
            actual = repr(eval(compile(ast.Expression(call), "README.md", "eval"), namespace))
        yield expected, actual


def test_python_blocks_print_their_comments():
    assert len(PYTHON_BLOCKS) == 3
    namespace = {}
    checked = [
        pair for block in PYTHON_BLOCKS for pair in shown_outputs(block, namespace)
    ]
    assert len(checked) == 5
    for expected, actual in checked:
        assert actual == expected


def transcripts():
    """(argv, expected stdout) for every ``$ scbundles`` command."""
    (block,) = TEXT_BLOCKS
    found = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        prompt, program, *argv = command.split()
        assert (prompt, program) == ("$", "scbundles")
        found.append((argv, "".join(line + "\n" for line in output)))
    return found


def test_cli_transcripts(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = transcripts()
    assert [argv[0] for argv, _ in runs] == ["homology", "gen-surface", "verify"]
    for argv, expected in runs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected
