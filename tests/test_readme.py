"""README's "Library quick start" and "Command line" examples run, and give
the results their comments state, so that README cannot drift from the
library."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from a1degrees import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block under the `## heading` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _comment(line: str) -> str:
    """The text of line's trailing comment, or ''."""
    match = re.search(r"\s#\s*(.*)$", line)
    return match.group(1).strip() if match else ""


def _check(value, comment: str) -> bool:
    """Whether comment states a result that value is checked against; an
    unchecked comment (a description) is False."""
    if comment.startswith("diag(") and comment.endswith(")"):
        entries = [int(x) for x in comment[5:-1].split(",")]
        assert value.gram == tuple(
            tuple(e if i == j else 0 for j in range(len(entries)))
            for i, e in enumerate(entries)), comment
    elif re.fullmatch(r"<-?\d+>", comment):
        assert value.gram == ((int(comment[1:-1]),),), comment
    elif comment.startswith("'"):
        assert value == ast.literal_eval(comment), comment
    elif match := re.fullmatch(r"rank-(\d+) class over (\w+)", comment):
        assert (value.rank, str(value.field)) == \
            (int(match.group(1)), match.group(2)), comment
    else:
        return False
    return True


def test_library_quick_start_gives_its_results():
    block = _block("Library quick start", "python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     namespace)
        comment = _comment(lines[stmt.end_lineno - 1])
        if _check(value, comment):
            checked.append(comment)
    assert {"diag(1, -2)", "'2H + <2> + <5>'", "<65>"} <= set(checked)


COMMANDS = [line for line in _block("Command line", "sh").splitlines()
            if line.startswith("a1deg ")]


def test_command_line_block_states_its_results():
    assert {"2H + <2> + <5>", "-1"} <= set(map(_comment, COMMANDS))


@pytest.mark.parametrize("line", COMMANDS,
                         ids=[" ".join(shlex.split(c)[1:3]) for c in COMMANDS])
def test_command_line_example_exits_0(capsys, line):
    code = cli.main(shlex.split(line, comments=True)[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), line
    comment = _comment(line)
    if comment:
        assert out.strip() == comment, line
