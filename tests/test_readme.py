"""The README's examples, run: every `spinscatter` line of its fenced `sh` blocks and every fenced `python` block.

In an `sh` block, a line that starts with `spinscatter ` runs through cli.main in an empty working directory, and the
`# ` lines right under it are what it prints: stdout when it succeeds, stderr when a trailing `# exit N` names its
nonzero status, and then no file is left behind.  Other lines, such as pip and pytest, are not run.  In a `python`
block every top-level expression carries a `# value` comment, compared with the value to the digits shown: `# 0.8`
holds for 0.8000000000000003, and `# 0.7853981634...` is a prefix of the repr.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from spinscatter.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def blocks(language):
    return [body for lang, body in FENCES if lang == language]


def sh_examples():
    """(command line, exit status, printed lines) of each `spinscatter` line in the sh blocks."""
    examples = []
    for body in blocks("sh"):
        current = None
        for line in body.splitlines():
            if line.startswith("spinscatter "):
                command, _, status = line.partition("  # exit ")
                current = (command, int(status or 0), [])
                examples.append(current)
            elif current and (line == "#" or line.startswith("# ")):
                current[2].append(line[2:])
            else:
                current = None
    return examples


SH_EXAMPLES = sh_examples()
PYTHON_BLOCKS = blocks("python")


def shown_as(value, shown):
    """Whether value, printed, reads as shown: its repr, a prefix of it before `...`, or a float to the decimals shown."""
    if shown.endswith("..."):
        return repr(value).startswith(shown[:-3])
    if isinstance(value, float) and re.fullmatch(r"-?\d+\.\d+", shown):
        return f"{value:.{len(shown.split('.')[1])}f}" == shown
    return repr(value) == shown


def test_every_fenced_block_is_checked():
    """An example in a block of another language would escape the tests below."""
    assert {lang for lang, _ in FENCES} <= {"sh", "python"}
    assert SH_EXAMPLES and PYTHON_BLOCKS


@pytest.mark.parametrize("command, status, printed", SH_EXAMPLES, ids=[command for command, _, _ in SH_EXAMPLES])
def test_sh_example(tmp_path, monkeypatch, capsys, command, status, printed):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(shlex.split(command)[1:])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    text = "".join(line + "\n" for line in printed)
    assert code == status
    assert (out, err) == ((text, "") if status == 0 else ("", text))
    if status:
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=[f"python-{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_example(source):
    comments = {
        token.start[0]: token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        shown = comments.get(node.end_lineno, "")
        assert shown.startswith("# "), f"{ast.unparse(node)} shows no value"
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        assert shown_as(value, shown[2:]), (ast.unparse(node), value, shown)
