"""The README's library tour runs as written.

Core claims:
    - executing the README's ``python`` block prints, line by line, exactly
      the ``# ...`` comments written beside (or under) each ``print``, so a
      renamed or deleted public name breaks this test, not the documentation
    - every ``gptifer ...`` line of the README's CLI block exits 0 through
      ``cli.main``, in a temporary directory for the one that writes a file
    - every name the package exports is read by the package itself, outside
      ``__init__.py``, or by the library tour: an export that nothing reads
      is not kept
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from gptifer.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
(CLI_BLOCK,) = re.findall(r"## CLI\n\n```\n(.*?)```", README.read_text(), re.S)
(TOUR_BLOCK,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_library_tour_prints_what_its_comments_say():
    expected = [match[1] for match in re.finditer(r"#\s*(.*?)\s*$", TOUR_BLOCK, re.M)]
    assert len(expected) == TOUR_BLOCK.count("print(")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(TOUR_BLOCK, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == expected


@pytest.mark.parametrize("line", CLI_BLOCK.splitlines())
def test_cli_block_commands_exit_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GPT_IFER_SEED", raising=False)
    program, *argv = shlex.split(line)
    assert program == "gptifer"
    assert main(argv) == 0
    assert capsys.readouterr().out
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()


def test_every_export_is_read_by_the_package_or_the_tour():
    package = ROOT / "src" / "gptifer"
    init = ast.parse((package / "__init__.py").read_text())
    exported = {a.asname or a.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom) for a in node.names}
    read = set(re.findall(r"\w+", TOUR_BLOCK))
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(exported - read) == []
