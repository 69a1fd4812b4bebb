"""The README's library tour runs as written.

Core claims:
    - executing the README's ``python`` block prints, line by line, exactly
      the ``# ...`` comments written beside (or under) each ``print``, so a
      renamed or deleted public name breaks this test, not the documentation
    - every ``gptifer ...`` line of the README's CLI block exits 0 through
      ``cli.main``, in a temporary directory for the one that writes a file
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from gptifer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
(CLI_BLOCK,) = re.findall(r"## CLI\n\n```\n(.*?)```", README.read_text(), re.S)


def test_library_tour_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [match[1] for match in re.finditer(r"#\s*(.*?)\s*$", block, re.M)]
    assert len(expected) == block.count("print(")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
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
