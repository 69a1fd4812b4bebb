"""The README's library tour runs as written.

Core claim:
    - executing the README's ``python`` block prints, line by line, exactly
      the ``# ...`` comments written beside (or under) each ``print``, so a
      renamed or deleted public name breaks this test, not the documentation
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [match[1] for match in re.finditer(r"#\s*(.*?)\s*$", block, re.M)]
    assert len(expected) == block.count("print(")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == expected
