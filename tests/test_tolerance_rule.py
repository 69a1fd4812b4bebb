"""Every closeness decision in the library goes through ``core.near_zero``.

A source check, in well under a second: no module of ``src/gptifer`` calls
numpy's ``allclose`` or ``isclose`` (whose relative term and equal
infinities ``near_zero`` does not have), no module compares a value with
``>`` against ``atol`` or ``self.atol`` (a NaN passes that comparison, and
fails ``near_zero``), and the probability floor is written once, as
``core.PROBABILITY_FLOOR``, across ``core``, ``theories`` and ``phase``.
The experiments' pass predicates keep their own bounds.  Exact equality
has one idiom too: ``==`` and ``.all()`` after a shape check, never
numpy's ``array_equal``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gptifer"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_closeness_call(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("allclose", "isclose"):
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import {a.name}" for a in node.names
                      if a.name in ("allclose", "isclose")]
    assert not found, f"{path.name} compares through numpy: {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_array_equal_call(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "array_equal":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import {a.name}" for a in node.names if a.name == "array_equal"]
    assert not found, f"{path.name} compares exactly through numpy's array_equal, not == and .all(): {found}"


def _is_atol(node) -> bool:
    # ``atol`` or ``self.atol``
    if isinstance(node, ast.Attribute):
        return node.attr == "atol" and isinstance(node.value, ast.Name) and node.value.id == "self"
    return isinstance(node, ast.Name) and node.id == "atol"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_comparison_a_nan_passes(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                if (isinstance(op, ast.Gt) and _is_atol(right)) or (isinstance(op, ast.Lt) and _is_atol(left)):
                    found.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not found, f"{path.name} compares against atol with '>', which a NaN passes: {found}"


def test_the_probability_floor_is_written_once():
    lines = [
        f"{name}: {line.strip()}"
        for name in ("core.py", "theories.py", "phase.py")
        for line in (SRC / name).read_text().splitlines()
        if "1e-12" in line
    ]
    assert lines == ["core.py: PROBABILITY_FLOOR = 1e-12"]
