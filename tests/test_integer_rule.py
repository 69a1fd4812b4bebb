"""Every size, count and branch index goes through ``core._exact_int``.

Core claims:
    - a source check: no module of ``src/gptifer`` other than ``core``
      compares a value with a ``MAX_*`` bound, or raises a message that names
      one; each bound is handed to the one rule, which refuses in one form,
      "{owner} takes {low} <= {label} <= {high} ({bound}), got {label} = {value}"
    - a float, a bool or a string size is refused as not an integer, naming
      its owner, and an out-of-range size or branch index is refused by the
      one form, never wrapped around, indexed past or coerced
    - an out-of-range search is refused before any theory is built
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from gptifer import theories as th
from gptifer.cli import main
from gptifer.core import GptState, TheoryModel, VectorTheory, _exact_int
from gptifer.interferometer import MAX_GROVER_ITERATIONS, GroverConfig
from gptifer.phase import branch_local_subgroup, is_branch_local
from gptifer.theories import classical_theory, dball_theory, gbit_theory, quantum_theory

SRC = Path(__file__).resolve().parents[1] / "src" / "gptifer"
OUTSIDE_CORE = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")


def _names_a_bound(node) -> bool:
    # a MAX_* name or attribute, or a string that names one
    if isinstance(node, ast.Name):
        return node.id.startswith("MAX_")
    if isinstance(node, ast.Attribute):
        return node.attr.startswith("MAX_")
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and "MAX_" in node.value


@pytest.mark.parametrize("path", OUTSIDE_CORE, ids=lambda p: p.name)
def test_no_bound_is_compared_outside_core(path):
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare) and any(_names_a_bound(x) for x in (node.left, *node.comparators))
    ]
    assert not found, f"{path.name} compares against a MAX_* bound by hand: {found}"


@pytest.mark.parametrize("path", OUTSIDE_CORE, ids=lambda p: p.name)
def test_no_refusal_names_a_bound_outside_core(path):
    found = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None and any(map(_names_a_bound, ast.walk(node.exc)))
    ]
    assert not found, f"{path.name} writes a bound refusal by hand: {found}"


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({}, "x must be an integer, got 1.5"),
        ({"owner": "f"}, "x must be an integer for f, got 1.5"),
    ],
)
def test_a_non_integer_is_refused_naming_its_owner_when_given(kwargs, message):
    with pytest.raises(ValueError) as err:
        _exact_int(1.5, "x", **kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args,message",
    [
        ((0, 1, None, "f"), "f takes 1 <= x, got x = 0"),
        ((9, None, 8, "f"), "f takes x <= 8, got x = 9"),
        ((9, 2, 8, "f", "MAX_X"), "f takes 2 <= x <= 8 (MAX_X), got x = 9"),
        ((-1, 0, 3, "f"), "f takes 0 <= x <= 3, got x = -1"),
    ],
)
def test_a_range_is_refused_in_the_one_form(args, message):
    value, *rest = args
    with pytest.raises(ValueError) as err:
        _exact_int(value, "x", *rest)
    assert str(err.value) == message


def test_an_integer_within_range_comes_back_as_a_python_int():
    for value in (0, 3, np.int64(3), np.uint8(2)):
        got = _exact_int(value, "x", 0, 3, "f")
        assert type(got) is int and got == value


def _probe_entries(m, branch):
    return [np.asarray(getattr(p, "comps", p)).tolist() for p in m.branch_local_probes(branch)]


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: classical_theory(3.0), "N must be an integer for classical, got 3.0", id="classical-float"),
        pytest.param(lambda: classical_theory(True), "N must be an integer for classical, got True", id="classical-bool"),
        pytest.param(lambda: gbit_theory(3.0), "d must be an integer for gbit<d>, got 3.0", id="gbit-float"),
        pytest.param(
            lambda: dball_theory(np.float64(3)), f"d must be an integer for dball<d>, got {np.float64(3)!r}", id="dball-float"
        ),
        pytest.param(lambda: quantum_theory(2).branch_ket(-1), "quantum takes 0 <= branch <= 3, got branch = -1", id="ket-negative"),
        pytest.param(
            lambda: quantum_theory(2).branch_state(-1), "quantum takes 0 <= branch <= 3, got branch = -1", id="state-negative"
        ),
        pytest.param(
            lambda: quantum_theory(2).branch_local_probes(-1), "quantum takes 0 <= branch <= 3, got branch = -1", id="probes-negative"
        ),
        pytest.param(
            lambda: quantum_theory(2).branch_local_probes(7), "quantum takes 0 <= branch <= 3, got branch = 7", id="probes-past-end"
        ),
        pytest.param(lambda: gbit_theory(2).face_states(-1), "gbit2 takes 0 <= branch <= 1, got branch = -1", id="face-negative"),
        pytest.param(lambda: gbit_theory(2).face_states(5), "gbit2 takes 0 <= branch <= 1, got branch = 5", id="face-past-end"),
        pytest.param(
            lambda: is_branch_local(gbit_theory(2), gbit_theory(2).group.elements[0], 1.0),
            "branch must be an integer for gbit2, got 1.0",
            id="locality-float",
        ),
        pytest.param(
            lambda: is_branch_local(gbit_theory(2), gbit_theory(2).group.elements[0], True),
            "branch must be an integer for gbit2, got True",
            id="locality-bool",
        ),
        pytest.param(
            lambda: is_branch_local(quantum_theory(1), quantum_theory(1).identity_map(), True),
            "branch must be an integer for quantum, got True",
            id="locality-bool-matrix",
        ),
        pytest.param(
            lambda: branch_local_subgroup(quantum_theory(1), 5), "quantum takes 0 <= branch <= 1, got branch = 5", id="subgroup-matrix"
        ),
        pytest.param(
            lambda: branch_local_subgroup(gbit_theory(2), -1), "gbit2 takes 0 <= branch <= 1, got branch = -1", id="subgroup-finite"
        ),
        pytest.param(lambda: TheoryModel("x", 2.5, None), "n_branches must be an integer for x, got 2.5", id="branch-count-float"),
        pytest.param(
            lambda: VectorTheory("t", (("Z", 2.0),), 0, (GptState([1.0, 0.0]),), None),
            "Z outcomes must be an integer for t, got 2.0",
            id="layout-count-float",
        ),
        pytest.param(
            lambda: GroverConfig(4, 1, 10**9),
            "GroverConfig takes 0 <= iterations <= 1000000 (MAX_GROVER_ITERATIONS), got iterations = 1000000000",
            id="grover-rounds",
        ),
    ],
)
def test_a_size_or_branch_out_of_the_rule_is_refused(call, message):
    # each of these once raised TypeError or IndexError, wrapped around, or was accepted
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_a_valid_branch_index_reads_as_before():
    m = quantum_theory(2)
    assert np.array_equal(m.branch_ket(np.int64(3)), m.branch_ket(3))
    assert np.array_equal(m.branch_state(3), np.diag([0, 0, 0, 1]))
    assert _probe_entries(m, np.int64(3)) == _probe_entries(m, 3)
    g = gbit_theory(2)
    assert g.face_states(np.int64(1)) == g.face_states(1)
    assert GroverConfig(4, 3, MAX_GROVER_ITERATIONS).iterations == MAX_GROVER_ITERATIONS


def test_cli_refuses_a_search_past_the_round_bound_before_building_a_theory(capsys, monkeypatch):
    def no_theory(*args):
        raise AssertionError("a theory was built")

    monkeypatch.setattr(th, "quantum_theory", no_theory)
    with pytest.raises(SystemExit) as exc:
        main(["run", "grover", "--N", "4", "--iterations", str(MAX_GROVER_ITERATIONS + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(
        r"^gptifer: error: GroverConfig takes 0 <= iterations <= 1000000 \(MAX_GROVER_ITERATIONS\), "
        r"got iterations = 1000001$",
        captured.err,
        re.M,
    )
