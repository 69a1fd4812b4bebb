"""Tests for the uncertainty-relation module.

Core claims:
    - both variance bounds hold on seeded random pure states, with the
      anti-commutator version at least as tight as the commutator one
    - the documented equality and degenerate cases come out exactly
    - pure states sit on the unit sphere of Pauli expectations; the mixed
      state at the center scores zero; the double-certainty vector overfills
    - the ball bound generalizes the sphere bound under P = (1 + e)/2
    - the kernels take an (n, 2, 2) stack and agree with their one-state
      results on every slice; one state still gives Python floats
    - the Hermiticity check is absolute: a 1e-6 asymmetry is refused, with
      no relative allowance, and so is an infinite entry
"""

import numpy as np
import pytest

from gptifer.core import GptState
from gptifer.experiments import run_experiment
from gptifer.theories import qubit_state_from_expectations, qubit_theory
from gptifer.uncertainty import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliExpectations,
    bloch_norm,
    dball_bound,
    pauli_expectations,
    random_pure_qubit_states,
    robertson_bound,
    schrodinger_bound,
)

KET_ZERO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
MAX_MIXED = np.eye(2, dtype=complex) / 2.0


def test_pauli_eigenstate_saturates_both_bounds():
    lhs, rhs = schrodinger_bound(KET_ZERO, PAULI_X, PAULI_Y)
    assert (lhs, rhs) == (pytest.approx(1.0), pytest.approx(1.0))
    lhs_r, rhs_r = robertson_bound(KET_ZERO, PAULI_X, PAULI_Y)
    assert (lhs_r, rhs_r) == (pytest.approx(1.0), pytest.approx(1.0))


def test_maximally_mixed_state_is_slack():
    lhs, rhs = schrodinger_bound(MAX_MIXED, PAULI_X, PAULI_Y)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_commuting_pair_has_zero_commutator_term():
    lhs, _ = robertson_bound(KET_ZERO, PAULI_Z, PAULI_Z)
    assert lhs == pytest.approx(0.0, abs=1e-12)


def test_non_hermitian_inputs_rejected():
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        schrodinger_bound(KET_ZERO, raising, PAULI_Y)
    with pytest.raises(ValueError):
        robertson_bound(KET_ZERO, PAULI_X, raising)


def test_a_small_asymmetry_is_refused_without_relative_tolerance():
    almost = np.array([[0.0, 1.0 + 1e-6], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="X must be a Hermitian 2x2 matrix"):
        schrodinger_bound(KET_ZERO, almost, PAULI_Y)
    with pytest.raises(ValueError, match="Y must be a Hermitian 2x2 matrix"):
        robertson_bound(KET_ZERO, PAULI_X, almost)
    infinite = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="X must be a Hermitian 2x2 matrix"):
        schrodinger_bound(KET_ZERO, infinite, PAULI_Y)


def test_bounds_hold_on_sampled_pure_states():
    rng = np.random.default_rng(0)
    states = random_pure_qubit_states(10_000, rng)
    lhs_s, rhs = schrodinger_bound(states, PAULI_X, PAULI_Y)
    lhs_r, _ = robertson_bound(states, PAULI_X, PAULI_Y)
    assert np.all(rhs - lhs_s >= -1e-9)
    assert np.all(rhs - lhs_r >= -1e-9)
    assert np.all(lhs_s - lhs_r >= -1e-12)  # anti-commutator term never negative


def test_pure_states_sit_on_the_unit_sphere():
    rng = np.random.default_rng(1)
    norms = bloch_norm(pauli_expectations(random_pure_qubit_states(2_000, rng)))
    np.testing.assert_allclose(norms, 1.0, rtol=0.0, atol=1e-9)


def test_norm_examples():
    assert bloch_norm(pauli_expectations(MAX_MIXED)) == pytest.approx(0.0, abs=1e-12)
    assert bloch_norm(PauliExpectations(1.0, 1.0, 0.0)) == 2.0
    assert not qubit_theory().contains(qubit_state_from_expectations(1.0, 1.0, 0.0))


def test_ball_bound_examples():
    d = 4
    center = GptState(np.full(2 * d, 0.5))
    assert dball_bound(center, d) == 0.0
    surface = np.full(2 * d, 0.5)
    surface[0], surface[1] = 1.0, 0.0
    assert dball_bound(GptState(surface), d) == 0.25


def test_ball_bound_matches_sphere_norm_for_three_measurements():
    rng = np.random.default_rng(2)
    for rho in random_pure_qubit_states(200, rng):
        e = pauli_expectations(rho)
        s = qubit_state_from_expectations(e.ex, e.ey, e.ez)
        assert dball_bound(s, 3) == pytest.approx(bloch_norm(e) / 4.0, abs=1e-12)


def test_ball_bound_layout_mismatch():
    with pytest.raises(ValueError):
        dball_bound(GptState(np.full(6, 0.5)), 4)


def test_qubit_membership_equals_sphere_bound():
    rng = np.random.default_rng(3)
    m = qubit_theory()
    for _ in range(500):
        e = PauliExpectations(*rng.uniform(-1.1, 1.1, 3))
        inside = bloch_norm(e) <= 1.0 + 1e-9
        vec = qubit_state_from_expectations(e.ex, e.ey, e.ez)
        assert m.contains(vec) == inside


# -- stacks of states --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 50])
def test_stacked_kernels_match_each_slice(n):
    states = random_pure_qubit_states(n, np.random.default_rng(n))
    mixed = states * 0.7 + MAX_MIXED * 0.3  # off the sphere, so the bounds are slack
    for stack in (states, mixed):
        for kernel in (schrodinger_bound, robertson_bound):
            for X, Y in ((PAULI_X, PAULI_Y), (PAULI_Y, PAULI_Z), (PAULI_Z, PAULI_Z)):
                lhs, rhs = kernel(stack, X, Y)
                assert lhs.shape == rhs.shape == (n,)
                per_state = np.array([kernel(rho, X, Y) for rho in stack])
                np.testing.assert_allclose(lhs, per_state[:, 0], rtol=0.0, atol=1e-15)
                np.testing.assert_allclose(rhs, per_state[:, 1], rtol=0.0, atol=1e-15)
        p = pauli_expectations(stack)
        per_state = [pauli_expectations(rho) for rho in stack]
        for field, M in (("ex", PAULI_X), ("ey", PAULI_Y), ("ez", PAULI_Z)):
            np.testing.assert_array_equal(
                getattr(p, field), [getattr(q, field) for q in per_state]
            )
            reference = [np.trace(M @ rho).real for rho in stack]
            np.testing.assert_allclose(getattr(p, field), reference, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            bloch_norm(p), [bloch_norm(q) for q in per_state], rtol=0.0, atol=1e-15
        )


def test_one_state_gives_python_floats():
    for kernel in (schrodinger_bound, robertson_bound):
        assert all(type(v) is float for v in kernel(KET_ZERO, PAULI_X, PAULI_Y))
    p = pauli_expectations(KET_ZERO)
    assert all(type(v) is float for v in (p.ex, p.ey, p.ez))
    assert type(bloch_norm(p)) is float


def test_non_hermitian_inputs_rejected_for_a_stack():
    stack = random_pure_qubit_states(3, np.random.default_rng(4))
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="X must be a Hermitian 2x2 matrix"):
        schrodinger_bound(stack, raising, PAULI_Y)
    with pytest.raises(ValueError, match="Y must be a Hermitian 2x2 matrix"):
        robertson_bound(stack, PAULI_X, raising)


def test_uncertainty_experiment_passes_on_one_sample():
    report = run_experiment("uncertainty", {"samples": 1})
    assert report.passed
    assert report.results["samples"] == 1
