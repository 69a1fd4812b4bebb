"""Contract tests: an operand's structured and dense forms give one answer.

Core claims:
    - a diagonal map gets one maps_commute verdict in its diagonal, dense
      and mixed forms, and one is_identity_map verdict in both forms, in
      both matrix algebras at N = 2 and 4, with no floating-point warning.
      Entries are drawn from exact signs, unit phases (complex; quaternionic
      about i, j, k and tilted axes, and (1/2, 1/2, 1/2, 1/2)), non-unit
      reals (2, 1 + 2e-9), NaN, +-inf and 1e200, whose products overflow
    - on finite entries no larger than 1e3, compose and apply (to a ket
      and to a density) agree with the dense form within 1e-12
    - a non-unit diagonal, diag(2, 1), commutes with the identity in no
      form, in either algebra
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptifer.core import DiagonalMap
from gptifer.theories import quantum_theory, quaternionic_theory

_THEORIES = [quantum_theory(1), quantum_theory(2), quaternionic_theory(2), quaternionic_theory(4)]

# entries that are not unit phases, as a real first component
_NON_UNIT = [2.0, 1.0 + 2e-9, np.nan, np.inf, -np.inf, 1e200]

# quaternionic phase axes: the pure units and tilted ones, all exact or normalized
_AXES = [np.eye(4)[1], np.eye(4)[2], np.eye(4)[3], np.array([0.0, 0.6, 0.8, 0.0]), np.array([0.0, 1.0, 1.0, 1.0]) / np.sqrt(3.0)]


def _label(m):
    return f"{m.name}-{m.dim}"


def _entries(m):
    # one diagonal entry as its k components, in the algebra's dtype
    k = m.PHASES.shape[1]
    signs = st.sampled_from([1.0, -1.0])
    others = st.sampled_from(_NON_UNIT)
    if k == 1:
        phases = st.floats(0.0, 2.0 * np.pi).map(lambda t: np.exp(1j * t))
        return st.one_of(signs, phases, others).map(lambda x: np.array([x], dtype=complex))

    def phase(turn, axis):
        # cos t + sin t u at a multiple of pi / 6, far from any tolerance edge
        t = turn * np.pi / 6.0
        return np.cos(t) * np.eye(4)[0] + np.sin(t) * axis

    scalars = st.one_of(signs, others).map(lambda x: np.array([x, 0.0, 0.0, 0.0]))
    return st.one_of(scalars, st.builds(phase, st.integers(0, 11), st.sampled_from(_AXES)), st.just(np.full(4, 0.5)))


def _diagonals(m):
    return st.lists(_entries(m), min_size=m.dim, max_size=m.dim).map(lambda cols: DiagonalMap(np.stack(cols, axis=1)))


def _ket(m):
    # a fixed normalized ket with a generic entry on every level
    rng = np.random.default_rng(m.dim)
    comps = rng.standard_normal((m.PHASES.shape[1], m.dim, 1))
    if m.PHASES.shape[1] == 1:
        comps = comps + 1j * rng.standard_normal(comps.shape)
    return m._matrix(comps / np.sqrt(np.sum(np.abs(comps) ** 2)))


def _close(m, x, y) -> bool:
    # entrywise within 1e-12, a diagonal materialized first
    x, y = (m._entries(m.dense(z) if isinstance(z, DiagonalMap) else z) for z in (x, y))
    return np.abs(x - y).max() <= 1e-12


@pytest.mark.parametrize("m", _THEORIES, ids=_label)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_a_diagonal_gets_one_verdict_in_every_form(m, data):
    a = data.draw(_diagonals(m), label="a")
    b = data.draw(st.one_of(_diagonals(m), st.just(a)), label="b")
    A, B = m.dense(a), m.dense(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = m.maps_commute(a, b)
        assert verdict == m.maps_commute(A, B) == m.maps_commute(a, B) == m.maps_commute(A, b)
        assert m.is_identity_map(a) == m.is_identity_map(A)
    if not all(d.finite and np.abs(d.comps).max() <= 1e3 for d in (a, b)):
        return
    assert _close(m, m.compose(a, b), A @ B)
    psi = _ket(m)
    rho = psi @ m._dagger(psi)
    assert _close(m, m.apply(a, psi), m.apply(A, psi))
    assert _close(m, m.apply(a, rho), m.apply(A, rho))


@pytest.mark.parametrize("m", [quantum_theory(1), quaternionic_theory(2)], ids=_label)
def test_a_non_unit_diagonal_commutes_with_the_identity_in_no_form(m):
    a, one = m.diagonal_map([2.0, 1.0]), m.identity_map()
    assert not m.maps_commute(a, one) and not m.maps_commute(m.dense(a), m.dense(one))
    assert not m.maps_commute(a, m.dense(one)) and not m.maps_commute(m.dense(a), one)
