"""Tests for the exactly checked feasibility solver.

Core claims:
    - on seeded small systems (2-8 variables: feasible, infeasible,
      degenerate with repeated or zero rows, rank-deficient, equality-only,
      inequality-only, small-integer and general float coefficients) and on
      the four toy-bit effect searches, every verdict agrees with HiGHS;
      every witness meets the float rows within 1e-9, and every
      certificate passes a Farkas check in Fractions, made here
    - the four toy-bit searches reach the verdicts the paper states: no
      effect for the hidden variable, strict or weak; one for the restricted
      toy bit, strict or weak
    - no corruption of the float basis yields a wrong verdict: a flipped
      verdict, a repeated column or any one column replaced either raises
      NumericConsistencyError naming the failed check or gives the right
      verdict with a certificate or witness that holds
    - a system infeasible by 2**-52, less than the float tolerance, raises
      the witness check instead of reporting feasible
    - malformed input is refused by name: a matrix without its right-hand
      side, mismatched shapes, NaN or infinite entries, no rows
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptifer.interferometer as ifr
import gptifer.lp as lp
from gptifer.quaternion import NumericConsistencyError


def _toy_systems():
    # the rows find_distinguishing_effect builds for both toy bits, strict and weak
    systems = {}
    for name in ("ontic", "epistemic"):
        m, enc, s_in, _ = getattr(ifr, f"spekkens_{name}_dj_instruments")()
        for strict in (True, False):
            seen = []
            real = ifr.linprog
            ifr.linprog = lambda **kw: seen.append(kw) or real(**kw)
            try:
                ifr.find_distinguishing_effect(m, enc, s_in, strict)
            finally:
                ifr.linprog = real
            systems[f"{name}-{'strict' if strict else 'weak'}"] = seen[0]
    return systems


TOY = _toy_systems()
TOY_FEASIBLE = {"ontic-strict": False, "ontic-weak": False, "epistemic-strict": True, "epistemic-weak": True}

KINDS = ("feasible", "infeasible", "degenerate", "rank-deficient", "equality-only", "inequality-only")


def _system(kind, seed, integral):
    """A seeded system of the given kind: (A_ub, b_ub, A_eq, b_eq).

    Every row that is tight at the planted point, or that repeats or combines
    other rows, has small-integer coefficients, so it is tight or dependent
    exactly.  With general float coefficients a product rounds, so such a
    row would be tight or dependent only within rounding, where an exact
    verdict and HiGHS's tolerance verdict may differ.  Float systems
    therefore keep a positive slack, fewer equality rows than variables, and
    contradict a row only by its exact negation.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    integral = integral or kind in ("degenerate", "rank-deficient")

    def coefficients(rows, cols=n):
        if integral:
            return rng.integers(-3, 4, (rows, cols)).astype(float)
        return rng.standard_normal((rows, cols))

    x0 = rng.integers(-4, 5, n) / 4.0
    a_ub = coefficients(int(rng.integers(1, 2 * n + 2)))
    a_eq = coefficients(int(rng.integers(1, n)))
    if kind == "rank-deficient":  # columns in a lower-dimensional span: a lineality space
        rank = int(rng.integers(1, n))
        a_ub = coefficients(len(a_ub), rank) @ rng.integers(-2, 3, (rank, n))
        a_eq = coefficients(len(a_eq), rank) @ rng.integers(-2, 3, (rank, n))
    slack = rng.integers(0 if integral else 1, 4, len(a_ub)) / 4.0
    b_ub, b_eq = a_ub @ x0 + slack, a_eq @ x0
    if kind == "degenerate":  # repeated rows, zero rows, and every inequality tight
        a_ub = np.vstack([a_ub, a_ub[:2], np.zeros((1, n))])
        b_ub = np.concatenate([a_ub[:-3] @ x0, a_ub[:2] @ x0, [0.0]])
        a_eq = np.vstack([a_eq, a_eq[:1], np.zeros((1, n))])
        b_eq = np.concatenate([b_eq, b_eq[:1], [0.0]])
    if kind == "infeasible" or (kind == "rank-deficient" and seed % 2):
        # one more row that some nonnegative combination of the others
        # contradicts; with float coefficients, the first row negated exactly
        y = rng.integers(0, 3, len(a_ub)).astype(float) if integral else np.zeros(len(a_ub))
        y[0] += 1.0
        a_ub = np.vstack([a_ub, -(y @ a_ub)])
        b_ub = np.append(b_ub, -(y @ b_ub) - 0.25 - rng.integers(0, 4))
    if kind == "equality-only":
        return None, None, a_eq, b_eq
    if kind == "inequality-only":
        return a_ub, b_ub, None, None
    return a_ub, b_ub, a_eq, b_eq


def _farkas_holds(system, y):
    a_ub, b_ub, a_eq, b_eq = system
    rows = [(row, b, True) for row, b in zip(a_ub if a_ub is not None else [], b_ub if b_ub is not None else [])]
    rows += [(row, b, False) for row, b in zip(a_eq if a_eq is not None else [], b_eq if b_eq is not None else [])]
    assert len(y) == len(rows)
    n = len(rows[0][0])
    if any(v < 0 for v, (_, _, ub) in zip(y, rows) if ub):
        return False
    combined = [sum(Fraction(v) * Fraction(row[j]) for v, (row, _, _) in zip(y, rows)) for j in range(n)]
    return not any(combined) and sum(Fraction(v) * Fraction(b) for v, (_, b, _) in zip(y, rows)) < 0


def _meets_rows(system, x, tol=1e-9):
    a_ub, b_ub, a_eq, b_eq = system
    ok = True
    if a_ub is not None:
        ok &= bool((a_ub @ x <= b_ub + tol).all())
    if a_eq is not None:
        ok &= bool((np.abs(a_eq @ x - b_eq) <= tol).all())
    return ok


def _assert_sound(system, result):
    if result.status == 0:
        assert result.certificate is None
        assert _meets_rows(system, result.x)
    else:
        assert result.status == 2 and result.x is None
        assert _farkas_holds(system, result.certificate)


def _highs_status(system):
    from scipy.optimize import linprog as highs  # the reference solver, in tests only

    a_ub, b_ub, a_eq, b_eq = system
    n = (a_ub if a_ub is not None else a_eq).shape[1]
    return highs(np.zeros(n), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=[(None, None)] * n, method="highs").status


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1), integral=st.booleans())
def test_every_verdict_agrees_with_highs_and_is_sound(kind, seed, integral):
    system = _system(kind, seed, integral)
    a_ub, b_ub, a_eq, b_eq = system
    result = lp.linprog(A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq)
    assert result.status == _highs_status(system)
    if kind == "infeasible":
        assert result.status == 2
    elif kind in ("feasible", "degenerate", "equality-only", "inequality-only"):
        assert result.status == 0
    _assert_sound(system, result)


@pytest.mark.parametrize("name", sorted(TOY))
def test_the_toy_bit_searches_agree_with_highs(name):
    kw = TOY[name]
    system = (kw["A_ub"], kw["b_ub"], kw["A_eq"], kw["b_eq"])
    result = lp.linprog(**kw)
    assert result.success == TOY_FEASIBLE[name]
    assert result.status == _highs_status(system)
    _assert_sound(system, result)


def _tampered(monkeypatch, change):
    real = lp._phase_one

    def corrupted(a, b, n_ub):
        feasible, basis = real(a, b, n_ub)
        return change(feasible, list(basis))

    monkeypatch.setattr(lp, "_phase_one", corrupted)


@pytest.mark.parametrize("name", sorted(TOY))
def test_a_flipped_float_verdict_raises_naming_the_check(name, monkeypatch):
    _tampered(monkeypatch, lambda feasible, basis: (not feasible, basis))
    check = "Farkas check" if TOY_FEASIBLE[name] else "witness check"
    with pytest.raises(NumericConsistencyError, match=check):
        lp.linprog(**TOY[name])


@pytest.mark.parametrize("name", sorted(TOY))
def test_a_repeated_basis_column_raises_the_basis_check(name, monkeypatch):
    _tampered(monkeypatch, lambda feasible, basis: (feasible, basis[:1] * 2 + basis[2:]))
    with pytest.raises(NumericConsistencyError, match="basis check"):
        lp.linprog(**TOY[name])


@pytest.mark.parametrize("name", sorted(TOY))
def test_no_replaced_basis_column_gives_a_wrong_verdict(name, monkeypatch):
    kw = TOY[name]
    system = (kw["A_ub"], kw["b_ub"], kw["A_eq"], kw["b_eq"])
    real = lp._phase_one
    m = len(kw["b_ub"]) + (0 if kw["b_eq"] is None else len(kw["b_eq"]))
    n = kw["A_ub"].shape[1]
    raised = kept = 0
    for row in range(m):
        for column in range(n + 2 * m):

            def change(a, b, n_ub, row=row, column=column):
                feasible, basis = real(a, b, n_ub)
                basis = list(basis)
                basis[row] = column
                return feasible, basis

            monkeypatch.setattr(lp, "_phase_one", change)
            try:
                result = lp.linprog(**kw)
            except NumericConsistencyError as err:
                assert str(err).startswith(("basis check", "witness check", "Farkas check"))
                raised += 1
                continue
            assert result.success == TOY_FEASIBLE[name]
            _assert_sound(system, result)
            kept += 1
    assert raised > 0 and kept > 0  # the real basis, at least, is kept


def test_a_flipped_verdict_reaches_the_effect_search_as_an_error_not_a_no_go(monkeypatch):
    _tampered(monkeypatch, lambda feasible, basis: (not feasible, basis))
    for name in ("epistemic", "ontic"):
        m, enc, s_in, _ = getattr(ifr, f"spekkens_{name}_dj_instruments")()
        for strict in (True, False):
            with pytest.raises(NumericConsistencyError, match="Farkas check|witness check"):
                ifr.find_distinguishing_effect(m, enc, s_in, strict)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"A_ub": np.eye(2)}, "A_ub and b_ub must be given together"),
        ({"b_eq": np.ones(2)}, "A_eq and b_eq must be given together"),
        ({"A_ub": np.eye(2), "b_ub": np.ones(3)}, r"A_ub must be \(rows, variables\)"),
        ({"A_ub": np.ones(2), "b_ub": np.ones(2)}, r"A_ub must be \(rows, variables\)"),
        ({"A_eq": np.array([[np.nan, 1.0]]), "b_eq": np.ones(1)}, "A_eq and b_eq must be finite"),
        ({"A_ub": np.eye(2), "b_ub": np.array([1.0, np.inf])}, "A_ub and b_ub must be finite"),
        ({"A_ub": np.eye(2), "b_ub": np.ones(2), "A_eq": np.eye(3), "b_eq": np.ones(3)}, "same variables"),
        ({}, "at least one row"),
    ],
    ids=["ub-without-b", "eq-without-A", "short-b", "vector-A", "nan", "inf", "variables", "empty"],
)
def test_malformed_input_is_refused_by_name(kwargs, message):
    with pytest.raises(ValueError, match=message):
        lp.linprog(**kwargs)


def test_a_system_infeasible_by_less_than_the_float_tolerance_is_not_reported_feasible():
    # x <= 1 and x >= 1 + 2**-52: the float phase sees a zero objective, the exact check does not
    with pytest.raises(NumericConsistencyError, match="witness check"):
        lp.linprog(A_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([1.0, -(1.0 + 2.0**-52)]))
    assert lp.linprog(A_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([1.0, -1.0])).x.tolist() == [1.0]
