"""Uncertainty relations for two-level systems and ball-shaped state spaces.

The product of variances of two observables is bounded below by commutator
and anti-commutator terms; specializing to Pauli measurements on a qubit
turns the bound into the unit-sphere constraint on the expectation vector,
and the same quadratic constraint generalizes to d binary measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ATOL, GptState, near_zero

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class PauliExpectations:
    """Expectation values of the three Pauli measurements.

    Fields are floats for one state and float arrays for a stack of states.
    """

    ex: float | np.ndarray
    ey: float | np.ndarray
    ez: float | np.ndarray


def _require_hermitian(M: np.ndarray, label: str) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
        if M.shape != (2, 2) or not near_zero(M - M.conj().T, DEFAULT_ATOL):
            raise ValueError(f"{label} must be a Hermitian 2x2 matrix")
    return M


def _trace(M: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(M rho) for one state, or for each state of an (n, 2, 2) stack."""
    return np.einsum("ij,...ji->...", M, rho)


def _expval(M: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.real(_trace(M, rho))


def _floats(*values) -> tuple:
    # one state gives Python floats, a stack gives float arrays
    return tuple(float(v) if np.ndim(v) == 0 else v for v in values)


def _variance_product(rho: np.ndarray, X: np.ndarray, Y: np.ndarray):
    ex = _expval(X, rho)
    ey = _expval(Y, rho)
    var_x = _expval(X @ X, rho) - ex**2
    var_y = _expval(Y @ Y, rho) - ey**2
    return ex, ey, var_x * var_y


def pauli_expectations(rho: np.ndarray) -> PauliExpectations:
    """Pauli expectation triple of a qubit density matrix or a stack of them."""
    rho = np.asarray(rho, dtype=complex)
    return PauliExpectations(
        *_floats(_expval(PAULI_X, rho), _expval(PAULI_Y, rho), _expval(PAULI_Z, rho))
    )


def schrodinger_bound(rho: np.ndarray, X: np.ndarray, Y: np.ndarray) -> tuple:
    """Both sides of the variance-product bound with the anti-commutator term.

    Returns ``(lhs, rhs)`` where
    ``lhs = |<[X,Y]>|^2 / 4 + |<{X,Y}> - 2<X><Y>|^2 / 4`` and
    ``rhs = Var(X) * Var(Y)``.  Nothing is asserted; callers compare.
    ``rho`` is one (2, 2) state, giving two floats, or an (n, 2, 2) stack,
    giving two float arrays of length n.
    """
    X = _require_hermitian(X, "X")
    Y = _require_hermitian(Y, "Y")
    rho = np.asarray(rho, dtype=complex)
    ex, ey, rhs = _variance_product(rho, X, Y)
    comm = _trace(X @ Y - Y @ X, rho)
    anti = _trace(X @ Y + Y @ X, rho)
    lhs = 0.25 * np.abs(comm) ** 2 + 0.25 * np.abs(anti - 2.0 * ex * ey) ** 2
    return _floats(lhs, rhs)


def robertson_bound(rho: np.ndarray, X: np.ndarray, Y: np.ndarray) -> tuple:
    """Commutator-only variant; its lhs never exceeds the anti-commutator one.

    Takes one state or a stack, like :func:`schrodinger_bound`.
    """
    X = _require_hermitian(X, "X")
    Y = _require_hermitian(Y, "Y")
    rho = np.asarray(rho, dtype=complex)
    _, _, rhs = _variance_product(rho, X, Y)
    lhs = 0.25 * np.abs(_trace(X @ Y - Y @ X, rho)) ** 2
    return _floats(lhs, rhs)


def bloch_norm(p: PauliExpectations) -> float | np.ndarray:
    """Squared length of the expectation vector; valid qubit states stay <= 1."""
    return p.ex**2 + p.ey**2 + p.ez**2


def dball_bound(s: GptState, d: int) -> float:
    """Left-hand side sum_i (P(X_i = 1) - 1/2)^2 of the ball constraint.

    The state must use the d-ball layout of d binary blocks; callers compare
    the returned sum to 1/4.
    """
    if s.dim != 2 * d:
        raise ValueError(f"state dimension {s.dim} does not match {d} binary measurements")
    plus = s.probs[0::2]
    return float(np.sum((plus - 0.5) ** 2))


def random_pure_qubit_states(count: int, rng: np.random.Generator) -> np.ndarray:
    """Density matrices of normalized standard-Gaussian complex 2-vectors."""
    raw = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return np.einsum("ni,nj->nij", raw, raw.conj())
