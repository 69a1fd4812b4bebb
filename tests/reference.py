"""Reference oracles and samplers the tests share.

Each oracle computes, from a closed form, what a library predicate or
representation decides operationally: the tests compare the two.  None of
this is library code; nothing under ``src/`` calls it.
"""

import numpy as np

from gptifer.core import GptState
from gptifer.quaternion import QuatKet, QuatMatrix, Quaternion
from gptifer.theories import QuaternionicTheory
from gptifer.uncertainty import PAULI_X, PAULI_Y, PAULI_Z


# -- quantum forms -------------------------------------------------------------


def quantum_phase_form_check(U: np.ndarray, atol: float = 1e-9) -> bool:
    """Whether a unitary is diagonal in the branch basis."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(U.conj().T @ U, np.eye(U.shape[0]), rtol=0.0, atol=atol):
        raise ValueError("matrix is not unitary")
    return bool(np.allclose(U, np.diag(np.diagonal(U)), rtol=0.0, atol=atol))


def quantum_branch_local_form_check(U: np.ndarray, branch: int, atol: float = 1e-9) -> bool:
    """Whether a unitary is a phase on one branch times a global phase.

    The form is diagonal with all entries away from ``branch`` equal, i.e.
    exp(i Phi) (exp(i phi) |branch><branch| + sum of the other projectors).
    """
    U = np.asarray(U, dtype=complex)
    if not quantum_phase_form_check(U, atol=atol):
        return False
    d = np.diagonal(U)
    remote = d[[j for j in range(U.shape[0]) if j != branch]]
    return bool(np.allclose(remote, remote[0], rtol=0.0, atol=atol))


# -- qubit states in the six-entry layout --------------------------------------


def qubit_state_from_density(rho: np.ndarray) -> GptState:
    """Six-entry probability vector of a qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    vec = []
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        expectation = float(np.real(np.trace(sigma @ rho)))
        vec.extend([(1.0 + expectation) / 2.0, (1.0 - expectation) / 2.0])
    return GptState(vec)


def qubit_state_from_ket(psi) -> GptState:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return qubit_state_from_density(np.outer(psi, psi.conj()))


# -- quaternionic states ---------------------------------------------------------


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    comps = rng.standard_normal(4)
    return Quaternion(*(comps / np.linalg.norm(comps)))


def random_pure_quaternionic_state(N: int, rng: np.random.Generator) -> QuatMatrix:
    comps = rng.standard_normal((4, N))
    comps /= np.sqrt(np.sum(comps**2))
    return QuatKet(comps).density()


def quaternionic_two_level_gpt_state(rho: QuatMatrix) -> GptState:
    """Ten-entry fiducial probability vector of a two-level quaternionic state.

    Five binary measurements: four phase directions (1, i, j, k) of the
    off-diagonal, then the branch measurement last, matching the layout of
    ``dball_theory(5)``.  Probabilities are P = 1/2 + Re(rho_01 * q) for each
    phase direction q.
    """
    if rho.shape != (2, 2):
        raise ValueError("expected a 2x2 quaternionic state")
    off = Quaternion(*rho.comps[:, 0, 1])
    entries = []
    for q in QuaternionicTheory.PHASES:
        p_plus = 0.5 + (off * Quaternion(*q)).a
        entries.extend([p_plus, 1.0 - p_plus])
    p_z = rho.comps[0, 0, 0]
    entries.extend([p_z, 1.0 - p_z])
    return GptState(entries)
