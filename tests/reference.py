"""Reference oracles and samplers the tests share.

Each oracle computes, from a closed form, what a library predicate or
representation decides operationally: the tests compare the two.  None of
this is library code; nothing under ``src/`` calls it.
"""

import numpy as np

from gptifer.core import PROBABILITY_FLOOR, DiagonalMap, Effect, GptState, LinearMap, VectorTheory, apply, near_zero, probability
from gptifer.interferometer import OracleSpec, build_oracle, sign_encoding
from gptifer.quaternion import QuatMatrix, Quaternion, _conj, _hamilton_entrywise, _hamilton_matmul
from gptifer.theories import QuaternionicTheory, embed_rotation, random_rotation
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


def random_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of U(N) via QR of a complex Gaussian matrix."""
    Z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))[None, :]


# -- per-state predicates on dense maps ----------------------------------------------
#
# The operational definitions that the exact relabeling predicates are
# compared against: the map as a dense matrix, applied to one state at a time.


def dense(T) -> LinearMap:
    """``T`` as a dense map of the same matrix, acting by matrix product."""
    return LinearMap(T.matrix, T.name)


def reference_is_phase_operation(m, T) -> bool:
    tol = max(m.atol, PROBABILITY_FLOOR)
    bp = m.branch_probabilities
    return all(near_zero(bp(m.apply(dense(T), s)) - bp(s), tol) for s in m.spanning_states)


def reference_is_branch_local(m, T, branch: int) -> bool:
    return all(m.states_close(m.apply(dense(T), s), s) for s in m.branch_local_probes(branch))


def reference_is_identity_map(m, T) -> bool:
    return near_zero(T.matrix - np.eye(m.state_dim), m.atol)


def reference_maps_commute(m, a, b) -> bool:
    ab = LinearMap(a.matrix @ b.matrix)
    ba = LinearMap(b.matrix @ a.matrix)
    return all(m.states_close(apply(ab, s), apply(ba, s)) for s in m.spanning_states)


# -- validity of maps and effects -------------------------------------------------


def preserves_statespace(m, T) -> bool:
    """Whether ``T`` maps the state space of ``m`` into itself.

    Checked on the spanning set: membership of every image, plus
    preservation of the branch-measurement normalization.
    """
    tol = max(m.atol, PROBABILITY_FLOOR)
    for s in m.spanning_states:
        out = m.apply(T, s)
        if not m.contains(out):
            return False
        if not near_zero(m.branch_probabilities(out).sum() - m.branch_probabilities(s).sum(), tol):
            return False
    return True


def is_valid_effect(m, e: Effect) -> bool:
    """Whether ``e`` assigns probabilities within [0, 1] on all of ``m``.

    Decided on the extreme points, so this needs a polytope theory; round
    state spaces check their designated effects analytically in tests.
    """
    if not isinstance(m, VectorTheory) or m.extremal_states is None:
        raise ValueError("effect validity needs a theory with listed extreme points")
    tol = max(m.atol, PROBABILITY_FLOOR)
    return all(-tol <= probability(e, v) <= 1.0 + tol for v in m.extremal_states)


# -- ball rotations --------------------------------------------------------------


def random_ball_rotation(d: int, rng: np.random.Generator) -> LinearMap:
    """Random SO(d) rotation of the d-ball, embedded in the probability layout."""
    return embed_rotation(random_rotation(d, rng))


def reference_embed_rotation(R: np.ndarray) -> np.ndarray:
    """The matrix of ``embed_rotation(R)``, built entry by entry in the
    order of the original double loop."""
    R = np.asarray(R, dtype=float)
    d = R.shape[0]
    M = np.zeros((2 * d, 2 * d))
    offsets = 0.5 * (1.0 - R.sum(axis=1))
    for i in range(d):
        for j in range(d):
            M[2 * i, 2 * j] += R[i, j]
        M[2 * i, 2 * i] += offsets[i]
        M[2 * i, 2 * i + 1] += offsets[i]
        M[2 * i + 1] = -M[2 * i]
        M[2 * i + 1, 2 * i] += 1.0
        M[2 * i + 1, 2 * i + 1] += 1.0
    return M


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


def quat_diagonal(*entries: Quaternion) -> DiagonalMap:
    """The diagonal map with these quaternion entries."""
    return DiagonalMap(np.transpose([q.components() for q in entries]))


def quat_pure(*entries: Quaternion) -> QuatMatrix:
    """|psi><psi| of the quaternionic column psi with these entries."""
    psi = QuatMatrix(np.transpose([q.components() for q in entries])[:, :, None])
    return psi @ psi.dagger()


def random_pure_quaternionic_state(N: int, rng: np.random.Generator) -> QuatMatrix:
    comps = rng.standard_normal((4, N, 1))
    psi = QuatMatrix(comps / np.sqrt(np.sum(comps**2)))
    return psi @ psi.dagger()


def is_symplectic(S: QuatMatrix, atol: float = 1e-9) -> bool:
    """Whether ``S @ S.dagger()`` is the identity: membership in Sp(N)."""
    m = QuaternionicTheory(S.shape[0])
    return near_zero((S @ S.dagger()).comps - m.dense(m.identity_map()).comps, atol)


def _vec_inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # sum_i conj(u_i) v_i over (4, n) component arrays, as a (4, 1) column
    return _hamilton_matmul(_conj(u)[:, None, :], v[:, :, None])[:, 0]


def random_symplectic(n: int, rng: np.random.Generator) -> QuatMatrix:
    """Random symplectic matrix via quaternionic Gram-Schmidt on Gaussians."""
    cols = [rng.standard_normal((4, n)) for _ in range(n)]
    ortho: list[np.ndarray] = []
    for v in cols:
        w = v
        for u in ortho:
            w = w - _hamilton_entrywise(u, _vec_inner(u, w))
        norm = np.sqrt(np.sum(w**2))
        if norm < 1e-12:
            raise RuntimeError("Gram-Schmidt degenerated; retry with another seed")
        ortho.append(w / norm)
    comps = np.stack(ortho, axis=2)
    return QuatMatrix(comps)


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


# -- search ------------------------------------------------------------------------


def grover_density_curve(m, marked: int, max_iterations: int) -> list[float]:
    """``grover_success_curve`` with the state evolved as a density matrix:
    the same oracles, round and read-out, at O(N^3) per round."""
    N = m.n_branches
    n = N.bit_length() - 1
    enc = sign_encoding(m)
    oracle = build_oracle(m, OracleSpec(n, tuple(1 if x == marked else 0 for x in range(N))), enc)
    flip0 = build_oracle(m, OracleSpec(n, tuple(1 if x == 0 else 0 for x in range(N))), enc)
    B = m.beamsplitter
    step = m.compose(B, m.compose(flip0, m.compose(B, oracle)))
    state = m.apply(B, m.branch_state(0))
    z_marked = m.branch_state(marked)
    curve = [m.probability(z_marked, state)]
    for _ in range(max_iterations):
        state = m.apply(step, state)
        curve.append(m.probability(z_marked, state))
    return curve
