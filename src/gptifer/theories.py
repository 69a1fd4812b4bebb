"""Constructors for the concrete theories handled by this package.

Probability-vector theories (classical bits, gbits, balls, the toy-bit
models) come with explicit vertex or pole spanning sets and exact or
float-tolerance arithmetic as appropriate.  The many-level quantum and
quaternionic theories are backed by density matrices with probabilities
computed on demand; their branch statistics and interference statistics are
exposed as a probability vector when needed.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_ATOL,
    Effect,
    FiniteGroup,
    GptState,
    LinearMap,
    ParametricFamily,
    ParametricGroup,
    TheoryModel,
    VectorTheory,
    is_diagonal,
    valid_layout,
)
from .quaternion import (
    NumericConsistencyError,
    QuatKet,
    QuatMatrix,
    Quaternion,
    _hamilton_entrywise,
    conjugate_state,
    is_symplectic,
    qmul,
    random_symplectic,
    random_unit_quaternion,
    real_trace_prob,
)
from .uncertainty import PAULI_X, PAULI_Y, PAULI_Z


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _coordinate_effects(dim: int, indices) -> tuple[Effect, ...]:
    out = []
    for idx in indices:
        w = np.zeros(dim)
        w[idx] = 1.0
        out.append(Effect(w))
    return tuple(out)


def hadamard_matrix(n_qubits: int) -> np.ndarray:
    """Real Hadamard transform on 2**n branches (its own inverse)."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    H = np.array([[1.0]])
    for _ in range(n_qubits):
        H = np.kron(H, h1)
    return H


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of SO(d) via QR of a Gaussian matrix."""
    if d == 1:
        return np.array([[1.0]])
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))[None, :]
    if np.linalg.det(Q) < 0.0:
        Q = Q.copy()
        Q[:, 0] = -Q[:, 0]
    return Q


def embed_rotation(R: np.ndarray, name: str = "") -> LinearMap:
    """Lift a rotation of the centered coordinates p_i - 1/2 to the
    redundant (P(+1), P(-1)) probability layout.

    The affine offset is encoded against each block's own normalization so
    the identity rotation embeds to the identity matrix exactly.
    """
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
    return LinearMap(M, name)


def extract_rotation(T: LinearMap) -> np.ndarray | None:
    """Linear map induced on the centered coordinates by T's action on states.

    Works from the images of the center and the positive poles, so any
    matrix that acts like a coordinate rotation on the normalized states is
    recognized, whichever linear extension off that affine hull it carries.
    Returns None when T does not even preserve the normalized hull or move
    the center rigidly.
    """
    M = T.matrix
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        return None
    d = M.shape[0] // 2
    center = np.full(2 * d, 0.5)
    img_center = M @ center
    basis_images = [img_center]
    R = np.empty((d, d))
    for j in range(d):
        pole = center.copy()
        pole[2 * j] = 1.0
        pole[2 * j + 1] = 0.0
        img = M @ pole
        basis_images.append(img)
        R[:, j] = 2.0 * (img[0::2] - img_center[0::2])
    for img in basis_images:
        blocks = img.reshape(d, 2).sum(axis=1)
        if not np.allclose(blocks, 1.0, rtol=0.0, atol=1e-9):
            return None
    if not np.allclose(img_center, center, rtol=0.0, atol=1e-9):
        return None
    return R


def _is_embedded_rotation(T: LinearMap, d: int, fixed_last: bool = False) -> bool:
    R = extract_rotation(T)
    if R is None or R.shape[0] != d:
        return False
    if not np.allclose(R.T @ R, np.eye(d), rtol=0.0, atol=1e-9):
        return False
    if abs(np.linalg.det(R) - 1.0) > 1e-9:
        return False
    if fixed_last:
        last = np.zeros(d)
        last[-1] = 1.0
        if not (np.allclose(R[-1], last, atol=1e-9) and np.allclose(R[:, -1], last, atol=1e-9)):
            return False
    return True


# ---------------------------------------------------------------------------
# Classical theory: a simplex with permutation dynamics
# ---------------------------------------------------------------------------


def _permutation_map(perm: tuple[int, ...]) -> LinearMap:
    # one-line notation on points 1..N; delta_i maps to delta_perm(i)
    n = len(perm)
    M = np.zeros((n, n))
    for src, dst in enumerate(perm):
        M[dst - 1, src] = 1.0
    if perm == tuple(range(1, n + 1)):
        name = "identity"
    else:
        name = "".join(str(p) for p in perm) if n <= 9 else ",".join(str(p) for p in perm)
    return LinearMap(M, name)


def classical_theory(N: int) -> TheoryModel:
    """N-outcome classical system: the simplex with permutation dynamics.

    The full set of normalization-preserving maps would be the stochastic
    matrices; the reversible ones are exactly the permutations, and only
    those enter the group.
    """
    if N < 2:
        raise ValueError("a classical branch system needs N >= 2 outcomes")
    layout = (("Z", N),)
    deltas = tuple(GptState(np.eye(N)[i]) for i in range(N))
    elements = tuple(_permutation_map(p) for p in itertools.permutations(range(1, N + 1)))
    faces = tuple(
        tuple(deltas[j] for j in range(N) if j != i) for i in range(N)
    )
    return VectorTheory(
        name="classical",
        fiducial_layout=layout,
        z_effects=_coordinate_effects(N, range(N)),
        spanning_states=deltas,
        group=FiniteGroup(elements),
        contains_fn=lambda s: valid_layout(s, layout, 0.0),
        face_state_sets=faces,
        atol=0.0,
        extremal_states=deltas,
    )


# ---------------------------------------------------------------------------
# Gbits: hypercube state spaces with relabeling dynamics
# ---------------------------------------------------------------------------


def _gbit_labels(d: int) -> tuple[str, ...]:
    if d == 2:
        return ("Z", "X")
    if d == 3:
        return ("Z", "X", "Y")
    return ("Z",) + tuple(f"X{i}" for i in range(1, d))


def _signed_perm_map(labels, sigma, flips) -> LinearMap:
    # new measurement i reads old measurement sigma[i], outcomes flipped
    # when flips[i] is set
    d = len(labels)
    M = np.zeros((2 * d, 2 * d))
    for i in range(d):
        for outcome in (0, 1):
            M[2 * i + outcome, 2 * sigma[i] + (outcome ^ flips[i])] = 1.0
    parts = []
    if sigma != tuple(range(d)):
        parts.append("perm(" + "".join(labels[sigma[i]] for i in range(d)) + ")")
    parts.extend(f"{labels[i]}-flip" for i in range(d) if flips[i])
    name = "+".join(parts) if parts else "identity"
    return LinearMap(M, name)


def gbit_theory(d: int) -> TheoryModel:
    """Hypercube over d binary measurements; no uncertainty constraint.

    The branch measurement is the first one (Z); the reversible group is
    every relabeling of measurements and outcomes.
    """
    if d < 2:
        raise ValueError("a gbit needs at least two binary measurements")
    labels = _gbit_labels(d)
    layout = tuple((lbl, 2) for lbl in labels)
    vertices = []
    for outcomes in itertools.product((0, 1), repeat=d):
        vec = np.zeros(2 * d)
        for i, o in enumerate(outcomes):
            vec[2 * i + o] = 1.0
        vertices.append(GptState(vec))
    vertices = tuple(vertices)
    elements = tuple(
        _signed_perm_map(labels, sigma, flips)
        for sigma in itertools.permutations(range(d))
        for flips in itertools.product((0, 1), repeat=d)
    )
    faces = (
        tuple(v for v in vertices if v.probs[0] == 0.0),
        tuple(v for v in vertices if v.probs[1] == 0.0),
    )
    return VectorTheory(
        name=f"gbit{d}",
        fiducial_layout=layout,
        z_effects=_coordinate_effects(2 * d, (0, 1)),
        spanning_states=vertices,
        group=FiniteGroup(elements),
        contains_fn=lambda s: valid_layout(s, layout, 0.0),
        face_state_sets=faces,
        atol=0.0,
        extremal_states=vertices,
    )


# ---------------------------------------------------------------------------
# Balls: quadratic uncertainty over d binary measurements
# ---------------------------------------------------------------------------


def _ball_states(d: int) -> tuple[GptState, ...]:
    center = GptState(np.full(2 * d, 0.5))
    states = [center]
    for i in range(d):
        for outcome in (0, 1):
            vec = np.full(2 * d, 0.5)
            vec[2 * i] = 1.0 - outcome
            vec[2 * i + 1] = float(outcome)
            states.append(GptState(vec))
    return tuple(states)


def _ball_contains(s: GptState, layout, atol: float) -> bool:
    if not valid_layout(s, layout, atol):
        return False
    plus = s.probs[0::2]
    return float(np.sum((plus - 0.5) ** 2)) <= 0.25 + atol


def _ball_theory(name: str, labels: tuple[str, ...]) -> TheoryModel:
    d = len(labels)
    layout = tuple((lbl, 2) for lbl in labels)
    spanning = _ball_states(d)

    def sample_rotation(rng):
        return embed_rotation(random_rotation(d, rng))

    def sample_phase(rng):
        R = np.eye(d)
        R[: d - 1, : d - 1] = random_rotation(d - 1, rng)
        return embed_rotation(R)

    group = ParametricGroup(
        group=ParametricFamily(
            f"SO({d}) rotations of the {d}-ball",
            lambda T: _is_embedded_rotation(T, d),
            sample_rotation,
        ),
        phase_family=ParametricFamily(
            f"SO({d - 1}) rotations fixing the branch axis",
            lambda T: _is_embedded_rotation(T, d, fixed_last=True),
            sample_phase,
        ),
        branch_family=lambda branch: ParametricFamily(
            f"SO({d - 1}) rotations fixing the branch axis (branch {branch})",
            lambda T: _is_embedded_rotation(T, d, fixed_last=True),
            sample_phase,
        ),
    )
    # zero support on a branch pins the opposite pole; all other
    # measurements are then uniformly random, so each face is one state
    lower_pole = np.full(2 * d, 0.5)
    lower_pole[2 * (d - 1)] = 0.0
    lower_pole[2 * (d - 1) + 1] = 1.0
    upper_pole = np.full(2 * d, 0.5)
    upper_pole[2 * (d - 1)] = 1.0
    upper_pole[2 * (d - 1) + 1] = 0.0
    faces = ((GptState(lower_pole),), (GptState(upper_pole),))
    return VectorTheory(
        name=name,
        fiducial_layout=layout,
        z_effects=_coordinate_effects(2 * d, (2 * (d - 1), 2 * (d - 1) + 1)),
        spanning_states=spanning,
        group=group,
        contains_fn=lambda s: _ball_contains(s, layout, DEFAULT_ATOL),
        face_state_sets=faces,
        atol=DEFAULT_ATOL,
    )


def dball_theory(d: int) -> TheoryModel:
    """Ball-shaped state space over d binary measurements.

    The branch measurement is the last one; the phase group with respect to
    it is the rotation group of the remaining d-1 coordinates.  d=3 is the
    qubit state space; d=5 the two-level quaternionic one.
    """
    if d < 2:
        raise ValueError("a ball theory needs at least two measurements")
    return _ball_theory(f"dball{d}", tuple(f"X{i}" for i in range(1, d + 1)))


def qubit_theory() -> TheoryModel:
    """Qubit in the six-entry probability layout (X, Y, Z blocks)."""
    return _ball_theory("qubit", ("X", "Y", "Z"))


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


def qubit_state_from_expectations(ex: float, ey: float, ez: float) -> GptState:
    return GptState(
        [
            (1.0 + ex) / 2.0,
            (1.0 - ex) / 2.0,
            (1.0 + ey) / 2.0,
            (1.0 - ey) / 2.0,
            (1.0 + ez) / 2.0,
            (1.0 - ez) / 2.0,
        ]
    )


# ---------------------------------------------------------------------------
# The four-point toy bit: hidden-variable tetrahedron and its restriction
# ---------------------------------------------------------------------------

# Two-element subsets of the four hidden points, grouped into the three
# complementary pairs read as the +1/-1 outcomes of X, Y and Z.  The first
# subset of each pair carries the +1 label.
SPEKKENS_SUBSETS: tuple[frozenset, ...] = (
    frozenset({1, 3}),  # X = +1
    frozenset({2, 4}),  # X = -1
    frozenset({1, 4}),  # Y = +1
    frozenset({2, 3}),  # Y = -1
    frozenset({1, 2}),  # Z = +1
    frozenset({3, 4}),  # Z = -1
)

_SPEKKENS_LAYOUT = (("X", 2), ("Y", 2), ("Z", 2))


def spekkens_permutation_map(perm: tuple[int, int, int, int]) -> LinearMap:
    """Statistics-vector action of a permutation of the four hidden points.

    A permutation of points permutes the six two-element subsets, so the
    induced map is an exact 0/1 permutation matrix on the six statistics.
    """
    inv = [0] * 5
    for src, dst in enumerate(perm, start=1):
        inv[dst] = src
    M = np.zeros((6, 6))
    for row, subset in enumerate(SPEKKENS_SUBSETS):
        preimage = frozenset(inv[p] for p in subset)
        M[row, SPEKKENS_SUBSETS.index(preimage)] = 1.0
    return LinearMap(M, "".join(str(p) for p in perm))


def spekkens_ontic_statistics(point: int) -> GptState:
    """Deterministic six-entry statistics of one hidden point."""
    return GptState([1.0 if point in subset else 0.0 for subset in SPEKKENS_SUBSETS])


def spekkens_epistemic_statistics(support: frozenset) -> GptState:
    """Statistics of the uniform two-point state with the given support."""
    if len(support) != 2 or not support <= {1, 2, 3, 4}:
        raise ValueError("an epistemic state is a two-element subset of the four points")
    return GptState([len(support & subset) / 2.0 for subset in SPEKKENS_SUBSETS])


def _spekkens_xyz(s: GptState) -> tuple[float, float, float]:
    p = s.probs
    return (p[0] - p[1], p[2] - p[3], p[4] - p[5])


def _spekkens_group() -> FiniteGroup:
    return FiniteGroup(
        tuple(spekkens_permutation_map(p) for p in itertools.permutations((1, 2, 3, 4)))
    )


def spekkens_ontic_theory() -> TheoryModel:
    """Hidden-variable tetrahedron: convex mixtures of the four points."""
    vertices = tuple(spekkens_ontic_statistics(p) for p in (1, 2, 3, 4))

    def contains(s: GptState) -> bool:
        if not valid_layout(s, _SPEKKENS_LAYOUT, 0.0):
            return False
        x, y, z = _spekkens_xyz(s)
        # weights of the four points recovered from the statistics
        weights = (
            (1.0 + x + y + z) / 4.0,
            (1.0 - x - y + z) / 4.0,
            (1.0 + x - y - z) / 4.0,
            (1.0 - x + y - z) / 4.0,
        )
        return all(w >= -1e-12 for w in weights)

    faces = (
        tuple(vertices[p - 1] for p in (3, 4)),  # no support on Z=+1 = {1,2}
        tuple(vertices[p - 1] for p in (1, 2)),
    )
    return VectorTheory(
        name="spekkens-ontic",
        fiducial_layout=_SPEKKENS_LAYOUT,
        z_effects=_coordinate_effects(6, (4, 5)),
        spanning_states=vertices,
        group=_spekkens_group(),
        contains_fn=contains,
        face_state_sets=faces,
        atol=0.0,
        extremal_states=vertices,
    )


def spekkens_epistemic_theory() -> TheoryModel:
    """Knowledge-restricted toy bit: the octahedron of two-point states."""
    vertices = tuple(spekkens_epistemic_statistics(sub) for sub in SPEKKENS_SUBSETS)

    def contains(s: GptState) -> bool:
        if not valid_layout(s, _SPEKKENS_LAYOUT, 0.0):
            return False
        x, y, z = _spekkens_xyz(s)
        return abs(x) + abs(y) + abs(z) <= 1.0 + 1e-12

    faces = (
        (spekkens_epistemic_statistics(frozenset({3, 4})),),
        (spekkens_epistemic_statistics(frozenset({1, 2})),),
    )
    return VectorTheory(
        name="spekkens-epistemic",
        fiducial_layout=_SPEKKENS_LAYOUT,
        z_effects=_coordinate_effects(6, (4, 5)),
        spanning_states=vertices,
        group=_spekkens_group(),
        contains_fn=contains,
        face_state_sets=faces,
        atol=0.0,
        extremal_states=vertices,
    )


# ---------------------------------------------------------------------------
# Many-level quantum theory on density matrices
# ---------------------------------------------------------------------------


class DensityMatrixTheory(TheoryModel):
    """N = 2**n level quantum system; states are density matrices.

    Probabilities are computed on demand from the matrices rather than a
    tomographic vector; :meth:`gpt_vector` exposes the branch statistics and
    the post-beamsplitter interference statistics as a probability vector.
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        N = 2**n_qubits
        self.n_qubits = n_qubits
        self.dim = N
        super().__init__(
            name="quantum",
            fiducial_layout=(("Z", N), ("X", N)),
            n_branches=N,
            group=ParametricGroup(
                group=ParametricFamily(
                    f"unitary group U({N})", self._is_unitary, self._sample_unitary
                ),
                phase_family=ParametricFamily(
                    "branch-diagonal unitaries",
                    self._is_diagonal_unitary,
                    self._sample_diagonal_unitary,
                ),
                branch_family=self._branch_family,
            ),
            atol=DEFAULT_ATOL,
        )
        self.beamsplitter = hadamard_matrix(n_qubits).astype(complex)
        self._z = tuple(self._projector(j) for j in range(N))

    # -- constructors for states -------------------------------------------

    def _projector(self, j: int) -> np.ndarray:
        P = np.zeros((self.dim, self.dim), dtype=complex)
        P[j, j] = 1.0
        return P

    def branch_state(self, j: int) -> np.ndarray:
        return self._projector(j)

    @staticmethod
    def density_from_ket(psi) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return np.outer(psi, psi.conj())

    def uniform_superposition(self) -> np.ndarray:
        return self.density_from_ket(np.full(self.dim, 1.0))

    def _pair_ket(self, j: int, k: int, phase: complex) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[j] = 1.0
        psi[k] = phase
        return psi / np.sqrt(2.0)

    # -- model interface -----------------------------------------------------

    @property
    def z_effects(self):
        return self._z

    @cached_property
    def spanning_states(self):
        # tomographically complete pure-state family: an affine spanning
        # set of the unit-trace Hermitian matrices
        states = [self._projector(j) for j in range(self.dim)]
        for j, k in itertools.combinations(range(self.dim), 2):
            for phase in (1.0, 1.0j):
                states.append(self.density_from_ket(self._pair_ket(j, k, phase)))
        return tuple(states)

    def probability(self, effect, state) -> float:
        t = complex(np.einsum("ij,ji->", effect, state))
        if abs(t.imag) > self.atol:
            raise NumericConsistencyError(
                f"trace has imaginary residue {abs(t.imag):.3e}"
            )
        return float(t.real)

    def apply(self, trans, state):
        return trans @ state @ trans.conj().T

    def contains(self, state) -> bool:
        state = np.asarray(state)
        if state.shape != (self.dim, self.dim):
            raise ValueError("state has the wrong dimension")
        if not np.allclose(state, state.conj().T, rtol=0.0, atol=self.atol):
            return False
        if abs(np.trace(state).real - 1.0) > self.atol:
            return False
        return bool(np.linalg.eigvalsh(state).min() >= -self.atol)

    def face_states(self, branch: int):
        """Pure states affinely spanning all densities with zero row and
        column at ``branch``."""
        others = [j for j in range(self.dim) if j != branch]
        states = [self._projector(j) for j in others]
        for j, k in itertools.combinations(others, 2):
            for phase in (1.0, 1.0j):
                states.append(self.density_from_ket(self._pair_ket(j, k, phase)))
        return tuple(states)

    def branch_local_probes(self, branch: int):
        """Two-state probe set equivalent to the full face for unitaries.

        Fixing a zero-support state with distinct spectrum forces the map to
        be branch-diagonal; fixing the uniform superposition of the remote
        branches then forces the remote phases to agree.
        """
        others = [j for j in range(self.dim) if j != branch]
        if len(others) == 1:
            return (self._projector(others[0]),)
        weights = np.arange(1.0, len(others) + 1.0)
        weights /= weights.sum()
        rho_w = np.zeros((self.dim, self.dim), dtype=complex)
        for w, j in zip(weights, others):
            rho_w[j, j] = w
        psi = np.zeros(self.dim, dtype=complex)
        psi[others] = 1.0 / np.sqrt(len(others))
        return (rho_w, self.density_from_ket(psi))

    def states_close(self, a, b) -> bool:
        return bool(np.allclose(a, b, rtol=0.0, atol=self.atol))

    def compose(self, second, first):
        return second @ first

    def identity_map(self):
        return np.eye(self.dim, dtype=complex)

    def is_identity_map(self, trans) -> bool:
        d = np.diagonal(trans)
        return bool(
            is_diagonal(trans, self.atol)
            and np.allclose(d, d[0], rtol=0.0, atol=self.atol)
            and abs(abs(d[0]) - 1.0) <= self.atol
        )

    def maps_commute(self, a, b) -> bool:
        # complex diagonals always commute; otherwise compare the products
        # up to the unobservable global phase
        if is_diagonal(a, self.atol) and is_diagonal(b, self.atol):
            return True
        left = a @ b
        right = b @ a
        t = np.trace(right.conj().T @ left) / self.dim
        # written so that a NaN overlap fails here, before the division
        if not abs(abs(t) - 1.0) <= self.atol:
            return False
        phase = t / abs(t)
        return bool(np.allclose(left, phase * right, rtol=0.0, atol=self.atol))

    # -- group families -------------------------------------------------------

    def _is_unitary(self, U) -> bool:
        return bool(
            np.allclose(U.conj().T @ U, np.eye(self.dim), rtol=0.0, atol=self.atol)
        )

    def _is_diagonal_unitary(self, U) -> bool:
        return self._is_unitary(U) and is_diagonal(U, self.atol)

    def _sample_unitary(self, rng: np.random.Generator) -> np.ndarray:
        Z = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal(
            (self.dim, self.dim)
        )
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R)
        return Q * (d / np.abs(d))[None, :]

    def _sample_diagonal_unitary(self, rng: np.random.Generator) -> np.ndarray:
        return np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, self.dim)))

    def _branch_family(self, branch: int) -> ParametricFamily:
        def contains(U) -> bool:
            if not self._is_diagonal_unitary(U):
                return False
            d = np.diagonal(U)
            remote = d[[j for j in range(self.dim) if j != branch]]
            return bool(np.allclose(remote, remote[0], rtol=0.0, atol=self.atol))

        def sample(rng: np.random.Generator) -> np.ndarray:
            global_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            local_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            d = np.full(self.dim, global_phase, dtype=complex)
            d[branch] *= local_phase
            return np.diag(d)

        return ParametricFamily(
            f"phase on branch {branch} up to a global phase", contains, sample
        )

    # -- derived statistics ---------------------------------------------------

    def gpt_vector(self, state) -> GptState:
        """Branch probabilities plus post-beamsplitter interference
        statistics as one probability vector."""
        B = self.beamsplitter
        mixed = B @ state @ B
        branch = np.real(np.diagonal(state))
        interference = np.real(np.diagonal(mixed))
        return GptState(np.concatenate([branch, interference]))


def quantum_theory(n: int) -> DensityMatrixTheory:
    """Quantum system with 2**n branches, one per length-n bit-string."""
    return DensityMatrixTheory(n)


# ---------------------------------------------------------------------------
# Quaternionic quantum theory
# ---------------------------------------------------------------------------


_QUAT_PHASES = (
    Quaternion(1.0),
    Quaternion(0.0, 1.0),
    Quaternion(0.0, 0.0, 1.0),
    Quaternion(0.0, 0.0, 0.0, 1.0),
)


class QuaternionicTheory(TheoryModel):
    """N-level quaternionic quantum system with symplectic dynamics."""

    def __init__(self, N: int):
        if N < 2:
            raise ValueError("need at least two levels")
        self.dim = N
        super().__init__(
            name="quaternionic",
            fiducial_layout=(("Z", N), ("X", N)),
            n_branches=N,
            group=ParametricGroup(
                group=ParametricFamily(
                    f"symplectic group Sp({N})",
                    lambda S: is_symplectic(S, atol=self.atol),
                    lambda rng: random_symplectic(N, rng),
                ),
                phase_family=ParametricFamily(
                    "diagonal unit-quaternion matrices",
                    self._is_diagonal_unit,
                    self._sample_diagonal_unit,
                ),
                branch_family=self._branch_family,
            ),
            atol=DEFAULT_ATOL,
        )
        n_qubits = int(round(np.log2(N)))
        if 2**n_qubits == N:
            self.beamsplitter = QuatMatrix.from_real(hadamard_matrix(n_qubits))
        self._z = tuple(
            QuatMatrix.from_real(np.diag(np.eye(N)[j])) for j in range(N)
        )

    # -- state constructors ----------------------------------------------------

    def branch_state(self, j: int) -> QuatMatrix:
        return self._z[j]

    def _pair_ket(self, j: int, k: int, phase: Quaternion) -> QuatKet:
        entries = [Quaternion() for _ in range(self.dim)]
        entries[j] = Quaternion(1.0 / np.sqrt(2.0))
        entries[k] = phase * (1.0 / np.sqrt(2.0))
        return QuatKet.from_quaternions(entries)

    def uniform_superposition(self) -> QuatMatrix:
        return QuatKet.uniform(self.dim).density()

    # -- model interface ---------------------------------------------------------

    @property
    def z_effects(self):
        return self._z

    @cached_property
    def spanning_states(self):
        states = [self._z[j] for j in range(self.dim)]
        for j, k in itertools.combinations(range(self.dim), 2):
            for phase in _QUAT_PHASES:
                states.append(self._pair_ket(j, k, phase).density())
        return tuple(states)

    def probability(self, effect, state) -> float:
        return real_trace_prob(effect, state, atol=self.atol)

    def apply(self, trans, state):
        return conjugate_state(trans, state)

    def contains(self, state: QuatMatrix) -> bool:
        if state.shape != (self.dim, self.dim):
            raise ValueError("state has the wrong dimension")
        if not state.is_hermitian(atol=self.atol):
            return False
        if abs(np.trace(state.comps[0]) - 1.0) > self.atol:
            return False
        return bool(np.linalg.eigvalsh(state.complex_adjoint()).min() >= -self.atol)

    def face_states(self, branch: int):
        others = [j for j in range(self.dim) if j != branch]
        states = [self._z[j] for j in others]
        for j, k in itertools.combinations(others, 2):
            for phase in _QUAT_PHASES:
                states.append(self._pair_ket(j, k, phase).density())
        return tuple(states)

    def branch_local_probes(self, branch: int):
        """Four-state probe set equivalent to the full face for symplectics.

        A distinct-spectrum zero-support state forces diagonality; the
        uniform remote superposition forces a common remote entry; the i-
        and j-phased pair states force that entry to be real.
        """
        others = [j for j in range(self.dim) if j != branch]
        if len(others) == 1:
            return (self._z[others[0]],)
        weights = np.arange(1.0, len(others) + 1.0)
        weights /= weights.sum()
        comps = np.zeros((4, self.dim, self.dim))
        for w, j in zip(weights, others):
            comps[0, j, j] = w
        rho_w = QuatMatrix(comps)
        uniform = np.zeros((4, self.dim))
        uniform[0, others] = 1.0 / np.sqrt(len(others))
        rho_u = QuatKet(uniform).density()
        a, b = others[0], others[1]
        rho_i = self._pair_ket(a, b, _QUAT_PHASES[1]).density()
        rho_j = self._pair_ket(a, b, _QUAT_PHASES[2]).density()
        return (rho_w, rho_u, rho_i, rho_j)

    def states_close(self, a: QuatMatrix, b: QuatMatrix) -> bool:
        return a.isclose(b, atol=self.atol)

    def compose(self, second, first):
        return second @ first

    def identity_map(self):
        return QuatMatrix.identity(self.dim)

    def is_identity_map(self, trans: QuatMatrix) -> bool:
        # acts as the identity exactly when it is +1 or -1 times the
        # identity (only real units are central)
        if not trans.is_diagonal(atol=self.atol):
            return False
        diag = trans.comps[:, range(self.dim), range(self.dim)]
        if np.any(np.abs(diag[1:]) > self.atol):
            return False
        first = diag[0, 0]
        return bool(
            abs(abs(first) - 1.0) <= self.atol
            and np.allclose(diag[0], first, rtol=0.0, atol=self.atol)
        )

    def maps_commute(self, a: QuatMatrix, b: QuatMatrix) -> bool:
        if a.is_diagonal(atol=self.atol) and b.is_diagonal(atol=self.atol):
            return self._diagonals_commute(a, b)
        left = a @ b
        right = b @ a
        ratio = right.dagger() @ left
        return self.is_identity_map(ratio)

    def _diagonals_commute(self, a: QuatMatrix, b: QuatMatrix) -> bool:
        # diag(ab) and diag(ba) induce the same conjugation exactly when
        # conj((ba)_i) (ab)_i is one common real sign
        pair = np.stack([np.diagonal(m.comps, axis1=1, axis2=2) for m in (a, b)], axis=1)
        left, right = _hamilton_entrywise(pair, pair[:, ::-1]).swapaxes(0, 1)
        right[1:] *= -1.0
        ratios = _hamilton_entrywise(right, left)
        r0, r1, r2, r3 = ratios[:, 0].tolist()
        if abs(r1) > self.atol or abs(r2) > self.atol or abs(r3) > self.atol:
            return False
        if abs(abs(r0) - 1.0) > self.atol:
            return False
        return bool(np.all(np.abs(ratios - ratios[:, :1]) <= self.atol))

    # -- group families ------------------------------------------------------------

    def _diag_entries(self, S: QuatMatrix):
        return [S.at(i, i) for i in range(self.dim)]

    def _is_diagonal_unit(self, S: QuatMatrix) -> bool:
        if not S.is_diagonal(atol=self.atol):
            return False
        return all(abs(q.norm() - 1.0) <= self.atol for q in self._diag_entries(S))

    def _sample_diagonal_unit(self, rng: np.random.Generator) -> QuatMatrix:
        return QuatMatrix.diag([random_unit_quaternion(rng) for _ in range(self.dim)])

    def _branch_family(self, branch: int) -> ParametricFamily:
        def contains(S: QuatMatrix) -> bool:
            if not self._is_diagonal_unit(S):
                return False
            remote = [q for i, q in enumerate(self._diag_entries(S)) if i != branch]
            first = remote[0]
            if abs(first.b) > self.atol or abs(first.c) > self.atol or abs(first.d) > self.atol:
                return False
            if abs(abs(first.a) - 1.0) > self.atol:
                return False
            return all(q.isclose(first, atol=self.atol) for q in remote)

        def sample(rng: np.random.Generator) -> QuatMatrix:
            sign = Quaternion(float(rng.choice((-1.0, 1.0))))
            entries = [sign for _ in range(self.dim)]
            entries[branch] = qmul(random_unit_quaternion(rng), sign)
            return QuatMatrix.diag(entries)

        return ParametricFamily(
            f"unit quaternion on branch {branch}, common sign elsewhere",
            contains,
            sample,
        )

    # -- derived statistics -----------------------------------------------------------

    def gpt_vector(self, state: QuatMatrix) -> GptState:
        if self.beamsplitter is None:
            raise ValueError("interference statistics need a power-of-two dimension")
        mixed = conjugate_state(self.beamsplitter, state)
        branch = np.diagonal(state.comps[0]).copy()
        interference = np.diagonal(mixed.comps[0]).copy()
        return GptState(np.concatenate([branch, interference]))


def quaternionic_theory(N: int) -> QuaternionicTheory:
    """N-branch quaternionic quantum system."""
    return QuaternionicTheory(N)


def quaternionic_two_level_gpt_state(rho: QuatMatrix) -> GptState:
    """Ten-entry fiducial probability vector of a two-level quaternionic state.

    Five binary measurements: four phase directions (1, i, j, k) of the
    off-diagonal, then the branch measurement last, matching the layout of
    ``dball_theory(5)``.  Probabilities are P = 1/2 + Re(rho_01 * q) for each
    phase direction q.
    """
    if rho.shape != (2, 2):
        raise ValueError("expected a 2x2 quaternionic state")
    off = rho.at(0, 1)
    entries = []
    for q in _QUAT_PHASES:
        p_plus = 0.5 + (off * q).a
        entries.extend([p_plus, 1.0 - p_plus])
    p_z = rho.at(0, 0).a
    entries.extend([p_z, 1.0 - p_z])
    return GptState(entries)


def random_pure_quaternionic_state(N: int, rng: np.random.Generator) -> QuatMatrix:
    comps = rng.standard_normal((4, N))
    comps /= np.sqrt(np.sum(comps**2))
    return QuatKet(comps).density()


# ---------------------------------------------------------------------------
# Name registry used by the command-line interface
# ---------------------------------------------------------------------------


def theory_by_name(name: str, n: int = 1, N: int = 2) -> TheoryModel:
    """Resolve a CLI theory name; ``n`` feeds quantum, ``N`` the rest."""
    if name == "classical":
        return classical_theory(N)
    if name == "qubit":
        return qubit_theory()
    if name == "quantum":
        return quantum_theory(n)
    if name == "quaternionic":
        return quaternionic_theory(N)
    if name == "spekkens-ontic":
        return spekkens_ontic_theory()
    if name == "spekkens-epistemic":
        return spekkens_epistemic_theory()
    if name.startswith("gbit"):
        return gbit_theory(int(name[4:]))
    if name.startswith("dball"):
        return dball_theory(int(name[5:]))
    raise ValueError(f"unknown theory name: {name!r}")
