"""Constructors for the concrete theories handled by this package.

Probability-vector theories name their branch measurement by its layout
block and read their branch effects off the layout.  The finite ones
(classical systems, gbits, the two toy bits) are one exact construction:
a vertex list, which spans the state polytope, plus named relabelings,
the 0/1 maps that carry every outcome coordinate to another.  The two toy
bits share their relabelings and differ only in the states they admit.
Balls come with pole spanning sets and float tolerance.  The many-level
quantum and quaternionic theories are backed by density matrices, or by
kets for pure states, with probabilities computed on demand; their branch
statistics and interference statistics are exposed as a probability
vector when needed, and the primitives that compare or read densities
refuse a ket by name.
"""

from __future__ import annotations

import itertools
import re
from functools import cache, cached_property

import numpy as np

from .core import (
    DEFAULT_ATOL,
    FiniteGroup,
    GptState,
    LinearMap,
    ParametricFamily,
    ParametricGroup,
    TheoryModel,
    VectorTheory,
    finite_diagonal,
)
from .quaternion import (
    NumericConsistencyError,
    QuatKet,
    QuatMatrix,
    _hamilton_entrywise,
    conjugate_state,
    ket_trace_prob,
    real_trace_prob,
)
from .uncertainty import dball_bound


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Finite theories: vertices plus named relabelings of the coordinates
# ---------------------------------------------------------------------------


_eye = cache(np.eye)  # read only through take, which copies


def _relabeling(name: str, image) -> LinearMap:
    """The 0/1 map carrying coordinate j to coordinate ``image[j]``."""
    return LinearMap(_eye(len(image)).take(image, axis=1), name)


def _finite_theory(name, layout, branch_measurement, vertices, relabelings, within=None) -> TheoryModel:
    """Polytope theory with exact arithmetic: its vertices span it, and its
    group is the relabelings, given as ``(name, image)`` pairs."""
    vertices = tuple(GptState(v) for v in vertices)
    group = FiniteGroup(tuple(_relabeling(label, image) for label, image in relabelings))
    return VectorTheory(
        name, layout, branch_measurement, vertices, group, within, atol=0.0, extremal_states=vertices
    )


#: Largest N for classical: all N! permutation maps are built at once, 40,320 at N = 8.
MAX_CLASSICAL_OUTCOMES = 8


def _classical_relabelings(N: int):
    # one-line notation on points 1..N, delta_i maps to delta_perm(i); the
    # names permute the digits in the same order, identity first
    perms = itertools.permutations(range(N))
    names = map("".join, itertools.permutations("123456789"[:N]))
    next(names)
    yield "identity", next(perms)
    yield from zip(names, perms)


def classical_theory(N: int) -> TheoryModel:
    """N-outcome classical system: the simplex with permutation dynamics.

    The full set of normalization-preserving maps would be the stochastic
    matrices; the reversible ones are exactly the permutations, and only
    those enter the group.  N above :data:`MAX_CLASSICAL_OUTCOMES` raises
    ValueError before any map is built.
    """
    if N < 2:
        raise ValueError("a classical branch system needs N >= 2 outcomes")
    if N > MAX_CLASSICAL_OUTCOMES:
        raise ValueError(f"classical takes N <= {MAX_CLASSICAL_OUTCOMES} (MAX_CLASSICAL_OUTCOMES), got N = {N}")
    return _finite_theory("classical", (("Z", N),), 0, np.eye(N), _classical_relabelings(N))


def _gbit_labels(d: int) -> tuple[str, ...]:
    if d == 2:
        return ("Z", "X")
    if d == 3:
        return ("Z", "X", "Y")
    return ("Z",) + tuple(f"X{i}" for i in range(1, d))


def _gbit_relabelings(labels):
    # new measurement i reads old measurement sigma[i], outcomes flipped
    # when flips[i] is set: outcome q of old measurement sigma[i] lands on
    # outcome q ^ flips[i] of measurement i
    d = len(labels)
    flip_names = [f"{lbl}-flip" for lbl in labels]
    for sigma in itertools.permutations(range(d)):
        inv = sorted(range(d), key=sigma.__getitem__)
        perm = ["perm(" + "".join(labels[j] for j in sigma) + ")"] if sigma != tuple(range(d)) else []
        for flips in itertools.product((0, 1), repeat=d):
            name = "+".join(perm + [f for f, flip in zip(flip_names, flips) if flip])
            yield name or "identity", [2 * i + (q ^ flips[i]) for i in inv for q in (0, 1)]


#: Largest d for gbit<d>: all d! 2^d relabeling maps are built at once, 46,080 at d = 6.
MAX_GBIT_MEASUREMENTS = 6


def gbit_theory(d: int) -> TheoryModel:
    """Hypercube over d binary measurements; no uncertainty constraint.

    The branch measurement is the first one (Z); the reversible group is
    every relabeling of measurements and outcomes.  d above
    :data:`MAX_GBIT_MEASUREMENTS` raises ValueError before any map is built.
    """
    if not 2 <= d <= MAX_GBIT_MEASUREMENTS:
        raise ValueError(f"gbit<d> takes 2 <= d <= {MAX_GBIT_MEASUREMENTS} (MAX_GBIT_MEASUREMENTS), got d = {d}")
    labels = _gbit_labels(d)
    vertices = [
        [float(q == o) for o in outcomes for q in (0, 1)]
        for outcomes in itertools.product((0, 1), repeat=d)
    ]
    return _finite_theory(
        f"gbit{d}", tuple((lbl, 2) for lbl in labels), 0, vertices, _gbit_relabelings(labels)
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


def _ball_theory(name: str, labels: tuple[str, ...]) -> TheoryModel:
    d = len(labels)
    layout = tuple((lbl, 2) for lbl in labels)
    spanning = _ball_states(d)

    def sample_phase(rng):
        R = np.eye(d)
        R[: d - 1, : d - 1] = random_rotation(d - 1, rng)
        return embed_rotation(R)

    group = ParametricGroup(
        phase_family=ParametricFamily(
            f"SO({d - 1}) rotations fixing the branch axis", sample_phase
        ),
        branch_family=lambda branch: ParametricFamily(
            f"SO({d - 1}) rotations fixing the branch axis (branch {branch})",
            sample_phase,
        ),
    )
    return VectorTheory(
        name, layout, -1, spanning, group, lambda s: dball_bound(s, d) <= 0.25 + DEFAULT_ATOL
    )


#: Largest d for dball<d>: embedding one rotation loops over its d² entries in Python.
MAX_BALL_MEASUREMENTS = 64


def dball_theory(d: int) -> TheoryModel:
    """Ball-shaped state space over d binary measurements.

    The branch measurement is the last one; the phase group with respect to
    it is the rotation group of the remaining d-1 coordinates.  d=3 is the
    qubit state space; d=5 the two-level quaternionic one.  d above
    :data:`MAX_BALL_MEASUREMENTS` raises ValueError before any state is built.
    """
    if not 2 <= d <= MAX_BALL_MEASUREMENTS:
        raise ValueError(f"dball<d> takes 2 <= d <= {MAX_BALL_MEASUREMENTS} (MAX_BALL_MEASUREMENTS), got d = {d}")
    return _ball_theory(f"dball{d}", tuple(f"X{i}" for i in range(1, d + 1)))


def qubit_theory() -> TheoryModel:
    """Qubit in the six-entry probability layout (X, Y, Z blocks)."""
    return _ball_theory("qubit", ("X", "Y", "Z"))


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


def _toy_relabelings():
    # a permutation of the four points permutes the six two-element subsets
    index = {subset: k for k, subset in enumerate(SPEKKENS_SUBSETS)}
    pairs = [sorted(subset) for subset in SPEKKENS_SUBSETS]
    for perm in itertools.permutations((1, 2, 3, 4)):
        image = [index[frozenset((perm[a - 1], perm[b - 1]))] for a, b in pairs]
        yield "".join(map(str, perm)), image


def _in_tetrahedron(s: GptState) -> bool:
    # weights of the four points recovered from the statistics
    x, y, z = _spekkens_xyz(s)
    weights = (1.0 + x + y + z, 1.0 - x - y + z, 1.0 + x - y - z, 1.0 - x + y - z)
    return all(w / 4.0 >= -1e-12 for w in weights)


def _in_octahedron(s: GptState) -> bool:
    x, y, z = _spekkens_xyz(s)
    return abs(x) + abs(y) + abs(z) <= 1.0 + 1e-12


def spekkens_ontic_theory() -> TheoryModel:
    """Hidden-variable tetrahedron: convex mixtures of the four points."""
    vertices = [spekkens_ontic_statistics(p).probs for p in (1, 2, 3, 4)]
    return _finite_theory(
        "spekkens-ontic", _SPEKKENS_LAYOUT, -1, vertices, _toy_relabelings(), _in_tetrahedron
    )


def spekkens_epistemic_theory() -> TheoryModel:
    """Knowledge-restricted toy bit: the octahedron of two-point states.

    It differs from the ontic tetrahedron only in the states it admits; the
    two share the group of point permutations."""
    vertices = [spekkens_epistemic_statistics(sub).probs for sub in SPEKKENS_SUBSETS]
    return _finite_theory(
        "spekkens-epistemic", _SPEKKENS_LAYOUT, -1, vertices, _toy_relabelings(), _in_octahedron
    )


# ---------------------------------------------------------------------------
# Matrix theories: quantum theory over the complex numbers and the quaternions
# ---------------------------------------------------------------------------


class MatrixTheory(TheoryModel):
    """N-level system whose states are density matrices over a scalar algebra.

    Probabilities are computed on demand; :meth:`gpt_vector` exposes the
    branch and post-beamsplitter statistics as a probability vector.  Shared
    code reads a matrix through its *entries*, a (k, N, N) array of the k
    algebra components.  A subclass declares its algebra (``PHASES``,
    ``PINNED``, family descriptions, the ``_``-prefixed hooks the methods
    below call) and implements ``probability`` and ``apply`` natively.

    A pure state may also be carried as a ket (:meth:`branch_ket`), which
    ``apply`` and ``probability`` recognize by its form: a ket evolves as
    T psi, in O(N^2), and reads as tr(E psi psi^dagger).
    """

    #: Unit scalars as component rows, 1 first.  With the branch projectors,
    #: their pair states span the unit-trace Hermitian matrices.
    PHASES: np.ndarray
    #: Rows of ``PHASES`` whose pair states the locality probes add, so that
    #: a common remote entry must be central (a global phase).
    PINNED: tuple[int, ...]

    def __init__(self, name: str, N: int):
        self.dim = N
        phases = ParametricFamily(
            self.PHASE_FAMILY,
            lambda rng: self._from_diagonal(self._random_phases(rng, self.dim)),
        )
        super().__init__(
            name, (("Z", N), ("X", N)), N, ParametricGroup(phases, self._branch_family)
        )
        n_qubits = int(round(np.log2(N)))
        if 2**n_qubits == N:
            self.beamsplitter = self._matrix(self._lift(hadamard_matrix(n_qubits)))

    def _lift(self, real) -> np.ndarray:
        # entries of a real array: component 0, in the algebra's dtype
        entries = np.zeros((self.PHASES.shape[1],) + np.shape(real), dtype=self.PHASES.dtype)
        entries[0] = real
        return entries

    def _diagonal(self, M) -> np.ndarray | None:
        # (k, N) diagonal entries, or None unless M is diagonal and finite
        return finite_diagonal(self._entries(M), self.atol)

    def _from_diagonal(self, d):
        return self._matrix(d[:, :, None] * np.eye(self.dim))

    def diagonal_map(self, values):
        """Diagonal map with the real entries ``values``."""
        return self._matrix(self._lift(np.diag(values)))

    def branch_state(self, j: int):
        return self.diagonal_map(np.eye(self.dim)[j])

    def branch_ket(self, j: int):
        """The ket of :meth:`branch_state`."""
        return self._ket(self._lift(np.eye(self.dim)[j]))

    def _pure(self, ket):
        # |psi><psi| of the ket with (k, N) entries
        col = self._matrix(ket[:, :, None])
        return col @ self._dagger(col)

    def uniform_superposition(self):
        return self._pure(self._lift(np.full(self.dim, 1.0 / np.sqrt(self.dim))))

    def _pair_state(self, j: int, k: int, phase: int):
        ket = self._lift(np.zeros(self.dim))
        ket[0, j] = 1.0 / np.sqrt(2.0)
        ket[:, k] = self.PHASES[phase] / np.sqrt(2.0)
        return self._pure(ket)

    @cached_property
    def z_effects(self):
        return tuple(self.branch_state(j) for j in range(self.dim))

    @cached_property
    def spanning_states(self):
        # projectors plus one pair state per pair of levels and phase: an
        # affine spanning set of the unit-trace Hermitian matrices
        states = [self.branch_state(j) for j in range(self.dim)]
        for j, k in itertools.combinations(range(self.dim), 2):
            states.extend(self._pair_state(j, k, p) for p in range(len(self.PHASES)))
        return tuple(states)

    def _density(self, state) -> np.ndarray:
        # the (k, N, N) entries of a density matrix; a ket or a matrix of
        # another size is refused by name, never broadcast
        entries = self._entries(state)
        shape = entries.shape[1:]
        if shape != (self.dim, self.dim):
            got = "a ket" if len(shape) == 1 else "a matrix"
            raise ValueError(
                f"{self.name} theory expects a {self.dim}x{self.dim} density matrix, got {got} of shape {shape}"
            )
        return entries

    def branch_probabilities(self, state) -> np.ndarray:
        # the real parts of the diagonal; any other component of a diagonal
        # entry (imaginary, or i/j/k) above atol is numeric inconsistency
        diag = np.diagonal(self._density(state), axis1=-2, axis2=-1)
        residue = np.abs(np.concatenate([diag[0].imag, diag[1:].ravel()])).max()
        if residue > self.atol:
            raise NumericConsistencyError(f"diagonal has non-real residue {residue:.3e}")
        return diag[0].real

    def branch_local_probes(self, branch: int):
        """Probe set equivalent to the full face for the group's maps.

        Fixing a zero-support state with distinct spectrum forces the map to
        be branch-diagonal; fixing the uniform remote superposition forces a
        common remote entry; the pair states of the ``PINNED`` phases (i and
        j for quaternions) force that entry to be central.
        """
        others = [j for j in range(self.dim) if j != branch]
        if len(others) == 1:
            return (self.branch_state(others[0]),)
        weights = np.zeros(self.dim)
        weights[others] = np.arange(1.0, len(others) + 1.0)
        uniform = self._lift(np.zeros(self.dim))
        uniform[0, others] = 1.0 / np.sqrt(len(others))
        pinned = tuple(self._pair_state(others[0], others[1], p) for p in self.PINNED)
        return (self.diagonal_map(weights / weights.sum()), self._pure(uniform)) + pinned

    def contains(self, state) -> bool:
        entries = self._density(state)
        if not self.states_close(state, self._dagger(state)):
            return False
        if abs(np.trace(entries[0]).real - 1.0) > self.atol:
            return False
        return bool(np.linalg.eigvalsh(self._complex_form(state)).min() >= -self.atol)

    def states_close(self, a, b) -> bool:
        return bool(np.allclose(self._density(a), self._density(b), rtol=0.0, atol=self.atol))

    def compose(self, second, first):
        return second @ first

    def identity_map(self):
        return self.diagonal_map(np.ones(self.dim))

    def _is_central_unit(self, d) -> bool:
        # whether the (k, N) entries d all lie within atol of one global
        # phase: a unit complex number, or a real sign for quaternions
        first = d[0, 0]
        if not abs(abs(first) - 1.0) <= self.atol:
            return False
        deviation = d.copy()
        deviation[0] -= first
        return bool(np.abs(deviation).max() <= self.atol)

    def is_identity_map(self, trans) -> bool:
        # acts as the identity exactly when it is a global phase times it
        d = self._diagonal(trans)
        return d is not None and self._is_central_unit(d)

    def maps_commute(self, a, b) -> bool:
        # ab and ba induce one conjugation exactly when (ba)^dagger (ab) acts
        # as the identity.  A non-finite entry gives False: the diagonal path
        # takes finite diagonals only, the other path checks every entry
        da, db = self._diagonal(a), self._diagonal(b)
        if da is not None and db is not None:
            return self._diagonals_commute(da, db)
        if not (np.isfinite(self._entries(a)).all() and np.isfinite(self._entries(b)).all()):
            return False
        return self.is_identity_map(self._dagger(b @ a) @ (a @ b))

    def _branch_family(self, branch: int) -> ParametricFamily:
        def sample(rng: np.random.Generator):
            # the central part of a random unit (itself if complex, its real
            # sign if quaternionic) as global phase, a random unit on branch
            first = self._random_phases(rng, 1)[0, 0]
            global_phase = first / abs(first)
            d = self._lift(np.full(self.dim, global_phase))
            d[:, branch] = global_phase * self._random_phases(rng, 1)[:, 0]
            return self._from_diagonal(d)

        return ParametricFamily(self.BRANCH_FAMILY.format(branch=branch), sample)

    def gpt_vector(self, state) -> GptState:
        """Branch probabilities plus post-beamsplitter interference
        statistics as one probability vector."""
        if self.beamsplitter is None:
            raise ValueError("interference statistics need a power-of-two dimension")
        B = self.beamsplitter
        return GptState(np.concatenate(
            [self.branch_probabilities(state), self.branch_probabilities(B @ state @ B)]
        ))


class DensityMatrixTheory(MatrixTheory):
    """N = 2**n level quantum system: complex entries, unitary dynamics.

    Matrices stay native complex arrays; their entries are a (1, N, N) view.
    """

    PHASES = np.array([[1.0], [1.0j]])
    PINNED = ()  # every unit complex number is a global phase
    PHASE_FAMILY = "branch-diagonal unitaries"
    BRANCH_FAMILY = "phase on branch {branch} up to a global phase"

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        super().__init__("quantum", 2**n_qubits)

    @staticmethod
    def _matrix(entries):
        # read-only, as a QuatMatrix is, so a built map can be shared
        M = entries[0]
        M.setflags(write=False)
        return M

    _ket = staticmethod(lambda entries: entries[0])
    _entries = staticmethod(lambda M: np.asarray(M)[None])
    _dagger = staticmethod(lambda M: np.asarray(M).conj().T)
    _complex_form = staticmethod(np.asarray)

    def _random_phases(self, rng, count):
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))[None]

    _diagonals_commute = staticmethod(lambda da, db: True)  # complex numbers commute

    # bench/tracer.py times these five through each class's own __dict__
    def probability(self, effect, state) -> float:
        if state.ndim == 1:  # a ket: tr(E psi psi^dagger) = sum_i (E psi)_i conj(psi_i)
            t = complex(np.vdot(state, effect @ state))
        else:
            t = complex(np.einsum("ij,ji->", effect, state))
        if abs(t.imag) > self.atol:
            raise NumericConsistencyError(
                f"trace has imaginary residue {abs(t.imag):.3e}"
            )
        return float(t.real)

    def apply(self, trans, state):
        if state.ndim == 1:  # a ket
            return trans @ state
        return trans @ state @ trans.conj().T

    compose = MatrixTheory.compose
    is_identity_map = MatrixTheory.is_identity_map
    maps_commute = MatrixTheory.maps_commute


class QuaternionicTheory(MatrixTheory):
    """N-level quaternionic quantum system with symplectic dynamics.

    Matrices are :class:`QuatMatrix` values, whose (4, N, N) component array
    is their entries.  Only the real signs +1 and -1 are global phases.
    """

    PHASES = np.eye(4)  # 1, i, j, k
    PINNED = (1, 2)  # an entry commuting with i and j commutes with k = ij
    PHASE_FAMILY = "diagonal unit-quaternion matrices"
    BRANCH_FAMILY = "unit quaternion on branch {branch}, common sign elsewhere"

    def __init__(self, N: int):
        if N < 2:
            raise ValueError("need at least two levels")
        super().__init__("quaternionic", N)

    _matrix = staticmethod(QuatMatrix)
    _ket = staticmethod(QuatKet)
    _entries = staticmethod(lambda M: M.comps)
    _dagger = staticmethod(QuatMatrix.dagger)
    _complex_form = staticmethod(QuatMatrix.complex_adjoint)

    def _random_phases(self, rng, count):
        q = rng.standard_normal((count, 4))
        return (q / np.linalg.norm(q, axis=1, keepdims=True)).T

    def _diagonals_commute(self, da, db) -> bool:
        # diag(ab) and diag(ba) induce the same conjugation exactly when
        # conj((ba)_i) (ab)_i is one common real sign
        pair = np.stack([da, db], axis=1)
        left, right = _hamilton_entrywise(pair, pair[:, ::-1]).swapaxes(0, 1)
        right[1:] *= -1.0
        return self._is_central_unit(_hamilton_entrywise(right, left))

    # bench/tracer.py times these five through each class's own __dict__
    def probability(self, effect, state) -> float:
        if isinstance(state, QuatKet):
            return ket_trace_prob(effect, state, atol=self.atol)
        return real_trace_prob(effect, state, atol=self.atol)

    def apply(self, trans, state):
        if isinstance(state, QuatKet):
            return trans @ state
        return conjugate_state(trans, state)

    compose = MatrixTheory.compose
    is_identity_map = MatrixTheory.is_identity_map
    maps_commute = MatrixTheory.maps_commute


def quantum_theory(n: int) -> DensityMatrixTheory:
    """Quantum system with 2**n branches, one per length-n bit-string."""
    return DensityMatrixTheory(n)


def quaternionic_theory(N: int) -> QuaternionicTheory:
    """N-branch quaternionic quantum system."""
    return QuaternionicTheory(N)


# ---------------------------------------------------------------------------
# Name registry used by the command-line interface
# ---------------------------------------------------------------------------


#: The exact CLI theory names: constructor, then the size parameter it
#: reads and that size's default (None for an unsized theory).
_NAMED = {
    "classical": (classical_theory, "N", 2),
    "qubit": (qubit_theory, None, None),
    "quantum": (quantum_theory, "n", 1),
    "quaternionic": (quaternionic_theory, "N", 2),
    "spekkens-ontic": (spekkens_ontic_theory, None, None),
    "spekkens-epistemic": (spekkens_epistemic_theory, None, None),
}
#: Unsized families, named by prefix and dimension: ``gbit3``, ``dball5``.
_FAMILIES = {"gbit": gbit_theory, "dball": dball_theory}
_FAMILY_NAME = re.compile(f"({'|'.join(_FAMILIES)})([1-9][0-9]*)")
#: Every accepted name form; d is a positive integer without leading zeros.
THEORY_NAMES = (*_NAMED, *(f"{prefix}<d>" for prefix in _FAMILIES))


def theory_form(name: str) -> str:
    """The entry of :data:`THEORY_NAMES` that ``name`` takes, e.g.
    ``dball<d>`` for ``dball5``; ValueError if it takes none."""
    if name in _NAMED:
        return name
    match = _FAMILY_NAME.fullmatch(name)
    if match is None:
        forms = ", ".join(THEORY_NAMES)
        raise ValueError(f"unknown theory name {name!r}; accepted forms: {forms} (d a positive integer, no leading zeros)")
    return f"{match[1]}<d>"


def theory_sizes(name: str, n: int | None = None, N: int | None = None) -> dict[str, int]:
    """The size theory ``name`` reads, its default if not given; a size it
    does not read raises ValueError naming it, as does an unknown name."""
    _, key, default = _NAMED.get(theory_form(name), (None, None, None))
    given = {"n": n, "N": N}
    unread = [k for k, v in given.items() if v is not None and k != key]
    if unread:
        raise ValueError(f"theory {name!r} does not read parameter(s): {', '.join(unread)}")
    return {} if key is None else {key: default if given[key] is None else given[key]}


def theory_by_name(name: str, n: int | None = None, N: int | None = None) -> TheoryModel:
    """Resolve a CLI theory name; ``n`` sizes quantum, ``N`` classical and quaternionic."""
    sizes = theory_sizes(name, n, N)
    if name in _NAMED:
        return _NAMED[name][0](**sizes)
    prefix, d = _FAMILY_NAME.fullmatch(name).groups()
    return _FAMILIES[prefix](int(d))
