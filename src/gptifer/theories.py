"""Constructors for the concrete theories handled by this package.

Probability-vector theories name their branch measurement by its layout
block and read their branch effects off the layout.  The finite ones
(classical systems, gbits, the two toy bits) are one exact construction:
a vertex list, which spans the state polytope, plus named relabelings,
the maps that carry every outcome coordinate to another.  A group of them
is built as one array of images, and each relabeling as its image, its
0/1 matrix only when read.  The two toy bits share their relabelings and
differ only in the states they admit.
Balls come with pole spanning sets and float tolerance.  The many-level
quantum and quaternionic theories are backed by density matrices, by kets
(one-column matrices) for pure states, or by diagonals for states diagonal
in the branch basis, with probabilities computed on demand; a matrix of
another shape is refused by name.  Maps and effects diagonal in the branch
basis are stored as their diagonal.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import cache, cached_property

import numpy as np

from .core import (
    DEFAULT_ATOL,
    PROBABILITY_FLOOR,
    DiagonalMap,
    FiniteGroup,
    GptState,
    LinearMap,
    NumericConsistencyError,
    ParametricFamily,
    ParametricGroup,
    TheoryModel,
    VectorTheory,
    _exact_int,
    near_zero,
)
from .quaternion import (
    QuatMatrix,
    _conj,
    _hamilton_entrywise,
    _real_part,
    conjugate_state,
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
    plus = 2 * np.arange(d)
    minus = plus + 1
    M[0::2, 0::2] += R  # added onto zeros, so a -0.0 entry lands as 0.0
    M[plus, plus] += offsets
    M[plus, minus] += offsets
    M[1::2] = -M[0::2]
    M[minus, plus] += 1.0
    M[minus, minus] += 1.0
    return LinearMap(M, name)


# ---------------------------------------------------------------------------
# Finite theories: vertices plus named relabelings of the coordinates
# ---------------------------------------------------------------------------


def _finite_theory(name, layout, branch_measurement, vertices, images, name_of, within=None) -> TheoryModel:
    """Polytope theory with exact arithmetic: its vertices span it, and its
    group is the relabelings whose images are the int8 rows of ``images``,
    each named by ``name_of(image)`` when it is built."""
    vertices = tuple(GptState(v) for v in vertices)
    group = FiniteGroup(images, name_of)
    return VectorTheory(
        name, layout, branch_measurement, vertices, group, within, atol=0.0, extremal_states=vertices
    )


#: Largest N for classical: its group holds all N! permutations, 40,320 at N = 8.
MAX_CLASSICAL_OUTCOMES = 8


def _classical_images(N: int) -> np.ndarray:
    # one-line notation on points 1..N, delta_i maps to delta_perm(i), identity first
    perms = itertools.chain.from_iterable(itertools.permutations(range(N)))
    return np.fromiter(perms, np.int8, N * math.factorial(N)).reshape(-1, N)


def _classical_name(image) -> str:
    points = image.tolist()
    return "identity" if points == list(range(len(points))) else "".join(str(p + 1) for p in points)


def classical_theory(N: int) -> TheoryModel:
    """N-outcome classical system: the simplex with permutation dynamics.

    The full set of normalization-preserving maps would be the stochastic
    matrices; the reversible ones are exactly the permutations, and only
    those enter the group.  N above :data:`MAX_CLASSICAL_OUTCOMES` raises
    ValueError before any map is built.
    """
    N = _exact_int(N, "N", 2, MAX_CLASSICAL_OUTCOMES, "classical", "MAX_CLASSICAL_OUTCOMES")
    return _finite_theory("classical", (("Z", N),), 0, np.eye(N), _classical_images(N), _classical_name)


def _gbit_labels(d: int) -> tuple[str, ...]:
    if d == 2:
        return ("Z", "X")
    if d == 3:
        return ("Z", "X", "Y")
    return ("Z",) + tuple(f"X{i}" for i in range(1, d))


def _gbit_images(d: int) -> np.ndarray:
    # new measurement i reads old measurement sigma[i], outcomes flipped
    # when flips[i] is set: outcome q of old measurement sigma[i] lands on
    # outcome q ^ flips[i] of measurement i.  Rows run over every sigma,
    # then every flips, both in itertools order.
    sigmas = np.array(list(itertools.permutations(range(d))), np.int8)
    inv = np.argsort(sigmas, axis=1).astype(np.int8)  # inv[k]: the i with sigma[i] = k
    flips = np.array(list(itertools.product((0, 1), repeat=d)), np.int8)
    flip = flips.T[inv].transpose(0, 2, 1)  # [sigma, flips, k]: flips[inv[k]]
    q = np.array([0, 1], np.int8)
    return (2 * inv[:, None, :, None] + (q ^ flip[..., None])).reshape(-1, 2 * d)


def _gbit_name(labels, image) -> str:
    # "perm(...)" when the measurements move, then each flipped measurement:
    # outcome 0 of old measurement k lands on outcome flips[i] of i = inv[k]
    inv, flips = zip(*(divmod(v, 2) for v in image[0::2].tolist()))
    sigma = sorted(range(len(inv)), key=inv.__getitem__)
    moved = ["perm(" + "".join(labels[j] for j in sigma) + ")"] if inv != tuple(sorted(inv)) else []
    return "+".join(moved + [f"{labels[i]}-flip" for i, flip in sorted(zip(inv, flips)) if flip]) or "identity"


#: Largest d for gbit<d>: its group holds all d! 2^d relabelings, 46,080 at d = 6.
MAX_GBIT_MEASUREMENTS = 6


def gbit_theory(d: int) -> TheoryModel:
    """Hypercube over d binary measurements; no uncertainty constraint.

    The branch measurement is the first one (Z); the reversible group is
    every relabeling of measurements and outcomes.  d above
    :data:`MAX_GBIT_MEASUREMENTS` raises ValueError before any map is built.
    """
    d = _exact_int(d, "d", 2, MAX_GBIT_MEASUREMENTS, "gbit<d>", "MAX_GBIT_MEASUREMENTS")
    labels = _gbit_labels(d)
    vertices = [
        [float(q == o) for o in outcomes for q in (0, 1)]
        for outcomes in itertools.product((0, 1), repeat=d)
    ]
    return _finite_theory(
        f"gbit{d}", tuple((lbl, 2) for lbl in labels), 0, vertices, _gbit_images(d),
        lambda image: _gbit_name(labels, image),
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


#: Largest d for dball<d>: its phase check applies sampled 2d x 2d rotations to 2d + 1 spanning states.
MAX_BALL_MEASUREMENTS = 64


def dball_theory(d: int) -> TheoryModel:
    """Ball-shaped state space over d binary measurements.

    The branch measurement is the last one; the phase group with respect to
    it is the rotation group of the remaining d-1 coordinates.  d=3 is the
    qubit state space; d=5 the two-level quaternionic one.  d above
    :data:`MAX_BALL_MEASUREMENTS` raises ValueError before any state is built.
    """
    d = _exact_int(d, "d", 2, MAX_BALL_MEASUREMENTS, "dball<d>", "MAX_BALL_MEASUREMENTS")
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


@cache
def _toy_names() -> dict:
    # a permutation of the four points permutes the six two-element subsets;
    # each image, as a tuple, to the point permutation that names it
    index = {subset: k for k, subset in enumerate(SPEKKENS_SUBSETS)}
    pairs = [sorted(subset) for subset in SPEKKENS_SUBSETS]
    return {
        tuple(index[frozenset((perm[a - 1], perm[b - 1]))] for a, b in pairs): "".join(map(str, perm))
        for perm in itertools.permutations((1, 2, 3, 4))
    }


def _toy_theory(name, vertices, within) -> TheoryModel:
    names = _toy_names()
    images = np.array(list(names), np.int8)
    return _finite_theory(name, _SPEKKENS_LAYOUT, -1, vertices, images, lambda image: names[tuple(image.tolist())], within)


def _in_tetrahedron(s: GptState) -> bool:
    # weights of the four points recovered from the statistics
    x, y, z = _spekkens_xyz(s)
    weights = (1.0 + x + y + z, 1.0 - x - y + z, 1.0 + x - y - z, 1.0 - x + y - z)
    return all(w / 4.0 >= -PROBABILITY_FLOOR for w in weights)


def _in_octahedron(s: GptState) -> bool:
    x, y, z = _spekkens_xyz(s)
    return abs(x) + abs(y) + abs(z) <= 1.0 + PROBABILITY_FLOOR


def spekkens_ontic_theory() -> TheoryModel:
    """Hidden-variable tetrahedron: convex mixtures of the four points."""
    vertices = [spekkens_ontic_statistics(p).probs for p in (1, 2, 3, 4)]
    return _toy_theory("spekkens-ontic", vertices, _in_tetrahedron)


def spekkens_epistemic_theory() -> TheoryModel:
    """Knowledge-restricted toy bit: the octahedron of two-point states.

    It differs from the ontic tetrahedron only in the states it admits; the
    two share the group of point permutations."""
    vertices = [spekkens_epistemic_statistics(sub).probs for sub in SPEKKENS_SUBSETS]
    return _toy_theory("spekkens-epistemic", vertices, _in_octahedron)


# ---------------------------------------------------------------------------
# Matrix theories: quantum theory over the complex numbers and the quaternions
# ---------------------------------------------------------------------------


#: Largest N of a matrix theory: its beamsplitter alone is a dense N x N
#: matrix, 16 MB for quantum and 32 MB for quaternionic at N = 1024.
MAX_MATRIX_LEVELS = 1024

#: Largest N whose spanning set is built: N + |PHASES| N(N - 1)/2 kets at
#: once, 4 MB for quantum and 17 MB for quaternionic at N = 64, each read
#: by every phase check.
MAX_SPANNING_LEVELS = 64

_STATE, _MAP = "a state", "a map or effect"  # the roles MatrixTheory._form reads an operand in
_COMPLEX, _FLOAT = np.dtype(complex), np.dtype(float)  # the usual entries' dtypes, taken by identity


class MatrixTheory(TheoryModel):
    """N-level system whose states are density matrices over a scalar algebra.

    Shared code, ``apply`` and ``probability`` too, reads a matrix through its
    *entries*, a (k, rows, cols) array of the k algebra components.  A
    subclass declares its algebra (``PHASES``, ``PINNED``, family
    descriptions, ``_``-prefixed hooks) and five kernels: ``_ket_image`` (T psi),
    ``_diagonal_read`` (a ket read by a real diagonal), ``_conjugate`` (T rho
    T^dagger), ``_trace_prob`` (tr(E rho)) and ``_real`` (a trace's real part).

    Every operand, state, map or effect, is classified once per public call
    by :meth:`_form`, by its exact type.  A state takes one of three forms: an N x N density, a
    ket (an N x 1 matrix of the same type, for a pure state:
    :meth:`branch_ket`, the spanning states, the locality probes), or a
    :class:`DiagonalMap` (a state diagonal in the branch basis: the weighted
    remote mixture probe).  A ket evolves as T psi, in O(N^2), and reads as
    tr(E psi psi^dagger).

    A diagonal map is a :class:`DiagonalMap` (the phase and branch family
    samples, :meth:`diagonal_map`, :meth:`identity_map`): it composes and acts
    entrywise, and two commute when conj(b_i a_i) a_i b_i is one central unit,
    in O(1) for exact units, one side real.  A dense operand materializes it.
    A dense map always takes the dense rule, whatever its entries.  A real
    finite diagonal acts by scaling with its real entries, no algebra
    product.  A real diagonal is also an effect, read in O(N) by
    ``probability``.
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
            lambda rng: DiagonalMap(self._random_phases(rng, self.dim)),
        )
        super().__init__(name, N, ParametricGroup(phases, self._branch_family))
        k = self.PHASES.shape[1]  # a one-component algebra keeps native N x N arrays
        lead = () if k == 1 else (k,)
        self._diagonal_shape, self._ket_shape, self._map_shape = (k, N), (*lead, N, 1), (*lead, N, N)
        self._complex_entries = self.PHASES.dtype.kind == "c"  # a quaternion's components are real
        n_qubits = int(round(np.log2(N)))
        if 2**n_qubits == N:
            self.beamsplitter = self._matrix(self._lift(hadamard_matrix(n_qubits)))

    def _lift(self, real) -> np.ndarray:
        # entries of a real array: component 0, in the algebra's dtype
        entries = np.zeros((self.PHASES.shape[1],) + np.shape(real), dtype=self.PHASES.dtype)
        entries[0] = real
        return entries

    def diagonal_map(self, values) -> DiagonalMap:
        """Diagonal map with the real entries ``values``."""
        return DiagonalMap(self._lift(values))

    def dense(self, trans):
        """``trans`` as an N x N matrix: a :class:`DiagonalMap` is
        materialized, with exact zeros off the diagonal; any other map is
        returned as it is."""
        return self._as_dense(trans, self._form(trans, _MAP))

    def _as_dense(self, x, form: str):
        # x, a diagonal or an N x N matrix as _form found it, as an N x N matrix
        return self._dense(x.comps) if form == "diagonal" else x

    def _dense(self, d):
        # the N x N matrix with the (k, N) entries d on its diagonal
        entries = np.zeros(d.shape + (self.dim,), dtype=self.PHASES.dtype)
        i = np.arange(self.dim)
        entries[:, i, i] = d
        return self._matrix(entries)

    def branch_state(self, j: int):
        return self._dense(self._lift(np.eye(self.dim)[self._branch(j)]))

    def _column(self, amplitudes):
        # the N x 1 ket with the (k, N) entries ``amplitudes``
        return self._matrix(amplitudes[:, :, None])

    def _form(self, x, role: str) -> str:
        # the one operand rule, read once per operand of every public call, by exact type: "diagonal"
        # for a DiagonalMap of (k, N) entries (not complex for quaternions), "density" for an
        # N x N matrix of the algebra's own type and a numeric dtype, "ket" for an N x 1 one read
        # as a state.  Anything else, a subclass of either type or a string or object array too, is refused by name
        kind = type(x)
        if kind is DiagonalMap:
            if x.comps.shape == self._diagonal_shape and (self._complex_entries or x.comps.dtype.kind != "c"):
                return "diagonal"
        elif kind is self._matrix_type:
            entries = getattr(x, "comps", x)
            dtype = entries.dtype
            if dtype is _COMPLEX or dtype is _FLOAT or dtype.kind in "biufc":
                shape = entries.shape
                if shape == self._map_shape:
                    return "density"
                if shape == self._ket_shape and role == _STATE:
                    return "ket"
        raise self._refusal(x, role)

    def _refusal(self, x, role: str) -> ValueError:
        # why _form took no form for x: its type, then a matrix's dtype, then its shape, then a diagonal's dtype
        N, kind = self.dim, type(x)
        if kind is DiagonalMap:
            if x.comps.shape != self._diagonal_shape:
                got = f"a diagonal of {N} entries, got one of shape {x.comps.shape}"
            else:
                got = f"a diagonal of real components, got one of dtype {x.comps.dtype}"
        elif kind is not self._matrix_type:
            got = f"{role} of type {self._matrix_type.__name__} or DiagonalMap, got {kind.__name__}"
        elif self._entries(x).dtype.kind not in "biufc":
            got = f"{role} of numeric dtype, got dtype {self._entries(x).dtype}"
        elif role == _STATE:
            got = f"a {N}x1 ket or a {N}x{N} density matrix, got a matrix of shape {self._entries(x).shape[1:]}"
        else:
            got = f"a {N}x{N} map or effect, got a matrix of shape {self._entries(x).shape[1:]}"
        return ValueError(f"{self.name} theory expects {got}")

    def branch_ket(self, j: int):
        """The ket of :meth:`branch_state`."""
        return self._column(self._lift(np.eye(self.dim)[self._branch(j)]))

    def uniform_superposition(self):
        ket = self._column(self._lift(np.full(self.dim, 1.0 / np.sqrt(self.dim))))
        return self._read_only(ket @ self._dagger(ket))

    def _pair_ket(self, j: int, k: int, phase: int):
        # (|j> + |k> PHASES[phase]) / sqrt(2)
        ket = self._lift(np.zeros(self.dim))
        ket[0, j] = 1.0 / np.sqrt(2.0)
        ket[:, k] = self.PHASES[phase] / np.sqrt(2.0)
        return self._column(ket)

    @cached_property
    def z_effects(self):
        return tuple(self.branch_state(j) for j in range(self.dim))

    @cached_property
    def spanning_states(self):
        # branch kets plus one pair ket per pair of levels and phase: their
        # densities affinely span the unit-trace Hermitian matrices
        _exact_int(self.dim, "N", high=MAX_SPANNING_LEVELS, owner=f"{self.name} spanning set", bound="MAX_SPANNING_LEVELS")
        states = [self.branch_ket(j) for j in range(self.dim)]
        for j, k in itertools.combinations(range(self.dim), 2):
            states.extend(self._pair_ket(j, k, p) for p in range(len(self.PHASES)))
        return tuple(states)

    def _density(self, state, form: str) -> np.ndarray:
        # the (k, N, N) entries of ``state``, of the given form, as a density
        # matrix: a ket as psi psi^dagger, a diagonal materialized
        if form == "ket":
            return self._entries(state @ self._dagger(state))
        return self._entries(self._as_dense(state, form))

    def branch_probabilities(self, state) -> np.ndarray:
        return self._branch_probabilities(state, self._form(state, _STATE))

    def _branch_probabilities(self, state, form: str) -> np.ndarray:
        # a ket reads as its per-arm squared norms; any other form as the
        # real parts of its diagonal, where any other component of a
        # diagonal entry (imaginary, or i/j/k) above atol, or a NaN one,
        # is numeric inconsistency
        if form == "ket":
            psi = self._entries(state)[:, :, 0]
            return np.real(psi * np.conj(psi)).sum(axis=0)
        diag = state.comps if form == "diagonal" else np.diagonal(self._entries(state), axis1=-2, axis2=-1)
        residue = np.concatenate([diag[0].imag, diag[1:].ravel()])
        if not near_zero(residue, self.atol):
            raise NumericConsistencyError(f"diagonal has non-real residue {np.abs(residue).max():.3e}")
        return diag[0].real

    def branch_local_probes(self, branch: int):
        """Probe set equivalent to the full face for the group's maps, each
        probe O(N) entries.

        Fixing a zero-support state with distinct spectrum, the weighted
        remote mixture (a diagonal), forces the map to be branch-diagonal;
        fixing the uniform remote superposition (a ket) forces a common
        remote entry; the pair kets of the ``PINNED`` phases (i and j for
        quaternions) force that entry to be central.  With two branches the
        mixture is the remote projector, which is the whole face.
        """
        N, branch = self.dim, self._branch(branch)
        ramp, uniform, pinned = self._probe_bases
        # weights 1, ..., N - 1 (scaled) on the remote branches in order, 0 on the branch
        weights = np.zeros(self._diagonal_shape, dtype=self.PHASES.dtype)
        weights[0, :branch] = ramp[1 : branch + 1]
        weights[0, branch + 1 :] = ramp[branch + 1 : N]
        mixture = DiagonalMap(weights)
        if N == 2:
            return (mixture,)
        amplitudes = self._lift(uniform)
        amplitudes[:, branch] = 0.0
        pair = (0, 1) if branch > 1 else (1 - branch, 2)  # the first two remote branches
        if pair not in pinned:
            pinned[pair] = tuple(self._pair_ket(*pair, p) for p in self.PINNED)
        return (mixture, self._of_product(amplitudes[:, :, None])) + pinned[pair]

    @cached_property
    def _probe_bases(self):
        # what no branch changes in the locality probes, O(N) in all: the
        # read-only ramp 0, 1, ..., N scaled to the mixture's weights and
        # uniform amplitudes, and a dict of the pinned pair kets for each of
        # the three pairs of first two remote branches, filled when first read
        N = self.dim
        ramp = np.arange(float(N + 1)) / (N * (N - 1) / 2)
        uniform = np.full(N, 1.0 / np.sqrt(N - 1.0))
        ramp.setflags(write=False)
        uniform.setflags(write=False)
        return ramp, uniform, {}

    def contains(self, state) -> bool:
        rho = self._matrix(self._density(state, self._form(state, _STATE)))
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            if not near_zero(self._entries(rho) - self._entries(self._dagger(rho)), self.atol):
                return False
        if not near_zero(np.trace(self._entries(rho)[0]).real - 1.0, self.atol):
            return False
        return bool(np.linalg.eigvalsh(self._complex_form(rho)).min() >= -self.atol)

    def states_close(self, a, b) -> bool:
        """Whether ``a`` and ``b`` are one state within atol: two of one form
        with equal, finite entries are at once; otherwise two diagonals
        compare entrywise, two kets after aligning their global phase, and
        any other pair as densities.  The ket test, O(N) against O(N^2), is
        one-sided: kets it accepts are close as densities, not the converse
        ((1, 0) and (1, 5e-10) in ``quantum_theory(1)`` fail it)."""
        fa, fb = self._form(a, _STATE), self._form(b, _STATE)
        if fa == fb:  # equal bits, a zero's sign aside: how a sign flip leaves each probe it fixes
            entries = getattr(a, "comps", a)
            if not np.count_nonzero(entries != getattr(b, "comps", b)) and np.count_nonzero(np.isfinite(entries)) == entries.size:
                return True
            if fa == "ket":
                return self._kets_close(a, b)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            if fa == fb == "diagonal":
                return near_zero(a.comps - b.comps, self.atol)
            return near_zero(self._density(a, fa) - self._density(b, fb), self.atol)

    def _kets_close(self, a, b) -> bool:
        # a = b u, entry by entry, for the unit u read off <b|a> = sum_i
        # conj(b_i) a_i: a unit complex number, or a unit quaternion on the
        # right.  The test is linear in the error and sound.  With k
        # components, S >= 1 bounding the norms of a and b (so every entry's
        # magnitude), and every component of a - b u within
        # e = atol / (3 sqrt(k) S), an entry of the error has magnitude at
        # most sqrt(k) e, so the densities differ by at most
        # 2 S sqrt(k) e + k e^2 < atol in every entry
        a, b = self._entries(a)[:, :, 0], self._entries(b)[:, :, 0]
        with np.errstate(all="ignore"):  # a NaN, infinity or overflow fails below
            overlap = self._entrywise(self._conj(b), a).sum(axis=1)
            size = np.sqrt(np.vdot(overlap, overlap).real)
            unit = overlap / size if size > 0.0 else self.PHASES[0]
            error = a - self._entrywise(b, unit[:, None])
            bound = np.sqrt(max(1.0, np.vdot(a, a).real, np.vdot(b, b).real) * len(a))
            return near_zero(error, self.atol / (3.0 * bound))

    def compose(self, second, first):
        # a diagonal meeting a dense map is materialized, so the product is
        # the dense one bit for bit
        fs, ff = self._form(second, _MAP), self._form(first, _MAP)
        if fs == ff == "diagonal":
            return DiagonalMap(self._entrywise(second.comps, first.comps))
        return self._read_only(self._as_dense(second, fs) @ self._as_dense(first, ff))

    def identity_map(self):
        return self.diagonal_map(np.ones(self.dim))

    def _is_central_unit(self, d) -> bool:
        # whether the (k, N) entries d all lie within atol of one global
        # phase: a unit complex number, or a real sign for quaternions
        first = d[0, 0]
        deviation = d.copy()
        deviation[0] -= first
        deviation[0, 0] = abs(first) - 1.0  # and the first entry is a unit
        return near_zero(deviation, self.atol)

    def is_identity_map(self, trans) -> bool:
        return self._is_identity(trans, self._form(trans, _MAP))

    def _is_identity(self, M, form: str) -> bool:
        # M acts as the identity exactly when it is a global phase times it:
        # every entry finite, those off the diagonal within atol of zero, and
        # the diagonal a central unit
        if form == "diagonal":
            if M.real and M.unit:  # entries exactly +-1: they deviate from one sign by 0 or by 2
                return near_zero(0.0 if M.constant else 2.0, self.atol)
            return M.finite and self._is_central_unit(M.comps)
        entries = self._entries(M)
        d = np.diagonal(entries, axis1=-2, axis2=-1)
        if not np.isfinite(d).all():
            return False
        return near_zero(entries - self._entries(self._dense(d)), self.atol) and self._is_central_unit(d)

    def probability(self, effect, state) -> float:
        form = self._form(state, _STATE)
        if self._form(effect, _MAP) == "density":
            if form == "ket":
                return self._real(self._ket_trace(effect, state), self.atol)
            return self._trace_prob(effect, self._as_dense(state, form), self.atol)
        if not effect.real:  # a non-real diagonal is not self-adjoint
            raise ValueError(f"{self.name} theory reads a diagonal effect with real entries, got a non-real (non-Hermitian) one")
        if form == "ket":  # read in O(N)
            return self._diagonal_read(effect.comps, state)
        return float(effect.comps[0].real @ self._branch_probabilities(state, form))

    def _ket_trace(self, effect, ket) -> np.ndarray:
        # the k components of tr(E psi psi^dagger) = sum_i (E psi)_i conj(psi_i), in that order:
        # psi^dagger E psi shares its real part but, for quaternions, not its i/j/k residue
        psi = self._entries(ket)[:, :, 0]
        return self._entrywise(self._entries(effect @ ket)[:, :, 0], self._conj(psi)).sum(axis=1)

    def apply(self, trans, state):
        form = self._form(state, _STATE)
        if self._form(trans, _MAP) == "diagonal":  # d psi, d_i w_i conj(d_i), or d_i rho_ij conj(d_j): entrywise
            mul, conj, d = self._entrywise, self._conj, trans.comps
            if scales := trans.real and trans.finite:  # a real d scales by its component 0: no algebra product
                mul, conj, d = np.multiply, np.conj, d[:1]
            if form == "diagonal":
                return DiagonalMap(mul(mul(d, state.comps), conj(d)))
            image = mul(d[:, :, None], self._entries(state))
            if form == "density":
                image = mul(image, conj(d)[:, None, :])
            return self._of_product(image, scales and state.real)  # scaled, a real operand stays real
        if form == "ket":
            return self._ket_image(trans, state)
        return self._read_only(self._conjugate(trans, self._as_dense(state, form)))

    def maps_commute(self, a, b) -> bool:
        # ab and ba induce one conjugation exactly when (ba)^dagger (ab) acts as the identity, entrywise
        # for two diagonals; a non-finite entry (checked before any product) or an overflow gives False
        fa, fb = self._form(a, _MAP), self._form(b, _MAP)
        if fa == fb == "diagonal":
            return a.finite and b.finite and self._diagonals_commute(a, b)
        a, b = self._as_dense(a, fa), self._as_dense(b, fb)
        if not (np.isfinite(self._entries(a)).all() and np.isfinite(self._entries(b)).all()):
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            return self._is_identity(self._dagger(b @ a) @ (a @ b), "density")

    def _diagonals_commute(self, a, b) -> bool:
        # the one rule for two finite diagonals, in both algebras: conj(b_i a_i) a_i b_i is one
        # central unit, at once when exact unit entries meet a real side, whose units are central
        if a.unit and b.unit and (a.real or b.real):
            return True
        with np.errstate(over="ignore", invalid="ignore"):
            ab, ba = self._entrywise(a.comps, b.comps), self._entrywise(b.comps, a.comps)
            return self._is_central_unit(self._entrywise(self._conj(ba), ab))

    def _branch_family(self, branch: int) -> ParametricFamily:
        def sample(rng: np.random.Generator):
            # the central part of a random unit (itself if complex, its real
            # sign if quaternionic) as global phase, a random unit on branch
            first = self._random_phases(rng, 1)[0, 0]
            global_phase = first / abs(first)
            d = self._lift(np.full(self.dim, global_phase))
            d[:, branch] = global_phase * self._random_phases(rng, 1)[:, 0]
            return DiagonalMap(d)

        return ParametricFamily(self.BRANCH_FAMILY.format(branch=branch), sample)


class DensityMatrixTheory(MatrixTheory):
    """N = 2**n level quantum system: complex entries, unitary dynamics.

    Matrices stay native complex arrays; their entries are a (1, N, N) view.
    """

    PHASES = np.array([[1.0], [1.0j]])
    PINNED = ()  # every unit complex number is a global phase
    PHASE_FAMILY = "branch-diagonal unitaries"
    BRANCH_FAMILY = "phase on branch {branch} up to a global phase"

    def __init__(self, n_qubits: int):
        # 2**n <= MAX_MATRIX_LEVELS, compared without building 2**n
        n_qubits = _exact_int(n_qubits, "n", 1, MAX_MATRIX_LEVELS.bit_length() - 1, "quantum", "log2 MAX_MATRIX_LEVELS")
        super().__init__("quantum", 2**n_qubits)

    _matrix_type = np.ndarray

    @staticmethod
    def _read_only(M):
        # read-only, as a QuatMatrix is, so a built map or an image can be shared
        M.setflags(write=False)
        return M

    # ``real`` is a quaternionic shortcut, unread here, where ``.real`` is a real-part array
    _matrix = _of_product = staticmethod(lambda entries, real=False: DensityMatrixTheory._read_only(entries[0]))

    _entries = staticmethod(lambda M: np.asarray(M)[None])
    _dagger = staticmethod(lambda M: np.asarray(M).conj().T)
    _complex_form = staticmethod(np.asarray)

    def _random_phases(self, rng, count):
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))[None]

    _entrywise = staticmethod(np.multiply)
    _conj = staticmethod(np.conj)

    # d, the (1, N) entries: d.T * psi is the column of products d_i psi_i, with no per-call slice
    _diagonal_read = staticmethod(lambda d, ket: float(np.vdot(ket, d.T * ket).real))
    _conjugate = staticmethod(lambda T, rho: T @ rho @ T.conj().T)

    @staticmethod
    def _ket_image(T, psi):
        # T psi through np.dot, the bytes of T @ psi sooner, read-only
        image = np.dot(T, psi)
        image.setflags(write=False)
        return image

    _trace_prob = staticmethod(lambda E, rho, atol: DensityMatrixTheory._real(np.einsum("ij,ji->", E, rho), atol))

    @staticmethod
    def _real(t, atol) -> float:
        t = t.item()
        if not near_zero(t.imag, atol):
            raise NumericConsistencyError(f"trace has imaginary residue {abs(t.imag):.3e}")
        return t.real

    # bench/tracer.py times these five through each class's own __dict__
    apply = MatrixTheory.apply
    probability = MatrixTheory.probability
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
        N = _exact_int(N, "N", 2, MAX_MATRIX_LEVELS, "quaternionic", "MAX_MATRIX_LEVELS")
        super().__init__("quaternionic", N)

    _matrix_type = QuatMatrix
    _matrix = staticmethod(QuatMatrix)
    _of_product = staticmethod(QuatMatrix._of_product)
    _read_only = staticmethod(lambda M: M)  # a QuatMatrix is read-only already
    _entries = staticmethod(lambda M: M.comps)
    _dagger = staticmethod(QuatMatrix.dagger)
    _complex_form = staticmethod(QuatMatrix.complex_adjoint)
    _entrywise = staticmethod(_hamilton_entrywise)
    _conj = staticmethod(_conj)

    def _random_phases(self, rng, count):
        q = rng.standard_normal((count, 4))
        return (q / np.linalg.norm(q, axis=1, keepdims=True)).T

    @staticmethod
    def _diagonal_read(d, ket) -> float:
        # d . sum_c psi_c^2, which no unit on the right changes, summed in place on the (4, N, 1)
        # components; a real ket's other squares are +0, which leave the sum's bits as they are
        comps = ket.comps
        return float(np.vdot(d[0], comps[0] ** 2 if ket.real else np.add.reduce(comps**2, 0)))

    _ket_image = staticmethod(QuatMatrix.__matmul__)  # S psi by the one product rule of maps: real takes one real product
    # conjugate_state and real_trace_prob are looked up at call time, so a wrapper sees each call
    _conjugate = staticmethod(lambda S, rho: conjugate_state(S, rho))
    _trace_prob = staticmethod(lambda E, rho, atol: real_trace_prob(E, rho, atol))
    _real = staticmethod(_real_part)

    # bench/tracer.py times these five through each class's own __dict__
    apply = MatrixTheory.apply
    probability = MatrixTheory.probability
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
