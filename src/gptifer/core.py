"""Foundation for operational theories: states, effects, transformations.

A state is a vector of outcome probabilities for a fixed list of fiducial
measurements; an effect is a covector whose pairing with a state gives an
outcome probability; reversible dynamics are real matrices mapping the state
space onto itself.  A :class:`TheoryModel` bundles a state space with its
branch ("which arm?") measurement and its transformation group, and reduces
"for all states" questions to finite spanning sets: every predicate used in
this package is affine in the state, so checking it on an affine spanning set
settles it everywhere.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

#: Absolute tolerance for theories that need floating-point comparisons.
#: Theories whose matrices are integer-valued use an exact tolerance of 0.
DEFAULT_ATOL = 1e-9

#: Least tolerance of the checks on probabilities, whose float sums round.
PROBABILITY_FLOOR = 1e-12


#: Scalars that ``near_zero`` decides without numpy dispatch: a real's
#: modulus is exact, so the verdict is the array path's.  A complex scalar
#: takes the array path: Python's and numpy's scalar moduli differ from the
#: array modulus by an ulp for about 1% of values.
_REAL_SCALARS = (int, float, np.floating)


def near_zero(x, atol: float) -> bool:
    """Whether every entry of ``x`` is within ``atol`` of zero: the one closeness
    test, absolute, and failed by a NaN or infinite entry."""
    if isinstance(x, _REAL_SCALARS):
        return bool(not x or abs(x) <= atol)
    x = np.asarray(x)
    # np.abs wraps the most negative signed integer to itself: a passing integer array is read again as floats
    return bool(not x.any() or np.abs(x).max() <= atol and (x.dtype.kind != "i" or np.abs(x.astype(float)).max() <= atol))


def _exact_int(value, label: str, low=None, high=None, owner: str = "", bound: str = "") -> int:
    # the one integer rule for every size, count and branch index: bool, str and float are
    # refused rather than coerced, and numpy integers become the equal Python int so that specs
    # compare and serialize alike; a value outside [low, high] (either end optional) is refused
    # as "{owner} takes {low} <= {label} <= {high} ({bound}), got {label} = {value}"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{label} must be an integer{f' for {owner}' if owner else ''}, got {value!r}")
    value = operator.index(value)
    if (low is not None and value < low) or (high is not None and value > high):
        span = " <= ".join(str(x) for x in (low, label, high) if x is not None)
        raise ValueError(f"{owner} takes {span}{f' ({bound})' if bound else ''}, got {label} = {value}")
    return value


def _readonly(values, dtype=float) -> np.ndarray:
    # C order: a transposed view would slow every entrywise product.  Strings and objects are refused, not
    # parsed, and complex entries for a given dtype, not cut to real parts; an ndarray is copied once
    arr = np.asarray(values)
    if arr.dtype.kind not in ("biufc" if dtype is None else "biuf"):
        raise ValueError(f"entries must be {'real ' if dtype is not None else ''}numbers, got dtype {arr.dtype}")
    arr = np.array(arr, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


class _Flag:
    # a flag of DiagonalMap: the first read of any of the four computes all four into the
    # instance's __dict__, where each later read finds its value before this descriptor

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, diagonal, owner=None):
        if diagonal is None:
            return self
        diagonal.__dict__.update(diagonal._flags())
        return diagonal.__dict__[self.name]


@dataclass(frozen=True, eq=False)
class DiagonalMap:
    """Map diagonal in the branch basis, stored as its (k, N) entries over
    a k-component scalar algebra.

    ``comps`` is read-only.  Four flags are computed together, once, when
    the first of them is read: ``finite``, whether every entry is finite,
    ``real`` whether every entry is real: no imaginary part and no component
    past the first, ``unit`` whether every entry's squared components sum to
    exactly 1.0, and ``constant`` whether every entry equals the first exactly.
    ``MatrixTheory.dense`` gives the N x N matrix.  A matrix theory also
    reads a diagonal as a state or an effect diagonal in the branch basis.
    """

    comps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comps", _readonly(self.comps, None))

    finite, real, unit, constant = _Flag(), _Flag(), _Flag(), _Flag()

    def _flags(self) -> dict:
        # counted with np.count_nonzero, about half the cost of .all() or .any(); a real entry
        # squares to exactly 1.0 only when it is +-1, so a real diagonal's unit test squares nothing
        c, n = self.comps, self.comps.size
        real = not ((np.iscomplexobj(c) and np.count_nonzero(c.imag)) or np.count_nonzero(c[1:]))
        if real:
            unit = np.count_nonzero(np.abs(c[0]) == 1.0) == c[0].size
        else:
            with np.errstate(over="ignore"):  # an overflowing square is not 1.0
                unit = ((np.abs(c) ** 2).sum(axis=0) == 1.0).all()
        flags = (np.count_nonzero(np.isfinite(c)) == n, real, unit, np.count_nonzero(c == c[:, :1]) == n)
        return dict(zip(("finite", "real", "unit", "constant"), map(bool, flags)))


@dataclass(frozen=True, eq=False)
class GptState:
    """Vector of fiducial-measurement outcome probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))
        if self.probs.ndim != 1:
            raise ValueError("a state must be a flat probability vector")

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def __repr__(self):
        return f"GptState({np.array2string(self.probs, separator=', ')})"


@dataclass(frozen=True, eq=False)
class Effect:
    """Covector pairing with states to give an outcome probability."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        if self.weights.ndim != 1:
            raise ValueError("an effect must be a flat covector")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def __repr__(self):
        return f"Effect({np.array2string(self.weights, separator=', ')})"


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Real square matrix acting on probability vectors.

    ``name`` is a human-readable label used in reports ("identity",
    "X-flip", one-line permutation strings, ...).  Equality and hashing go
    through the matrix values, so finite groups can be used as sets and a
    relabeling equals its dense matrix.
    """

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("a transformation must be a square matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and bool((self.matrix == other.matrix).all())

    def __hash__(self):
        return hash((self.matrix.shape, (self.matrix + 0.0).tobytes()))  # + 0.0 makes -0.0 hash as 0.0

    def __repr__(self):
        label = self.name or "unnamed"
        return f"LinearMap<{label}, dim={self.dim}>"


def _is_permutation(image: np.ndarray) -> bool:
    # in Python, which is faster than numpy calls at the sizes of a theory's coordinates
    return image.ndim == 1 and sorted(image.tolist()) == list(range(image.shape[0]))


class Relabeling(LinearMap):
    """The 0/1 map carrying coordinate j to coordinate ``image[j]``, stored
    as its image, a read-only permutation of 0..D-1.

    It acts by moving each entry of a state to its image, with no
    arithmetic, so a NaN or infinite entry moves and nothing else changes.
    Two relabelings compose by composing their images.  ``matrix`` is built
    only when something reads it, as comparing or hashing does.
    """

    def __init__(self, image, name: str = ""):
        image = np.asarray(image)
        if image.dtype.kind not in "iu":
            raise ValueError("a relabeling's image must hold integers")
        if not _is_permutation(image):
            raise ValueError(f"a relabeling's image must be a permutation of 0..D-1, got {image.tolist()}")
        object.__setattr__(self, "image", _readonly(image, np.intp))
        object.__setattr__(self, "name", name)

    @property
    def dim(self) -> int:
        return self.image.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = np.zeros((self.dim, self.dim))
        matrix[self.image, np.arange(self.dim)] = 1.0
        matrix.setflags(write=False)
        return matrix


# ---------------------------------------------------------------------------
# Transformation groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group of relabelings, closed under composition.

    ``images`` is one read-only (order, D) integer array: row i is the image
    of element i, a permutation of 0..D-1.  ``name_of(image)`` names the
    element of one row.
    :attr:`elements` builds them all, in row order, when first read, so a
    built group holds no per-element object: 46,080 elements over D = 12
    take 553 KB as int8 rows.  :meth:`by_name` names rows until one matches
    and builds that element alone.
    """

    images: np.ndarray
    name_of: Callable[[np.ndarray], str]

    def __post_init__(self):
        object.__setattr__(self, "images", _readonly(self.images, None))
        if self.images.ndim != 2 or not (np.sort(self.images, axis=1) == np.arange(self.images.shape[1])).all():
            raise ValueError("a finite group's images must be rows of permutations of 0..D-1")

    def __len__(self):
        return self.images.shape[0]

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def elements(self) -> tuple[Relabeling, ...]:
        return self.take(range(len(self)))

    def element(self, image) -> Relabeling:
        """The element whose image is ``image``, with its name."""
        return Relabeling(image, self.name_of(image))

    def take(self, rows) -> tuple[Relabeling, ...]:
        """The elements of ``rows``, in their order."""
        return tuple(self.element(self.images[i]) for i in rows)

    def by_name(self, name: str) -> Relabeling:
        for image in self.images:
            if self.name_of(image) == name:
                return Relabeling(image, name)
        raise KeyError(name)


@dataclass(frozen=True)
class ParametricFamily:
    """A continuous family of transformations given by description + sampler."""

    description: str
    sample: Callable[[np.random.Generator], Any]


@dataclass(frozen=True)
class ParametricGroup:
    """Continuous transformation group, given by its declared phase families.

    ``phase_family`` describes the claimed phase operations, ``branch_family(i)``
    those claimed to be locally implementable on branch ``i``; the claims are
    verified by seeded sampling in the phase-analysis layer, never assumed.
    """

    phase_family: ParametricFamily
    branch_family: Callable[[int], ParametricFamily]


TransformationGroup = FiniteGroup | ParametricGroup


# ---------------------------------------------------------------------------
# Theory models
# ---------------------------------------------------------------------------


class TheoryModel:
    """Base interface shared by all concrete theories.

    Subclasses fix the state representation (probability vectors here;
    density matrices for the many-level quantum-like theories) and implement
    the pairing, action and comparison primitives.  Everything downstream
    (phase analysis, interferometry) is written against this interface.
    """

    def __init__(
        self,
        name: str,
        n_branches: int,
        group: TransformationGroup,
        atol: float = DEFAULT_ATOL,
    ):
        self.name = name
        self._n_branches = _exact_int(n_branches, "n_branches", low=2, owner=name)
        self.group = group
        self.atol = float(atol)
        #: Hadamard-type transform mixing all branches, if the theory has one.
        self.beamsplitter = None

    @property
    def n_branches(self) -> int:
        return self._n_branches

    @property
    def z_effects(self) -> tuple:
        """Effects of the branch measurement, one per branch."""
        raise NotImplementedError

    @property
    def spanning_states(self) -> tuple:
        """Finite set of states affinely spanning the state space."""
        raise NotImplementedError

    # -- representation-specific primitives --------------------------------

    def branch_probabilities(self, state) -> np.ndarray:
        """Statistics of the branch measurement on ``state``, one per branch."""
        raise NotImplementedError

    def probability(self, effect, state) -> float:
        raise NotImplementedError

    def apply(self, trans, state):
        raise NotImplementedError

    def contains(self, state) -> bool:
        raise NotImplementedError

    @cached_property
    def _faces(self) -> tuple:
        stats = [self.branch_probabilities(s) for s in self.spanning_states]
        return tuple(
            tuple(s for s, p in zip(self.spanning_states, stats) if near_zero(p[b], self.atol))
            for b in range(self.n_branches)
        )

    def _branch(self, branch) -> int:
        # a branch index of this theory, by the one integer rule
        return _exact_int(branch, "branch", 0, self._n_branches - 1, self.name)

    def face_states(self, branch: int) -> tuple:
        """Affine spanning set of the zero-support face of ``branch``: the
        spanning states with no probability on it."""
        return self._faces[self._branch(branch)]

    def branch_local_probes(self, branch: int) -> tuple:
        """States probed by the branch-locality test.

        Defaults to the full face spanning set; theories may substitute a
        smaller set that is equivalent for norm-preserving reversible maps.
        """
        return self.face_states(branch)

    def states_close(self, a, b) -> bool:
        raise NotImplementedError

    def compose(self, second, first):
        """Transformation applying ``first`` and then ``second``."""
        raise NotImplementedError

    def identity_map(self):
        raise NotImplementedError

    def is_identity_map(self, trans) -> bool:
        """Whether ``trans`` acts as the identity on every state."""
        raise NotImplementedError

    def maps_commute(self, a, b) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class VectorTheory(TheoryModel):
    """Theory whose states are explicit probability vectors.

    ``branch_measurement`` is the index of the layout block that the branch
    measurement reads (negative indices count from the end); its effects are
    the coordinate covectors of that block.  A state is contained when its
    blocks are probability distributions and, if given, ``within`` holds
    for it: the extra constraint that cuts the state space out of the
    product of simplices (a ball bound, a tetrahedron's weights, ...).
    """

    def __init__(
        self,
        name: str,
        fiducial_layout: Sequence[tuple[str, int]],
        branch_measurement: int,
        spanning_states: Sequence[GptState],
        group: TransformationGroup,
        within: Callable[[GptState], bool] | None = None,
        atol: float = DEFAULT_ATOL,
        extremal_states: Sequence[GptState] | None = None,
    ):
        layout = tuple((label, _exact_int(count, f"{label} outcomes", low=2, owner=name)) for label, count in fiducial_layout)
        counts = [count for _, count in layout]
        n_branches = counts[branch_measurement]
        super().__init__(name, n_branches, group, atol)
        self.fiducial_layout = layout
        self._spanning = tuple(spanning_states)
        self._within = within
        #: Vertices of the state polytope, or None for round state spaces.
        self.extremal_states = None if extremal_states is None else tuple(extremal_states)
        self.state_dim = sum(counts)
        if any(s.dim != self.state_dim for s in self._spanning):
            raise ValueError("inconsistent state dimensions in theory definition")
        offset = sum(counts[: branch_measurement % len(counts)])
        self._z_weights = _readonly(np.eye(self.state_dim)[offset : offset + n_branches])
        #: 0/1 rows summing each measurement block of a state
        self._blocks = _readonly(np.repeat(np.eye(len(counts)), counts, axis=1))
        self._coords = _readonly(np.arange(self.state_dim), np.intp)
        self._phase_rows = None  # (group, its phase rows), filled by phase_rows

    @cached_property
    def z_effects(self):
        return tuple(Effect(w) for w in self._z_weights)

    @property
    def spanning_states(self):
        return self._spanning

    def branch_probabilities(self, state) -> np.ndarray:
        return self._z_weights @ self._own(state).probs

    def probability(self, effect, state) -> float:
        return probability(self._own(effect, "effect"), self._own(state))

    def apply(self, trans, state):
        return apply(self._own(trans, "map"), self._own(state))

    #: the article of each role's name and the exact types it admits
    _ROLES = {"state": ("a", (GptState,)), "effect": ("an", (Effect,)), "map": ("a", (LinearMap, Relabeling))}

    def _own(self, operand, kind: str = "state"):
        # the one operand check of every method: the role's exact type, refused by name, then this
        # dimension, refused naming the role and both dimensions, never broadcast
        article, types = self._ROLES[kind]
        if type(operand) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{self.name} theory expects {article} {kind} of type {names}, got {type(operand).__name__}")
        if operand.dim != self.state_dim:
            raise ValueError(
                f"{kind} dimension {operand.dim} does not match theory dimension {self.state_dim}"
            )
        return operand

    def contains(self, state) -> bool:
        """Finite entries within [0, 1], each measurement block summing to
        one, and ``within`` if given."""
        probs = self._own(state).probs
        tol = max(self.atol, PROBABILITY_FLOOR)
        if not np.isfinite(probs).all() or probs.min() < -tol or probs.max() > 1.0 + tol:
            return False
        if np.abs(self._blocks @ probs - 1.0).max() > tol:
            return False
        return self._within is None or bool(self._within(state))

    def states_close(self, a, b) -> bool:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            return near_zero(self._own(a).probs - self._own(b).probs, self.atol)

    def compose(self, second, first):
        second, first = self._own(second, "map"), self._own(first, "map")
        name = ""
        if second.name and first.name:
            name = f"{second.name}*{first.name}"
        if isinstance(second, Relabeling) and isinstance(first, Relabeling):
            return Relabeling(second.image[first.image], name)
        return LinearMap(second.matrix @ first.matrix, name)

    def identity_map(self):
        return Relabeling(self._coords, "identity")

    def is_identity_map(self, trans) -> bool:
        trans = self._own(trans, "map")
        if isinstance(trans, Relabeling):
            return bool((trans.image == self._coords).all())
        return near_zero(trans.matrix - np.eye(self.state_dim), self.atol)

    def maps_commute(self, a, b) -> bool:
        a, b = self._own(a, "map"), self._own(b, "map")
        if isinstance(a, Relabeling) and isinstance(b, Relabeling):
            # ab and ba agree on every state when ba^-1 ab fixes the spanning states
            ab, undo_ba = a.image[b.image], np.empty_like(self._coords)
            undo_ba[b.image[a.image]] = self._coords
            return bool(self._keeps(undo_ba[ab], self._commute_table))
        # compared as actions on states: linear extensions off the
        # normalized hull (e.g. embedded rotations) may differ as raw
        # matrices while commuting operationally
        ab = self.compose(a, b)
        ba = self.compose(b, a)
        return all(
            self.states_close(apply(ab, s), apply(ba, s)) for s in self.spanning_states
        )

    # -- relabelings, decided on the coordinates they exchange --------------
    #
    # A relabeling moves entry j of a state to entry image[j].  So it keeps
    # what a check reads of a set of states exactly when every move keeps
    # it: when columns j and image[j] of the states agree, or the check does
    # not read entry image[j].  Each check's D x D table of such moves is
    # built once per theory; a verdict is one lookup in it, for one image
    # or for a stack of them.  A table compares within the tolerance of the
    # per-state check it replaces, so the verdicts are the same.

    def _table(self, states, tol, read=None) -> np.ndarray:
        # [j, k]: entry j of every state in ``states`` is within tol of entry k, or k is not read
        columns = np.array([s.probs for s in states]).reshape(-1, self.state_dim).T
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            table = (np.abs(columns[:, None] - columns[None, :]) <= tol).all(axis=2)
        if read is not None:
            table[:, ~read] = True
        return _readonly(table, bool)

    @cached_property
    def _phase_table(self) -> np.ndarray:
        tol = max(self.atol, PROBABILITY_FLOOR)
        return self._table(self.spanning_states, tol, self._z_weights.any(axis=0))

    @cached_property
    def _commute_table(self) -> np.ndarray:
        return self._table(self.spanning_states, self.atol)

    @cached_property
    def _local_tables(self) -> tuple:
        return tuple(self._table(self.branch_local_probes(b), self.atol) for b in range(self.n_branches))

    def _keeps(self, images, table) -> np.ndarray:
        if np.shape(images)[-1] != self.state_dim:
            raise ValueError(
                f"map dimension {np.shape(images)[-1]} does not match theory dimension {self.state_dim}"
            )
        return table[self._coords, images].all(axis=-1)

    def phase_mask(self, images) -> np.ndarray:
        """Which relabelings leave every branch statistic unchanged, as
        ``is_phase_operation`` decides on the spanning states: ``images`` is
        one relabeling's image, or a stack of images, one per row."""
        return self._keeps(images, self._phase_table)

    def phase_rows(self) -> np.ndarray:
        """Rows of ``group.images`` that are phase operations, in order:
        filtered once per theory object, and again only for a new group."""
        if self._phase_rows is None or self._phase_rows[0] is not self.group:
            self._phase_rows = (self.group, np.flatnonzero(self.phase_mask(self.group.images)))
        return self._phase_rows[1]

    def branch_local_mask(self, images, branch: int) -> np.ndarray:
        """Which relabelings fix every locality probe of ``branch``, as
        ``is_branch_local`` decides state by state; ``images`` as for
        :meth:`phase_mask`."""
        return self._keeps(images, self._local_tables[branch])


# ---------------------------------------------------------------------------
# Module-level operations on the vector representation
# ---------------------------------------------------------------------------


def probability(e: Effect, s: GptState) -> float:
    """Outcome probability of effect ``e`` on state ``s``.

    Returns the raw pairing without clamping so that invariant violations
    (values outside [0, 1]) stay detectable by callers and tests.
    """
    if e.dim != s.dim:
        raise ValueError(f"effect dimension {e.dim} does not match state dimension {s.dim}")
    return float(e.weights @ s.probs)


def apply(T: LinearMap, s: GptState) -> GptState:
    """Image of state ``s`` under ``T``.  Membership is not re-validated."""
    if T.dim != s.dim:
        raise ValueError(f"map dimension {T.dim} does not match state dimension {s.dim}")
    if isinstance(T, Relabeling):  # entry j moves to entry image[j]
        moved = np.empty_like(s.probs)
        moved[T.image] = s.probs
        return GptState(moved)
    return GptState(T.matrix @ s.probs)
