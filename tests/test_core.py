"""Tests for the state/effect/transformation foundation.

Core claims:
    - effect-state pairing reproduces hand-worked probabilities
    - apply is a raw matrix action; membership stays the caller's business
    - per-theory membership accepts the documented states and rejects the
      uncertainty-violating ones and any state with a NaN entry
    - state-space preservation gates group elements but not group membership;
      a map with a NaN entry preserves nothing
    - pairing is affine: spanning-set checks extend to convex mixtures
    - branch effects are mutually exclusive on every spanning state
    - finite groups are closed and contain the identity
    - near_zero, the one closeness test, is absolute: a NaN or infinite
      entry fails it, exactly atol passes and the next float above fails;
      an effect with a NaN weight is not a valid effect; a scalar (Python
      or numpy, real or complex, int and bool too) gets the verdict of its
      one-entry array, and a real one is decided without numpy dispatch;
      the most negative signed integer, which np.abs wraps, is far from zero
    - DiagonalMap.unit holds exactly when every entry's squared components
      sum to 1.0: signs, unit complex numbers and (1/2, 1/2, 1/2, 1/2) pass;
      1 + 2**-52, 2, 1e200 (without an overflow warning), NaN and +-inf fail;
      DiagonalMap.constant holds exactly when every entry equals the first
      in every component (a zero's sign aside), and fails on NaN; the four
      flags of one first-read pass equal their separate definitions over
      float, complex, int and bool entries with one or four components
    - a state, effect, map or diagonal refuses string and object entries
      by name, and a state, effect or map complex ones, rather than parse
      or cut them; integers and booleans convert, and an array is copied
"""

import itertools
import warnings

import numpy as np
import pytest

from gptifer.core import (
    DiagonalMap,
    Effect,
    FiniteGroup,
    GptState,
    LinearMap,
    TheoryModel,
    VectorTheory,
    apply,
    near_zero,
    probability,
)
from gptifer.theories import (
    classical_theory,
    dball_theory,
    embed_rotation,
    gbit_theory,
    qubit_state_from_expectations,
    quantum_theory,
    quaternionic_theory,
    spekkens_epistemic_theory,
    spekkens_ontic_statistics,
    spekkens_ontic_theory,
    qubit_theory,
)
from reference import is_valid_effect, preserves_statespace, reference_diagonal_flags


FINITE_THEORIES = [classical_theory(2), gbit_theory(2), gbit_theory(3),
                   spekkens_ontic_theory(), spekkens_epistemic_theory()]
ALL_VECTOR_THEORIES = FINITE_THEORIES + [qubit_theory(), dball_theory(4)]


# -- probability ---------------------------------------------------------------


def test_probability_coin_heads():
    e_heads = Effect([1.0, 0.0])
    fair = GptState([0.5, 0.5])
    assert probability(e_heads, fair) == 0.5


def test_probability_zero_effect():
    z = Effect(np.zeros(6))
    s = GptState([1, 0, 0.5, 0.5, 0.5, 0.5])
    assert probability(z, s) == 0.0


def test_probability_unit_effect_normalization():
    unit = Effect([0, 0, 0, 0, 1, 1])  # all outcomes of the Z block
    s = GptState([0.5, 0.5, 0.5, 0.5, 0.25, 0.75])
    assert probability(unit, s) == 1.0


def test_probability_dimension_mismatch():
    with pytest.raises(ValueError):
        probability(Effect([1.0, 0.0]), GptState([1.0, 0.0, 0.0]))


def test_probability_is_never_clamped():
    # raw pairings outside [0, 1] must surface so invariant tests can see them
    assert probability(Effect([2.0, 0.0]), GptState([1.0, 0.0])) == 2.0
    assert probability(Effect([-1.0, 0.0]), GptState([1.0, 0.0])) == -1.0


# -- apply ---------------------------------------------------------------------


def test_apply_identity():
    s = GptState([0.25, 0.75])
    out = apply(LinearMap(np.eye(2)), s)
    np.testing.assert_array_equal(out.probs, s.probs)


def test_apply_square_bit_x_flip():
    # layout (P(Z+), P(Z-), P(X+), P(X-)); flipping the complementary
    # measurement turns the X=+1 state into the X=-1 state
    x_flip = gbit_theory(2).group.by_name("X-flip")
    s = GptState([0.0, 1.0, 1.0, 0.0])
    out = apply(x_flip, s)
    np.testing.assert_array_equal(out.probs, [0.0, 1.0, 0.0, 1.0])


def test_apply_permutation_2143_moves_point_one_to_two():
    m = spekkens_ontic_theory()
    out = apply(m.group.by_name("2143"), spekkens_ontic_statistics(1))
    np.testing.assert_array_equal(out.probs, spekkens_ontic_statistics(2).probs)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(LinearMap(np.eye(2)), GptState([1.0, 0.0, 0.0]))


# -- membership ----------------------------------------------------------------


def test_unit_bloch_vector_is_valid():
    m = qubit_theory()
    assert m.contains(qubit_state_from_expectations(1.0, 0.0, 0.0))
    assert m.contains(qubit_state_from_expectations(0.6, 0.0, 0.8))


def test_double_certainty_is_invalid_for_qubit():
    # P(Z=+1) = 1 together with P(X=+1) = 1 violates the uncertainty bound
    m = qubit_theory()
    assert not m.contains(GptState([1, 0, 0.5, 0.5, 1, 0]))


def test_gbit_accepts_every_deterministic_vertex():
    m = gbit_theory(3)
    for v in m.spanning_states:
        assert m.contains(v)
    # the same double-certainty vector is fine without the uncertainty bound
    assert m.contains(GptState([1, 0, 1, 0, 0.5, 0.5]))


@pytest.mark.parametrize("m", [classical_theory(2), gbit_theory(2)], ids=lambda m: m.name)
def test_a_state_with_a_nan_entry_is_outside(m):
    one_nan = m.spanning_states[0].probs.copy()
    one_nan[-1] = np.nan
    assert not m.contains(GptState(np.full(m.state_dim, np.nan)))
    assert not m.contains(GptState(one_nan))


# -- state-space preservation ----------------------------------------------------


@pytest.mark.parametrize("m", ALL_VECTOR_THEORIES, ids=lambda m: m.name)
def test_identity_preserves_every_statespace(m):
    assert preserves_statespace(m, m.identity_map())


def test_permutation_preserves_ontic_statespace():
    m = spekkens_ontic_theory()
    assert preserves_statespace(m, m.group.by_name("2134"))


def test_reflection_preserves_ball_but_is_not_a_rotation():
    m = dball_theory(3)
    reflection = embed_rotation(np.diag([1.0, 1.0, -1.0]), "reflect-Z")
    assert preserves_statespace(m, reflection)


@pytest.mark.parametrize("m", [classical_theory(2), gbit_theory(2)], ids=lambda m: m.name)
def test_a_map_with_a_nan_entry_does_not_preserve_the_statespace(m):
    nan_entry = np.eye(m.state_dim)
    nan_entry[0, 0] = np.nan
    assert not preserves_statespace(m, LinearMap(nan_entry))


def test_stochastic_non_permutation_is_not_in_classical_group():
    m = classical_theory(2)
    blur = LinearMap(np.full((2, 2), 0.5))
    assert preserves_statespace(m, blur)  # stochastic maps keep the simplex
    # but are not reversible
    assert not any(np.array_equal(blur.matrix, e.matrix) for e in m.group)


# -- linearity / affinity ---------------------------------------------------------


@pytest.mark.parametrize("m", FINITE_THEORIES, ids=lambda m: m.name)
def test_pairing_respects_convex_mixtures(m):
    rng = np.random.default_rng(11)
    states = m.spanning_states
    effects = list(m.z_effects) + [
        Effect(rng.uniform(0.0, 1.0, m.state_dim)) for _ in range(3)
    ]
    for T in list(m.group.elements)[:6]:
        for _ in range(10):
            w = rng.dirichlet(np.ones(len(states)))
            mix = GptState(sum(wi * s.probs for wi, s in zip(w, states)))
            for e in effects:
                direct = probability(e, apply(T, mix))
                combined = sum(
                    wi * probability(e, apply(T, s)) for wi, s in zip(w, states)
                )
                assert direct == pytest.approx(combined, abs=1e-9)


# -- branch-effect exclusivity ------------------------------------------------------


@pytest.mark.parametrize("m", ALL_VECTOR_THEORIES, ids=lambda m: m.name)
def test_branch_effects_mutually_exclusive_vector(m):
    for s in m.spanning_states:
        values = [probability(z, s) for z in m.z_effects]
        for i, vi in enumerate(values):
            if abs(vi - 1.0) <= 1e-9:
                assert all(
                    abs(vj) <= 1e-9 for j, vj in enumerate(values) if j != i
                )


@pytest.mark.parametrize("m", [quantum_theory(2), quaternionic_theory(3)],
                         ids=lambda m: m.name)
def test_branch_effects_mutually_exclusive_matrix(m):
    for s in m.spanning_states:
        values = [m.probability(z, s) for z in m.z_effects]
        for i, vi in enumerate(values):
            if abs(vi - 1.0) <= 1e-9:
                assert all(
                    abs(vj) <= 1e-9 for j, vj in enumerate(values) if j != i
                )


# -- group structure -------------------------------------------------------------


@pytest.mark.parametrize("m", FINITE_THEORIES, ids=lambda m: m.name)
def test_finite_group_closed_and_unital(m):
    group: FiniteGroup = m.group
    matrices = {e.matrix.tobytes() for e in group.elements}
    assert LinearMap(np.eye(m.state_dim)) in set(group.elements)
    for a, b in itertools.product(group.elements, repeat=2):
        product = a.matrix @ b.matrix
        assert product.tobytes() in matrices


def test_theory_rejects_single_outcome_branch_measurement():
    with pytest.raises(ValueError):
        classical_theory(1)
    with pytest.raises(ValueError):
        gbit_theory(1)


def test_branch_and_fiducial_effects_are_valid_effects():
    for m in FINITE_THEORIES:
        for z in m.z_effects:
            assert is_valid_effect(m, z)
        for idx in range(m.state_dim):
            assert is_valid_effect(m, Effect(np.eye(m.state_dim)[idx]))
        assert not is_valid_effect(m, Effect(np.full(m.state_dim, 2.0)))
        assert not is_valid_effect(m, Effect(np.full(m.state_dim, np.nan)))
    with pytest.raises(ValueError):
        is_valid_effect(qubit_theory(), Effect(np.eye(6)[0]))


# -- the one closeness test ------------------------------------------------------


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_near_zero_fails_a_non_finite_entry(value):
    assert not near_zero(np.array([0.0, value]), 1e-9)


def test_near_zero_is_absolute_at_its_edge():
    atol = 1e-9
    assert near_zero([atol, -atol], atol)
    assert not near_zero([np.nextafter(atol, 1.0)], atol)
    assert near_zero(np.zeros((3, 3)), 0.0)
    assert not near_zero([1e-300], 0.0)
    # a large entry gets no relative allowance
    assert not near_zero(1e6 * (1.0 + 1e-12) - 1e6, 1e-9)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_near_zero_reads_the_most_negative_integer_as_far_from_zero(dtype):
    # np.abs wraps it to itself, a negative number below any atol
    low = np.iinfo(dtype).min
    assert not near_zero(np.array([low], dtype=dtype), 1e-9)
    assert not near_zero(np.array([low, 5], dtype=dtype), 10.0)
    assert near_zero(np.array([-5, 5, 0], dtype=dtype), 5.0) and not near_zero(np.array([-6, 5], dtype=dtype), 5.0)
    assert not near_zero(low, 1e-9) and not near_zero(np.array([np.iinfo(np.uint64).max], dtype=np.uint64), 1e-9)


def test_near_zero_reads_complex_magnitudes_and_passes_an_empty_array():
    assert near_zero([0.6e-9 + 0.8e-9j], 1e-9)
    assert not near_zero([0.6e-9 + 0.9e-9j], 1e-9)
    assert near_zero(np.array([]), 0.0)


_ATOL = 1e-9
_SCALARS = [
    0.0, -0.0, np.nan, np.inf, -np.inf, _ATOL, -_ATOL, np.nextafter(_ATOL, 1.0), -np.nextafter(_ATOL, 1.0),
    complex(_ATOL, 0.0), complex(0.0, -0.0), complex(0.6e-9, 0.8e-9), complex(0.6e-9, 0.9e-9), complex(np.nan, 0.0), complex(0.0, np.inf),
    np.float64(-0.0), np.float64(_ATOL), np.float64(np.nextafter(_ATOL, 1.0)), np.float64(np.nan), np.float64(-np.inf),
    np.complex128(_ATOL), np.complex128(complex(0.0, np.nextafter(_ATOL, 1.0))), np.complex128(complex(np.inf, 0.0)),
    0, 1, -1, True, False,
]


@pytest.mark.parametrize("atol", [_ATOL, 0.0, 1.0])
@pytest.mark.parametrize("value", _SCALARS, ids=repr)
def test_near_zero_decides_a_scalar_as_its_one_entry_array(value, atol):
    verdict = near_zero(value, atol)
    assert type(verdict) is bool and verdict is near_zero(np.array([value]), atol)


@pytest.mark.parametrize("value", [0.5, -0.0, np.nan, -np.inf, np.float64(1e-10), 3, True], ids=repr)
def test_near_zero_decides_a_real_scalar_without_numpy_dispatch(value, monkeypatch):
    expected = near_zero(np.array([value]), _ATOL)

    def no_array(*args, **kwargs):
        raise AssertionError("a real scalar took the array path")

    with monkeypatch.context() as patch:
        patch.setattr(np, "asarray", no_array)
        assert near_zero(value, _ATOL) is expected


# -- the unit flag of a diagonal ---------------------------------------------------


@pytest.mark.parametrize(
    "entry,unit",
    [
        ([1.0, 0.0, 0.0, 0.0], True),
        ([-1.0, 0.0, 0.0, 0.0], True),
        ([0.0, 0.0, -1.0, 0.0], True),
        ([0.5, 0.5, 0.5, 0.5], True),
        ([1.0 + 2.0**-52, 0.0, 0.0, 0.0], False),
        ([2.0, 0.0, 0.0, 0.0], False),
        ([1e200, 0.0, 0.0, 0.0], False),
        ([np.nan, 0.0, 0.0, 0.0], False),
        ([np.inf, 0.0, 0.0, 0.0], False),
        ([-np.inf, 0.0, 0.0, 0.0], False),
        ([1.0 + 0.0j], True),
        ([-1.0j], True),
        ([2.0 + 0.0j], False),
        ([complex(1.0, np.nan)], False),
    ],
    ids=["+1", "-1", "-j", "half", "1+2**-52", "2", "1e200", "nan", "+inf", "-inf", "complex-1", "complex--i", "complex-2", "complex-nan"],
)
def test_a_diagonal_is_unit_exactly_when_each_entry_has_modulus_one(entry, unit):
    # one entry alone, then beside a sign flip's entries: one failing entry fails the whole diagonal
    column = np.array(entry)[:, None]
    signs = np.zeros((len(entry), 2), dtype=column.dtype)
    signs[0] = [1.0, -1.0]
    assert DiagonalMap(column).unit is unit
    assert DiagonalMap(np.hstack([signs, column])).unit is unit
    assert DiagonalMap(signs).unit is True


@pytest.mark.parametrize(
    "comps,constant",
    [
        ([[1.0, 1.0, 1.0]], True),
        ([[-1.0, -1.0, -1.0]], True),
        ([[-0.0, 0.0, 0.0]], True),
        ([[1.0, -1.0, 1.0]], False),
        ([[1.0, 1.0, 1.0 + 2.0**-52]], False),
        ([[np.nan, np.nan, np.nan]], False),
        ([[1.0, 1.0, 1.0], [0.0, 0.0, 1e-300]], False),
        ([[1j, 1j, 1j]], True),
    ],
    ids=["ones", "minus-ones", "signed-zeros", "sign-flip", "one-ulp", "nan", "past-first-component", "complex"],
)
def test_a_diagonal_is_constant_exactly_when_every_entry_equals_the_first(comps, constant):
    assert DiagonalMap(np.array(comps)).constant is constant


_FLAG_ENTRIES = [1.0, -1.0, 0.0, -0.0, 0.5, 2.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 1e200, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("kind", [float, complex, int, bool])
def test_the_four_flags_of_one_pass_match_their_definitions(k, kind):
    # every pair of entries over k components, then a sign flip; reading one flag sets all four
    rng = np.random.default_rng(k)
    pool = [x for x in _FLAG_ENTRIES if kind in (float, complex) or abs(x) < 1e3]
    for _ in range(200):
        comps = np.zeros((k, 3), dtype=kind)
        comps[0] = rng.choice(pool, 3)
        if kind is complex:
            comps[0] += 1j * rng.choice([0.0, 0.0, 1.0, -0.6, np.nan], 3)
        if k == 4 and rng.random() < 0.5:
            comps[rng.integers(1, 4), rng.integers(3)] = rng.choice(pool)
        d = DiagonalMap(comps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.unit is reference_diagonal_flags(d.comps)["unit"]
        assert {name: d.__dict__[name] for name in ("finite", "real", "unit", "constant")} == reference_diagonal_flags(d.comps)
    flip = DiagonalMap(np.array([[1.0, -1.0, 1.0]]))
    assert (flip.finite, flip.real, flip.unit, flip.constant) == (True, True, True, False)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: GptState([[1.0, 0.0]]), "a state must be a flat probability vector"),
        (lambda: Effect([[1.0], [0.0]]), "an effect must be a flat covector"),
        (lambda: LinearMap(np.ones((2, 3))), "a transformation must be a square matrix"),
        (lambda: LinearMap(np.ones(2)), "a transformation must be a square matrix"),
        (lambda: TheoryModel("one-armed", 1, None), "one-armed takes 2 <= n_branches, got n_branches = 1"),
        (lambda: VectorTheory("t", (("Z", 2), ("X", 1)), 0, (), None), "t takes 2 <= X outcomes, got X outcomes = 1"),
        (
            lambda: VectorTheory("t", (("Z", 2),), 0, (GptState([1.0, 0.0]), GptState([1.0, 0.0, 0.0])), None),
            "inconsistent state dimensions in theory definition",
        ),
        # strings were parsed into floats, and complex entries cut to their real parts with only a ComplexWarning
        (lambda: GptState(["0.5", "0.5"]), "entries must be real numbers, got dtype <U3"),
        (lambda: Effect(["1", "0"]), "entries must be real numbers, got dtype <U1"),
        (lambda: LinearMap([["1", "0"], ["0", "1"]]), "entries must be real numbers, got dtype <U1"),
        (lambda: DiagonalMap(np.array([["1", "1"]])), "entries must be numbers, got dtype <U1"),
        (lambda: GptState(np.array([0.5, 0.5], dtype=object)), "entries must be real numbers, got dtype object"),
        (lambda: DiagonalMap(np.array([[1.0, None]])), "entries must be numbers, got dtype object"),
        (lambda: GptState(np.array([0.5 + 0j, 0.5])), "entries must be real numbers, got dtype complex128"),
        (lambda: Effect([1.0 + 2j, 0.0]), "entries must be real numbers, got dtype complex128"),
        (lambda: LinearMap(np.eye(2) * (1 + 2j)), "entries must be real numbers, got dtype complex128"),
    ],
)
def test_a_malformed_value_or_theory_definition_is_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_a_constructor_converts_integers_and_booleans_and_copies_an_array():
    assert GptState([True, 0]).probs.dtype == np.float64
    assert (LinearMap(np.eye(2, dtype=int)).matrix == np.eye(2)).all()
    assert DiagonalMap(np.ones((1, 2), dtype=int)).comps.dtype == np.int64
    assert DiagonalMap(np.ones((1, 2), dtype=complex)).comps.dtype == np.complex128
    probs = np.array([0.5, 0.5])
    state = GptState(probs)
    probs[0] = 1.0  # the caller's array stays writable and the state keeps its own copy
    assert state.probs[0] == 0.5 and not state.probs.flags.writeable


def test_a_vector_state_whose_block_misses_one_is_not_contained():
    # every entry within [0, 1], but a measurement block sums to 0.9 or 1.1
    assert not classical_theory(2).contains(GptState([0.5, 0.4]))
    assert not gbit_theory(2).contains(GptState([1.0, 0.0, 0.6, 0.5]))
    assert gbit_theory(2).contains(GptState([1.0, 0.0, 0.5, 0.5]))
