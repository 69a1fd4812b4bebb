"""Tests for the concrete theory constructors.

Core claims:
    - classical: simplex, permutation group only, fair coin valid; N is
      bounded by MAX_CLASSICAL_OUTCOMES = 8, checked before any map is built
    - qubit: six-entry layout with ball membership, pole and plus states
    - gbit: hypercube vertices, hyperoctahedral group order 2^d d!; d is
      bounded by MAX_GBIT_MEASUREMENTS = 6, checked before any map is built
    - dball: center and surface behavior, d=3 matches the qubit exactly; d is
      bounded by MAX_BALL_MEASUREMENTS = 64, checked before any state is built
    - toy bit: recorded subset-sign convention fixes all statistics vectors;
      epistemic pure states have one deterministic pair and the rest uniform
    - quaternionic two-level states project exactly onto the 5-ball
    - the loop-free diagonal and commutation checks agree with their
      allclose and qmul references, NaN and infinite entries included; the
      complex and quaternionic diagonal checks give the same answer on
      non-finite entries without a floating-point warning
    - containment: octahedron inside tetrahedron and ball; tetrahedron
      vertices break the ball bound but stay inside the cube
    - every finite group element preserves its state space
    - theory names resolve through one table of exact names and the
      gbit<d>/dball<d> families; every reader refuses a malformed name
    - one read of the branch measurement: branch_probabilities equals the
      per-effect probabilities exactly, and a matrix state whose diagonal
      carries non-real residue above atol raises; each face is the spanning
      states with no probability on the branch, of the documented affine
      dimension; a matrix theory is built without its N dense branch effects
    - the complex and quaternionic theories share one matrix core: the same
      probe counts (2 and 4), byte-identical identity, sign-flip and branch
      maps to the former per-theory constructions, and one verdict on maps
      with non-finite entries (no commutation, no warning)
    - a pure state may be a ket: a branch ket is the ket of its branch
      state; apply and probability on a ket agree with the same calls on
      its density within 1e-12; the quaternionic ket trace keeps the
      density trace's i/j/k residue, so a residue above atol raises on both
      paths with one message, even where psi^dagger E psi is real
    - states_close, branch_probabilities and contains take N x N densities
      only: a ket or a matrix of another size raises a ValueError naming it
    - every finite group (classical N = 2..8, gbit<d> d = 2..6, both toy
      bits) keeps its element names, matrices, vertices and branch effects
      byte for byte, pinned by one sha256 each
"""

import hashlib
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import gptifer.theories as th
from gptifer.core import GptState, is_diagonal, preserves_statespace
from gptifer.quaternion import (
    NumericConsistencyError,
    QuatKet,
    QuatMatrix,
    Quaternion,
    _ket_trace,
    _product_trace,
    qmul,
)
from gptifer.interferometer import sign_encoding
from gptifer.theories import (
    MAX_BALL_MEASUREMENTS,
    MAX_CLASSICAL_OUTCOMES,
    MAX_GBIT_MEASUREMENTS,
    DensityMatrixTheory,
    MatrixTheory,
    QuaternionicTheory,
    THEORY_NAMES,
    classical_theory,
    dball_theory,
    gbit_theory,
    hadamard_matrix,
    quantum_theory,
    quaternionic_theory,
    qubit_state_from_expectations,
    qubit_theory,
    spekkens_epistemic_statistics,
    spekkens_epistemic_theory,
    spekkens_ontic_statistics,
    spekkens_ontic_theory,
    theory_by_name,
    theory_form,
    theory_sizes,
)
from reference import (
    quaternionic_two_level_gpt_state,
    qubit_state_from_density,
    qubit_state_from_ket,
    random_ball_rotation,
    random_pure_quaternionic_state,
    random_symplectic,
    random_unit_quaternion,
    random_unitary,
)


# -- classical -------------------------------------------------------------------


def test_classical_two_level_structure():
    m = classical_theory(2)
    assert len(m.spanning_states) == 2
    assert len(m.group.elements) == 2
    assert m.contains(GptState([0.5, 0.5]))


def test_classical_group_is_permutations_only():
    m = classical_theory(3)
    assert len(m.group.elements) == 6
    for e in m.group.elements:
        assert np.array_equal(np.sort(e.matrix, axis=0)[-1], np.ones(3))
        assert e.matrix.sum() == 3.0


# -- qubit -----------------------------------------------------------------------


def test_ket_zero_maps_to_documented_vector():
    np.testing.assert_allclose(
        qubit_state_from_ket([1.0, 0.0]).probs,
        [0.5, 0.5, 0.5, 0.5, 1.0, 0.0],
        atol=1e-12,
    )


def test_plus_state_has_deterministic_x():
    v = qubit_state_from_ket([1.0, 1.0])
    assert v.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert v.probs[4] == pytest.approx(0.5, abs=1e-12)


def test_overfilled_bloch_vector_rejected():
    m = qubit_theory()
    assert not m.contains(qubit_state_from_expectations(0.9, 0.9, 0.0))


def test_density_and_ket_conversions_agree():
    rng = np.random.default_rng(5)
    for _ in range(50):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(
            qubit_state_from_ket(psi).probs,
            qubit_state_from_density(rho).probs,
            atol=1e-12,
        )


# -- gbit ------------------------------------------------------------------------


def test_square_bit_has_four_vertices_and_eight_symmetries():
    m = gbit_theory(2)
    assert len(m.spanning_states) == 4
    assert len(m.group.elements) == 8


def test_cube_group_order_forty_eight():
    assert len(gbit_theory(3).group.elements) == 48


def test_gbit_size_is_bounded_before_any_map_is_built(monkeypatch):
    # the largest gbit still builds its whole hyperoctahedral group
    assert len(gbit_theory(MAX_GBIT_MEASUREMENTS).group.elements) == 720 * 2**6

    def no_map(*args):
        raise AssertionError("a relabeling map was built")

    monkeypatch.setattr(th, "_relabeling", no_map)
    for d in (1, MAX_GBIT_MEASUREMENTS + 1, 10):
        with pytest.raises(ValueError, match=rf"^gbit<d> takes 2 <= d <= 6 \(MAX_GBIT_MEASUREMENTS\), got d = {d}$"):
            theory_by_name(f"gbit{d}")


def test_classical_size_is_bounded_before_any_map_is_built(monkeypatch):
    # the largest classical system still builds its whole permutation group
    assert len(classical_theory(MAX_CLASSICAL_OUTCOMES).group.elements) == 40_320

    def no_map(*args):
        raise AssertionError("a permutation map was built")

    monkeypatch.setattr(th, "_relabeling", no_map)
    for N in (MAX_CLASSICAL_OUTCOMES + 1, 12):
        with pytest.raises(ValueError, match=rf"^classical takes N <= 8 \(MAX_CLASSICAL_OUTCOMES\), got N = {N}$"):
            theory_by_name("classical", N=N)


#: sha256 over each finite theory's element names and matrix bytes in
#: element order, then its vertex bytes, then its branch-effect bytes.
FINITE_GROUP_DIGESTS = {
    ("classical", 2): "74535f018a22e2289687a7fdbbddfd0f6416b9046e86865a45ed102d0b5ca814",
    ("classical", 3): "1d399908b0a52de7139b5ad2199ba7eac8737e3c8f1c5c165da6d9317abc74dc",
    ("classical", 4): "9e0dedd9d3d3f2016c441ffdde891f5d008a45e03543350bfcea15674803c742",
    ("classical", 5): "f366e9cd21201a5a9c57f090b3289f62d57dfeac57adda18c386eac1f68c49a3",
    ("classical", 6): "fd17f35f90a3e3038176e785805045862a80ac529ce7ad68d8b5615280f7ba3a",
    ("classical", 7): "7ccbfa9d91bcbeb12a63de4b76c7d392a9f5e5eaf0b300566a2b42fc377350aa",
    ("classical", 8): "3e47b6795b2eedd9902f9ef150abe1717f76e68cea90bf097387190f8f1b0e36",
    ("gbit2", None): "0f9933eea65fd61f3a4b0d474939b07a55997db304594f742a57a7e3d6f66131",
    ("gbit3", None): "5a18489485d93a296ddc2c02139da16f5c65187dc449d8df67cec7901551d4a9",
    ("gbit4", None): "cf884d25ca2995391aaaec116eaa3cbfedc4a1c8f3af4f5ae5bde6d308128a67",
    ("gbit5", None): "29ce196382d05ba24f4bed75574691c2df8f04149ec15d968daeb93a2ffb93ad",
    ("gbit6", None): "8e4ec7fbcd9b1e9c3824ec388aba46248cbfdd3f931f20decdf5361ea4acb2be",
    ("spekkens-ontic", None): "8abedb8297d82d23c19569b654259155793bced3772883467c093f2436401614",
    ("spekkens-epistemic", None): "ab59a255d8d878bc485c075fe52fc0322e86887d38ec39bdbdb495f27aaf39f3",
}


def test_every_finite_group_is_pinned_byte_for_byte():
    # covers the sizes the golden suite never builds (classical N > 3, gbit4..6)
    for (name, N), expected in FINITE_GROUP_DIGESTS.items():
        m = theory_by_name(name, N=N)
        h = hashlib.sha256()
        for e in m.group.elements:
            h.update(e.name.encode() + b"\0")
            h.update(e.matrix.tobytes())
        for v in m.extremal_states:
            h.update(v.probs.tobytes())
        for z in m.z_effects:
            h.update(z.weights.tobytes())
        assert h.hexdigest() == expected, (name, N)


def test_all_deterministic_vertex_valid():
    m = gbit_theory(3)
    assert m.contains(GptState([1, 0, 1, 0, 1, 0]))


# -- dball ------------------------------------------------------------------------


def test_center_is_valid_everywhere():
    for d in (2, 3, 5):
        m = dball_theory(d)
        assert m.contains(GptState(np.full(2 * d, 0.5)))


def test_surface_point_forces_uniform_elsewhere():
    m = dball_theory(4)
    good = np.full(8, 0.5)
    good[0], good[1] = 1.0, 0.0
    assert m.contains(GptState(good))
    bad = good.copy()
    bad[2], bad[3] = 0.75, 0.25
    assert not m.contains(GptState(bad))


def test_ball_size_is_bounded_before_any_state_is_built(monkeypatch):
    assert dball_theory(MAX_BALL_MEASUREMENTS).name == "dball64"

    def no_states(*args):
        raise AssertionError("a ball state was built")

    monkeypatch.setattr(th, "_ball_states", no_states)
    for d in (1, MAX_BALL_MEASUREMENTS + 1, 100_000):
        with pytest.raises(ValueError, match=rf"^dball<d> takes 2 <= d <= 64 \(MAX_BALL_MEASUREMENTS\), got d = {d}$"):
            theory_by_name(f"dball{d}")


def test_rotation_embedding_composes_on_states():
    from gptifer.theories import embed_rotation, random_rotation

    rng = np.random.default_rng(8)
    for d in (3, 4):
        m = dball_theory(d)
        R1, R2 = random_rotation(d, rng), random_rotation(d, rng)
        product = m.compose(embed_rotation(R1), embed_rotation(R2))
        direct = embed_rotation(R1 @ R2)
        for s in m.spanning_states:
            np.testing.assert_allclose(
                (product.matrix @ s.probs), (direct.matrix @ s.probs), atol=1e-12
            )
    np.testing.assert_array_equal(embed_rotation(np.eye(3)).matrix, np.eye(6))


def test_three_ball_equals_qubit_state_space():
    ball, qubit = dball_theory(3), qubit_theory()
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = rng.uniform(-1.2, 1.2, 3)
        v = GptState(
            np.array([(1 + x[0]) / 2, (1 - x[0]) / 2,
                      (1 + x[1]) / 2, (1 - x[1]) / 2,
                      (1 + x[2]) / 2, (1 - x[2]) / 2])
        )
        assert ball.contains(v) == qubit.contains(v)


# -- toy bit ----------------------------------------------------------------------


def test_ontic_point_one_statistics():
    # point 1 sits in the +1 subset of every pair
    np.testing.assert_array_equal(
        spekkens_ontic_statistics(1).probs, [1, 0, 1, 0, 1, 0]
    )


def test_all_four_ontic_vectors():
    expected = {
        1: [1, 0, 1, 0, 1, 0],
        2: [0, 1, 0, 1, 1, 0],
        3: [1, 0, 0, 1, 0, 1],
        4: [0, 1, 1, 0, 0, 1],
    }
    for point, vec in expected.items():
        np.testing.assert_array_equal(spekkens_ontic_statistics(point).probs, vec)


def test_epistemic_13_statistics():
    np.testing.assert_array_equal(
        spekkens_epistemic_statistics(frozenset({1, 3})).probs,
        [1, 0, 0.5, 0.5, 0.5, 0.5],
    )


def test_epistemic_pure_states_are_one_pair_deterministic():
    m = spekkens_epistemic_theory()
    for v in m.spanning_states:
        blocks = v.probs.reshape(3, 2)
        deterministic = [i for i, b in enumerate(blocks) if set(b) == {0.0, 1.0}]
        uniform = [i for i, b in enumerate(blocks) if tuple(b) == (0.5, 0.5)]
        assert len(deterministic) == 1 and len(uniform) == 2


def test_epistemic_octahedron_is_hull_of_six_vertices():
    m = spekkens_epistemic_theory()
    rng = np.random.default_rng(3)
    verts = np.stack([v.probs for v in m.spanning_states])
    for _ in range(100):
        w = rng.dirichlet(np.ones(6))
        assert m.contains(GptState(w @ verts))
    # a deterministic hidden point is not an allowed state of knowledge
    assert not m.contains(spekkens_ontic_statistics(1))


def test_subset_action_is_consistent_with_point_action():
    m = spekkens_ontic_theory()
    for perm in itertools.permutations((1, 2, 3, 4)):
        T = m.group.by_name("".join(map(str, perm)))
        for point in (1, 2, 3, 4):
            moved = T.matrix @ spekkens_ontic_statistics(point).probs
            np.testing.assert_array_equal(
                moved, spekkens_ontic_statistics(perm[point - 1]).probs
            )


# -- quantum ----------------------------------------------------------------------


def test_quantum_model_exposes_branch_projectors():
    m = quantum_theory(2)
    assert len(m.z_effects) == 4
    rho = m.uniform_superposition()
    for z in m.z_effects:
        assert m.probability(z, rho) == pytest.approx(0.25, abs=1e-12)


def test_quantum_gpt_vector_blocks_sum_to_one():
    m = quantum_theory(2)
    rng = np.random.default_rng(9)
    U = random_unitary(m.dim, rng)
    rho = m.apply(U, m.branch_state(1))
    vec = m.gpt_vector(rho)
    assert vec.probs[:4].sum() == pytest.approx(1.0, abs=1e-9)
    assert vec.probs[4:].sum() == pytest.approx(1.0, abs=1e-9)


def test_quantum_contains_rejects_non_states():
    m = quantum_theory(1)
    assert m.contains(m.branch_state(0))
    assert not m.contains(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))
    assert not m.contains(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))


def _allclose_is_diagonal(U, atol):
    return bool(np.allclose(U, np.diag(np.diagonal(U)), rtol=0.0, atol=atol))


def test_quantum_diagonal_check_matches_allclose_reference():
    m = quantum_theory(2)
    rng = np.random.default_rng(5)
    base = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4)))
    cases = [base, random_unitary(m.dim, rng), np.zeros((4, 4), dtype=complex)]
    for (i, j), value in itertools.product(
        [(0, 0), (2, 2), (0, 3), (3, 1)],
        [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), 1e-9, 1.01e-9, 0.6e-9 + 0.8e-9j],
    ):
        U = base.copy()
        U[i, j] = value
        cases.append(U)
    for U in cases:
        assert is_diagonal(U, m.atol) == _allclose_is_diagonal(U, m.atol)
    assert not is_diagonal(np.diag([np.nan, 1.0, 1.0, 1.0]).astype(complex), m.atol)


NON_FINITE_DIAGONALS = [
    ([np.inf, 1.0], True),
    ([-np.inf, 1.0], True),
    ([np.nan, 1.0], False),
    ([1.0, np.nan], False),
]


@pytest.mark.parametrize("entries,expected", NON_FINITE_DIAGONALS)
def test_diagonal_predicates_agree_on_non_finite_entries(entries, expected):
    m = quantum_theory(1)
    real = np.diag(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_diagonal(real.astype(complex), m.atol) is expected
        assert is_diagonal(QuatMatrix.from_real(real).comps, m.atol) is expected
        comps = np.zeros((4, 2, 2))
        comps[2] = real  # the same entries on the j component
        assert is_diagonal(QuatMatrix(comps).comps, m.atol) is expected


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_diagonal_predicates_reject_non_finite_off_diagonal_entries(value):
    m = quantum_theory(1)
    real = np.eye(2)
    real[0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_diagonal(real.astype(complex), m.atol)
        assert not is_diagonal(QuatMatrix.from_real(real).comps, m.atol)


def test_quaternionic_diagonal_check_keeps_its_tolerance():
    for scale, expected in ((1e-9, True), (1.01e-9, False)):
        comps = np.zeros((4, 3, 3))
        comps[0] = np.eye(3)
        comps[3, 2, 0] = scale
        assert is_diagonal(QuatMatrix(comps).comps, 1e-9) is expected


def test_commutation_with_a_nan_overlap_is_false_without_warning():
    m = quantum_theory(1)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entries in ([np.nan, 1.0], [1.0, np.nan]):
            nan_diag = np.diag(entries).astype(complex)
            assert not m.maps_commute(nan_diag, flip)
            assert not m.maps_commute(flip, nan_diag)


# -- quaternionic ------------------------------------------------------------------


def _qmul_diagonals_commute(m, a, b):
    # entry-by-entry reference: conj((ba)_i) (ab)_i is one common real sign
    da = [Quaternion(*a.comps[:, i, i]) for i in range(m.dim)]
    db = [Quaternion(*b.comps[:, i, i]) for i in range(m.dim)]
    ratios = [qmul(qmul(y, x).conjugate(), qmul(x, y)) for x, y in zip(da, db)]
    first = ratios[0]
    if max(abs(first.b), abs(first.c), abs(first.d)) > m.atol:
        return False
    if abs(abs(first.a) - 1.0) > m.atol:
        return False
    return all(r.isclose(first, atol=m.atol) for r in ratios)


def test_quaternionic_diagonal_commutation_matches_qmul_reference():
    m = quaternionic_theory(4)
    rng = np.random.default_rng(11)
    one = Quaternion(1.0)

    def complex_phase():
        t = rng.uniform(0.0, 2.0 * np.pi)
        return Quaternion(np.cos(t), np.sin(t))

    pairs = []
    for _ in range(20):
        generic = [QuatMatrix.diag([random_unit_quaternion(rng) for _ in range(4)]) for _ in range(2)]
        planar = [QuatMatrix.diag([complex_phase() for _ in range(4)]) for _ in range(2)]
        local = [QuatMatrix.diag([random_unit_quaternion(rng), one, one, one]) for _ in range(2)]
        pairs += [generic, planar, local]
    outcomes = set()
    for a, b in pairs:
        expected = _qmul_diagonals_commute(m, a, b)
        outcomes.add(expected)
        assert m.maps_commute(a, b) == expected
    assert outcomes == {True, False}
    nan = QuatMatrix.diag([Quaternion(np.nan), one, one, one])
    assert not m.maps_commute(nan, QuatMatrix.identity(4))



def test_uniform_ket_gives_equal_branch_probabilities():
    for N in (2, 3, 4):
        m = quaternionic_theory(N)
        rho = m.uniform_superposition()
        for z in m.z_effects:
            assert m.probability(z, rho) == pytest.approx(1.0 / N, abs=1e-12)


def test_two_level_projection_matches_five_ball():
    ball = dball_theory(5)
    rng = np.random.default_rng(123)
    for _ in range(1000):
        rho = random_pure_quaternionic_state(2, rng)
        vec = quaternionic_two_level_gpt_state(rho)
        assert ball.contains(vec)
        # pure states land exactly on the surface
        radius = float(np.sum((vec.probs[0::2] - 0.5) ** 2))
        assert radius == pytest.approx(0.25, abs=1e-9)


def test_quaternionic_gpt_vector_blocks_sum_to_one():
    m = quaternionic_theory(4)
    rng = np.random.default_rng(21)
    rho = m.apply(random_symplectic(m.dim, rng), m.branch_state(2))
    vec = m.gpt_vector(rho)
    assert vec.probs[:4].sum() == pytest.approx(1.0, abs=1e-9)
    assert vec.probs[4:].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(vec.probs >= -1e-9) and np.all(vec.probs <= 1.0 + 1e-9)
    with pytest.raises(ValueError):
        quaternionic_theory(3).gpt_vector(quaternionic_theory(3).branch_state(0))


def test_sign_flipped_kets_are_operationally_identical():
    m = quaternionic_theory(2)
    rng = np.random.default_rng(7)
    effects = list(m.z_effects) + [m.uniform_superposition()]
    for _ in range(50):
        comps = rng.standard_normal((4, 2))
        comps /= np.sqrt(np.sum(comps**2))
        ket = QuatKet(comps)
        rho = ket.density()
        rho_neg = QuatKet(-comps).density()  # the global phase -1 on the ket
        for e in effects:
            assert m.probability(e, rho) == pytest.approx(
                m.probability(e, rho_neg), abs=1e-12
            )


# -- containment chain ---------------------------------------------------------------


def _to_cube_layout(s: GptState) -> GptState:
    p = s.probs
    return GptState(np.concatenate([p[4:6], p[0:2], p[2:4]]))


def test_containment_chain():
    qubit, cube = qubit_theory(), gbit_theory(3)
    octa, tetra = spekkens_epistemic_theory(), spekkens_ontic_theory()
    for v in octa.spanning_states:
        assert tetra.contains(v)
        assert qubit.contains(v)   # octahedron vertices touch the sphere
        assert cube.contains(_to_cube_layout(v))
    for v in tetra.spanning_states:
        assert cube.contains(_to_cube_layout(v))
        assert not qubit.contains(v)  # deterministic hidden states break the bound
        assert not octa.contains(v)


def test_octahedron_vertices_sit_exactly_on_the_sphere():
    for v in spekkens_epistemic_theory().spanning_states:
        x = v.probs[0] - v.probs[1]
        y = v.probs[2] - v.probs[3]
        z = v.probs[4] - v.probs[5]
        assert x * x + y * y + z * z == 1.0


# -- group validity ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "m",
    [classical_theory(3), gbit_theory(2), gbit_theory(3),
     spekkens_ontic_theory(), spekkens_epistemic_theory()],
    ids=lambda m: m.name,
)
def test_every_finite_group_element_preserves_statespace(m):
    for T in m.group.elements:
        assert preserves_statespace(m, T)


def test_sampled_parametric_members_preserve_statespace():
    rng = np.random.default_rng(31)
    for d in (3, 4):
        m = dball_theory(d)
        for _ in range(20):
            assert preserves_statespace(m, random_ball_rotation(d, rng))
    qm = quantum_theory(1)
    for _ in range(20):
        assert preserves_statespace(qm, random_unitary(qm.dim, rng))
    qt = quaternionic_theory(2)
    for _ in range(10):
        assert preserves_statespace(qt, random_symplectic(qt.dim, rng))


# -- name registry -----------------------------------------------------------------------


def test_theory_by_name_round_trip():
    assert theory_by_name("classical").name == "classical"
    assert theory_by_name("qubit").name == "qubit"
    assert theory_by_name("quantum", n=2).dim == 4
    assert theory_by_name("gbit3").name == "gbit3"
    assert theory_by_name("dball5").name == "dball5"
    assert theory_by_name("spekkens-ontic").name == "spekkens-ontic"
    assert theory_by_name("quaternionic", N=4).dim == 4
    with pytest.raises(ValueError):
        theory_by_name("octonionic")


@pytest.mark.parametrize(
    "name", ["gbit", "dball", "gbit 2", "gbit+2", "gbit02", "dball05", "gbit<d>", "gbit2 ", "Gbit2"]
)
def test_malformed_theory_names_are_refused_by_every_reader(name):
    message = f"unknown theory name {re.escape(repr(name))}; accepted forms: classical, .*, gbit<d>, dball<d>"
    for read in (theory_by_name, theory_sizes, theory_form):
        with pytest.raises(ValueError, match=message):
            read(name)


def test_theory_forms_cover_the_exact_names_and_both_families():
    assert THEORY_NAMES == (
        "classical", "qubit", "quantum", "quaternionic", "spekkens-ontic",
        "spekkens-epistemic", "gbit<d>", "dball<d>",
    )
    assert [theory_form(n) for n in ("quantum", "gbit2", "gbit10", "dball5")] == [
        "quantum", "gbit<d>", "gbit<d>", "dball<d>",
    ]
    assert theory_by_name("dball12").name == "dball12"


@pytest.mark.parametrize(
    "name,N,message",
    [
        ("classical", 1, "needs N >= 2"),
        ("classical", 0, "needs N >= 2"),
        ("quaternionic", 1, "need at least two levels"),
        ("quaternionic", -3, "need at least two levels"),
    ],
)
def test_theory_by_name_passes_small_N_to_the_constructor(name, N, message):
    with pytest.raises(ValueError, match=message):
        theory_by_name(name, N=N)


@pytest.mark.parametrize(
    "name,sizes,unread",
    [("gbit2", {"N": 3}, "N"), ("qubit", {"n": 5}, "n"), ("quaternionic", {"n": 7}, "n")],
)
def test_theory_by_name_refuses_a_size_the_theory_does_not_read(name, sizes, unread):
    with pytest.raises(ValueError, match=f"theory '{name}' does not read parameter\\(s\\): {unread}$"):
        theory_by_name(name, **sizes)


def test_theory_sizes_fill_defaults():
    assert theory_sizes("quantum") == {"n": 1}
    assert theory_sizes("classical", N=3) == {"N": 3}
    assert theory_sizes("quaternionic") == {"N": 2}
    assert theory_sizes("gbit3") == {}


# -- the branch measurement -----------------------------------------------------------

# each theory with the affine dimension of every branch's zero-support face
_FACE_DIMENSIONS = (
    [(classical_theory(N), N - 2) for N in (2, 3, 5, 8)]
    + [(gbit_theory(d), d - 1) for d in range(2, 7)]
    + [(qubit_theory(), 0)] + [(dball_theory(d), 0) for d in (2, 4, 5)]
    + [(spekkens_ontic_theory(), 1), (spekkens_epistemic_theory(), 0)]
    + [(quantum_theory(n), (2**n - 1) ** 2 - 1) for n in (1, 2, 3)]
    + [(quaternionic_theory(N), (N - 1) * (2 * N - 3) - 1) for N in (2, 3, 4)]
)
_MATRIX_THEORIES = [m for m, _ in _FACE_DIMENSIONS if isinstance(m, MatrixTheory)]


def _real_coordinates(m, s) -> np.ndarray:
    if isinstance(m, MatrixTheory):
        entries = m._entries(s)
        return np.concatenate([entries.real.ravel(), entries.imag.ravel()])
    return s.probs


def _label(m):
    return f"{m.name}-{m.n_branches}"


@pytest.mark.parametrize("m,dim", _FACE_DIMENSIONS, ids=[_label(m) for m, _ in _FACE_DIMENSIONS])
def test_faces_are_the_spanning_states_with_no_branch_probability(m, dim):
    for b in range(m.n_branches):
        face = m.face_states(b)
        assert face and all(m.branch_probabilities(s)[b] == 0.0 and m.contains(s) for s in face)
        points = np.array([_real_coordinates(m, s) for s in face])
        assert np.linalg.matrix_rank(points[1:] - points[0], tol=1e-9) == dim
    assert m.face_states(0) is m.face_states(0)  # derived once per theory


@pytest.mark.parametrize("m", [m for m, _ in _FACE_DIMENSIONS], ids=_label)
def test_branch_probabilities_equal_the_per_effect_probabilities(m):
    for s in m.spanning_states:
        per_effect = [m.probability(z, s) for z in m.z_effects]
        assert np.array_equal(m.branch_probabilities(s), per_effect)


@pytest.mark.parametrize("m", _MATRIX_THEORIES, ids=_label)
def test_branch_probabilities_refuse_a_non_real_diagonal(m):
    entries = np.array(m._entries(m.branch_state(0)))
    entries[-1, 1, 1] += 1e-6j if entries.shape[0] == 1 else 1e-6
    with pytest.raises(NumericConsistencyError, match="non-real residue"):
        m.branch_probabilities(m._matrix(entries))
    entries[-1, 1, 1] *= 1e-4  # residue within atol is read as its real part
    assert np.array_equal(m.branch_probabilities(m._matrix(entries)), np.eye(m.dim)[0])


def test_a_matrix_theory_is_built_without_branch_effects():
    tracemalloc.start()
    try:
        quantum_theory(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# -- the shared matrix core -----------------------------------------------------------


def test_both_matrix_theories_share_the_core():
    for m in (quantum_theory(2), quaternionic_theory(4)):
        assert isinstance(m, MatrixTheory)
    assert issubclass(DensityMatrixTheory, MatrixTheory)
    assert issubclass(QuaternionicTheory, MatrixTheory)


@pytest.mark.parametrize("m,count", [(quantum_theory(2), 2), (quaternionic_theory(4), 4)])
def test_branch_local_probe_counts(m, count):
    for branch in range(m.n_branches):
        probes = m.branch_local_probes(branch)
        assert len(probes) == count
        assert all(m.contains(s) for s in probes)
    # with two branches the remote projector alone is the whole face
    for small in (quantum_theory(1), quaternionic_theory(2)):
        assert len(small.branch_local_probes(0)) == 1


def test_quantum_maps_match_the_former_constructions_bytewise():
    m = quantum_theory(2)
    assert m.identity_map().tobytes() == np.eye(4, dtype=complex).tobytes()
    assert m.branch_state(2).dtype == complex
    for x, (identity, flip) in enumerate(sign_encoding(m).pairs):
        d = np.ones(4, dtype=complex)
        d[x] = -1.0
        assert flip.dtype == complex and flip.tobytes() == np.diag(d).tobytes()
        assert identity.tobytes() == np.eye(4, dtype=complex).tobytes()
    assert m.beamsplitter.tobytes() == hadamard_matrix(2).astype(complex).tobytes()


def test_quaternionic_maps_match_the_former_constructions_bytewise():
    m = quaternionic_theory(4)
    assert m.identity_map().comps.tobytes() == QuatMatrix.identity(4).comps.tobytes()
    for x, (_, flip) in enumerate(sign_encoding(m).pairs):
        entries = [Quaternion(1.0)] * 4
        entries[x] = Quaternion(-1.0)
        assert flip.comps.tobytes() == QuatMatrix.diag(entries).comps.tobytes()
    expected = QuatKet(np.vstack([np.full(4, 0.5), np.zeros((3, 4))])).density()
    assert m.uniform_superposition().comps.tobytes() == expected.comps.tobytes()


def test_quaternionic_branch_family_samples_a_sign_times_a_local_unit():
    m = quaternionic_theory(4)
    rng = np.random.default_rng(4)
    for branch in range(4):
        family = m.group.branch_family(branch)
        for _ in range(20):
            S = family.sample(rng)
            assert not S.comps[:, ~np.eye(4, dtype=bool)].any()
            assert Quaternion(*S.comps[:, branch, branch]).norm() == pytest.approx(1.0, abs=1e-12)
            remote = [Quaternion(*S.comps[:, i, i]) for i in range(4) if i != branch]
            assert remote[0].a in (-1.0, 1.0) and all(q == remote[0] for q in remote)


_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "m,lift",
    [(quantum_theory(1), lambda a: np.asarray(a, dtype=complex)), (quaternionic_theory(2), QuatMatrix.from_real)],
    ids=["quantum", "quaternionic"],
)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_maps_commute_with_nothing(m, lift, value):
    diag = lift(np.diag([value, 1.0]))
    off = lift(np.array([[1.0, value], [0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (diag, off):
            for other in (bad, lift(_FLIP), m.identity_map(), lift(np.diag([-1.0, 1.0]))):
                assert m.maps_commute(bad, other) is False
                assert m.maps_commute(other, bad) is False
        assert not m.is_identity_map(diag)
    # finite maps keep their answers on both paths
    assert m.maps_commute(lift(np.diag([-1.0, 1.0])), m.identity_map())
    assert m.maps_commute(lift(_FLIP), lift(_FLIP))
    hadamard = lift(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    assert not m.maps_commute(hadamard, lift(np.diag([-1.0, 1.0])))


# -- kets ---------------------------------------------------------------------------------

# the matrix theories whose ket form is checked against its density
_KET_THEORIES = [quantum_theory(n) for n in (1, 2, 3)] + [quaternionic_theory(N) for N in (2, 3, 4)]


def _random_ket(m, rng):
    if isinstance(m, QuaternionicTheory):
        comps = rng.standard_normal((4, m.dim))
        return QuatKet(comps / np.sqrt(np.sum(comps**2)))
    psi = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
    return psi / np.linalg.norm(psi)


def _density(psi):
    return psi.density() if isinstance(psi, QuatKet) else np.outer(psi, psi.conj())


def _random_map(m, rng):
    if isinstance(m, QuaternionicTheory):
        return random_symplectic(m.dim, rng)
    return random_unitary(m.dim, rng)


def _random_self_adjoint(m, rng, real=False):
    if isinstance(m, QuaternionicTheory):
        comps = rng.standard_normal((4, m.dim, m.dim))
        if real:
            comps[1:] = 0.0
        A = QuatMatrix(comps)
        return A + A.dagger()
    A = rng.standard_normal((m.dim, m.dim)) + (0.0 if real else 1j) * rng.standard_normal((m.dim, m.dim))
    return A + A.conj().T


def test_a_branch_ket_is_the_ket_of_the_branch_state():
    for m in _KET_THEORIES:
        for j in range(m.dim):
            psi = m.branch_ket(j)
            assert isinstance(psi, QuatKet) or (psi.ndim == 1 and psi.dtype == complex)
            assert m.states_close(_density(psi), m.branch_state(j))


@pytest.mark.parametrize("m", _KET_THEORIES, ids=_label)
def test_a_ket_reads_as_its_density(m):
    # a real-symmetric effect keeps the quaternionic trace real; the complex
    # one may be any self-adjoint matrix
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = _random_ket(m, rng)
        E = _random_self_adjoint(m, rng, real=isinstance(m, QuaternionicTheory))
        assert abs(m.probability(E, psi) - m.probability(E, _density(psi))) <= 1e-12
        for j in range(m.dim):
            assert abs(m.probability(m.branch_state(j), psi) - m.branch_probabilities(_density(psi))[j]) <= 1e-12


@pytest.mark.parametrize("N", [2, 3, 4])
def test_a_quaternionic_ket_trace_keeps_its_residue(N):
    # for any self-adjoint E the ket trace has the density trace's four
    # components, i/j/k residue included
    rng = np.random.default_rng(12)
    m = quaternionic_theory(N)
    for _ in range(20):
        psi, E = _random_ket(m, rng), _random_self_adjoint(m, rng)
        np.testing.assert_allclose(
            _ket_trace(E.comps, psi.comps), _product_trace(E.comps, psi.density().comps), rtol=0.0, atol=1e-12
        )


@pytest.mark.parametrize("m", _KET_THEORIES, ids=_label)
def test_a_ket_evolves_as_its_density(m):
    rng = np.random.default_rng(13)
    for _ in range(10):
        psi, T = _random_ket(m, rng), _random_map(m, rng)
        image = m.apply(T, psi)
        assert type(image) is type(psi)
        assert np.abs(m._entries(_density(image)) - m._entries(m.apply(T, _density(psi)))).max() <= 1e-12


def _raised(m, effect, state) -> str:
    with pytest.raises(NumericConsistencyError) as err:
        m.probability(effect, state)
    return str(err.value)


def test_a_complex_residue_raises_on_both_paths_alike():
    m = quantum_theory(2)
    psi = _random_ket(m, np.random.default_rng(14))
    E = 1e-6j * np.eye(4) + np.diag([1.0, 0.0, 0.0, 0.0])
    assert _raised(m, E, psi) == _raised(m, E, _density(psi)) == "trace has imaginary residue 1.000e-06"


def test_a_quaternionic_residue_raises_on_both_paths_alike():
    # psi^dagger E psi is real here, but tr(E psi psi^dagger) is k: the ket
    # path must read the trace, in the density path's operand order
    m = quaternionic_theory(2)
    comps = np.zeros((4, 2, 2))
    comps[1] = [[0.0, 1.0], [-1.0, 0.0]]  # E = [[0, i], [-i, 0]]
    E = QuatMatrix(comps)
    assert E.isclose(E.dagger(), atol=0.0)
    psi = QuatKet.from_quaternions([Quaternion(1.0 / np.sqrt(2.0)), Quaternion(0.0, 0.0, 1.0 / np.sqrt(2.0))])
    col = QuatMatrix(psi.comps[:, :, None])
    quadratic = (col.dagger() @ E @ col).comps[:, 0, 0]
    assert np.abs(quadratic).max() <= 1e-15
    np.testing.assert_allclose(_ket_trace(E.comps, psi.comps), [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    message = _raised(m, E, psi)
    assert message == _raised(m, E, psi.density())
    assert message == f"trace has imaginary residue 1.000e+00 above tolerance {m.atol:.1e}"
    # a residue within atol reads as the real part on both paths
    small = QuatMatrix(E.comps * 1e-10 + QuatMatrix.identity(2).comps)
    assert m.probability(small, psi) == pytest.approx(m.probability(small, psi.density()), abs=1e-15)


@pytest.mark.parametrize(
    "m,other",
    [(quantum_theory(1), quantum_theory(2)), (quaternionic_theory(2), quaternionic_theory(4))],
    ids=["quantum", "quaternionic"],
)
def test_a_ket_or_a_wrong_size_matrix_is_refused_by_name(m, other):
    # each primitive that takes densities only, on a ket and on a 4x4 matrix
    for state, got in ((m.branch_ket(1), "a ket of shape (2,)"), (other.branch_state(0), "a matrix of shape (4, 4)")):
        for call in (
            lambda: m.states_close(state, m.branch_state(0)),
            lambda: m.states_close(m.branch_state(0), state),
            lambda: m.branch_probabilities(state),
            lambda: m.contains(state),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"{m.name} theory expects a 2x2 density matrix, got {got}"


def test_a_ket_is_not_broadcast_against_a_density():
    # these broadcast once: a wrong True, a bare numpy error, a concatenation error
    with pytest.raises(ValueError, match="got a ket of shape"):
        quantum_theory(1).states_close(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
    h = quaternionic_theory(2)
    with pytest.raises(ValueError, match="got a ket of shape"):
        h.states_close(h.branch_ket(0), h.branch_state(0))
    with pytest.raises(ValueError, match="got a ket of shape"):
        h.branch_probabilities(h.branch_ket(1))
