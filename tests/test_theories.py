"""Tests for the concrete theory constructors.

Core claims:
    - classical: simplex, permutation group only, fair coin valid; N is
      bounded by MAX_CLASSICAL_OUTCOMES = 8, checked before the group is built
    - qubit: six-entry layout with ball membership, pole and plus states
    - gbit: hypercube vertices, hyperoctahedral group order 2^d d!; d is
      bounded by MAX_GBIT_MEASUREMENTS = 6, checked before the group is built
    - dball: center and surface behavior, d=3 matches the qubit exactly; d is
      bounded by MAX_BALL_MEASUREMENTS = 64, checked before any state is built;
      embed_rotation gives the bytes of the entry-by-entry loop
    - toy bit: recorded subset-sign convention fixes all statistics vectors;
      epistemic pure states have one deterministic pair and the rest uniform
    - quaternionic two-level states project exactly onto the 5-ball
    - a dense map takes the dense rule whatever its entries: is_identity_map
      and maps_commute on dense maps agree with their allclose and qmul
      references, NaN and infinite entries on and off the diagonal
      included, in both algebras alike, without a floating-point warning,
      and keep the quaternionic tolerance boundary
    - one operand rule: every public matrix call classifies each operand
      once through _form, over both algebras and every form; a NaN
      residue on a density or a diagonal state raises
      NumericConsistencyError on the branch read and on both effect paths
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
    - the complex and quaternionic theories share one matrix core: apply,
      probability, compose, maps_commute and is_identity_map are
      MatrixTheory's own objects in both classes' __dict__; the same
      probe counts (2 and 4: a diagonal mixture, then kets), each probe's
      density in the state space, byte-identical identity, sign-flip and
      branch maps to the former per-theory constructions, and one verdict
      on maps with non-finite entries or entries whose products overflow
      (no commutation, no warning); a real finite diagonal acts on a ket, a
      diagonal state and a density by scaling, with no algebra product,
      equal to the entrywise rule bit for bit (a zero's sign aside)
    - a pure state may be a ket, an N x 1 matrix of the theory's matrix
      type: a branch ket is the ket of its branch state; apply and
      probability on a ket agree with the same calls on its density within
      1e-12; the quaternionic ket trace keeps the density trace's i/j/k
      residue, so a residue above atol raises on both paths with one
      message, even where psi^dagger E psi is real
    - states_close, branch_probabilities and contains read a ket as its
      density; a ket is not broadcast against a density; a matrix or a
      diagonal of another size raises a ValueError naming it, and so does
      a map or an effect of another size, dense or diagonal, wherever it
      is read, or of another type than the algebra's own matrix (a nested
      list for quantum, a plain array for quaternionic), and so is a state
      of another type; a non-real diagonal effect is refused by name; a vector
      theory's states_close refuses a state of another dimension with the
      message contains gives, and compose, is_identity_map and
      maps_commute a map of another dimension, and apply and probability
      a map, effect or state of another dimension; a state with an infinite
      entry is not close to itself
    - quantum(n) embeds in quaternionic(2^n) through C in H, n = 1, 2, 3:
      phase and branch-family samples and the beamsplitter applied to
      every spanning state give the lifted image, branch statistics and
      branch and closing read-outs within 1e-12
    - two kets are compared after aligning their global phase, linearly in
      the error and soundly: a pair judged close is close as densities at
      the same atol (a seeded sweep, and a derandomized hypothesis search
      at quantum N = 4 and quaternionic N = 3), though not the converse:
      (1, 0) and (1, 5e-10) are close as densities only; and a 1e-6 phase error on one remote entry of a sign
      flip is refused on structured and on materialized probes alike
    - a locality check forms no dense probe: under 64 KB at quantum
      N = 256 and quaternionic N = 128; each branch's probes, built from
      shared read-only bases with the mixture's weights written in place,
      equal the np.concatenate build of tests/reference.py bit for bit
      (quantum N = 2..16, quaternionic N = 2, 3, 4, 8, 16) and are
      read-only, and a check at every branch keeps O(N) bytes, no probe
      set per branch
    - states_close on two states of one form (ket, diagonal, density; both
      algebras) with -0.0, NaN, inf and one-ulp entries gives the dense
      comparison's verdict; a real unit diagonal is the identity exactly
      when the central-unit check says so, at atol 1e-9 and 2.0
    - quantum n and quaternionic N are exact integers, bounded by
      MAX_MATRIX_LEVELS = 1024 levels, and refused by name otherwise
    - a matrix theory past MAX_SPANNING_LEVELS = 64 levels refuses its
      spanning set before any state is built
    - every finite group (classical N = 2..8, gbit<d> d = 2..6, both toy
      bits) keeps its element names, matrices, vertices and branch effects
      byte for byte, pinned by one sha256 each
    - apply and probability refuse a state that is neither N x 1 nor N x N,
      for dense and diagonal maps alike, naming its shape
    - a diagonal map stored as its diagonal agrees with its dense
      materialization within 1e-12 (apply on kets, densities and diagonal
      states, compose, is_identity_map, maps_commute, is_branch_local on
      structured and materialized probes, is_phase_operation, probability
      with a diagonal effect on kets, densities and diagonal states,
      states_close on ket, diagonal and mixed
      pairs, build_oracle); a diagonal meeting a dense map composes to the dense
      product bit for bit; every image of apply and compose is read-only; real quaternionic diagonals commute exactly as
      the full check says; a non-finite stored diagonal commutes with
      nothing and is not the identity; two diagonal maps commute or not
      without a second map check
    - two diagonals commute by one rule in both algebras: sign flips (exact
      unit entries, one side real) commute with no entrywise product, at
      quantum N = 64 and quaternionic N = 1024; exact non-real units take
      the full rule (i against j does not commute, (i, j) against (j, i)
      does)
"""

import hashlib
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptifer.theories as th
from gptifer.core import DEFAULT_ATOL, DiagonalMap, Effect, GptState, LinearMap, near_zero
from gptifer.quaternion import (
    NumericConsistencyError,
    QuatMatrix,
    Quaternion,
    _product_trace,
    qmul,
)
from gptifer.interferometer import BranchEncoding, build_oracle, constant_balanced_specs, quantum_dj_instruments, sign_encoding
from gptifer.phase import is_branch_local, is_phase_operation
from gptifer.theories import (
    MAX_BALL_MEASUREMENTS,
    MAX_CLASSICAL_OUTCOMES,
    MAX_GBIT_MEASUREMENTS,
    MAX_MATRIX_LEVELS,
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
    preserves_statespace,
    quat_diagonal,
    quat_pure,
    quaternionic_two_level_gpt_state,
    qubit_state_from_density,
    qubit_state_from_ket,
    random_ball_rotation,
    random_pure_quaternionic_state,
    random_symplectic,
    random_unit_quaternion,
    random_unitary,
    reference_branch_local_probes,
    reference_embed_rotation,
    reference_states_close,
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

    def no_images(*args):
        raise AssertionError("a gbit group was built")

    monkeypatch.setattr(th, "_gbit_images", no_images)
    for d in (1, MAX_GBIT_MEASUREMENTS + 1, 10):
        with pytest.raises(ValueError, match=rf"^gbit<d> takes 2 <= d <= 6 \(MAX_GBIT_MEASUREMENTS\), got d = {d}$"):
            theory_by_name(f"gbit{d}")


def test_classical_size_is_bounded_before_any_map_is_built(monkeypatch):
    # the largest classical system still builds its whole permutation group
    assert len(classical_theory(MAX_CLASSICAL_OUTCOMES).group.elements) == 40_320

    def no_images(*args):
        raise AssertionError("a permutation group was built")

    monkeypatch.setattr(th, "_classical_images", no_images)
    for N in (MAX_CLASSICAL_OUTCOMES + 1, 12):
        with pytest.raises(ValueError, match=rf"^classical takes 2 <= N <= 8 \(MAX_CLASSICAL_OUTCOMES\), got N = {N}$"):
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


def test_rotation_embedding_matches_the_loop_byte_for_byte():
    from gptifer.theories import embed_rotation, random_rotation

    rng = np.random.default_rng(25)
    for d in [*range(1, 12), MAX_BALL_MEASUREMENTS]:
        half_turn = np.diag([-1.0, -1.0] + [1.0] * (d - 2)) if d >= 2 else np.eye(1)
        signed_zeros = -np.eye(d)  # its off-diagonal -0.0 entries land as 0.0
        for R in [random_rotation(d, rng) for _ in range(20)] + [half_turn, signed_zeros]:
            assert embed_rotation(R).matrix.tobytes() == reference_embed_rotation(R).tobytes()


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


def test_quantum_contains_rejects_non_states():
    m = quantum_theory(1)
    assert m.contains(m.branch_state(0))
    assert not m.contains(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))
    assert not m.contains(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))


def _allclose_identity(U, atol):
    # reference: every entry finite and U within atol of u I, u = U[0, 0] a unit
    u = U[0, 0]
    finite = np.isfinite(U).all()
    return bool(finite and abs(abs(u) - 1.0) <= atol and np.allclose(U, u * np.eye(len(U)), rtol=0.0, atol=atol))


def _allclose_commute(a, b, atol):
    # reference: (ba)^dagger (ab) acts as the identity, for finite a and b
    finite = np.isfinite(a).all() and np.isfinite(b).all()
    return bool(finite and _allclose_identity((b @ a).conj().T @ (a @ b), atol))


def test_quantum_diagonal_check_matches_allclose_reference():
    # a dense map is judged by the dense rule, whatever its entries: the
    # identity check and the commutation check agree with allclose
    m = quantum_theory(2)
    rng = np.random.default_rng(5)
    base = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * np.eye(4)
    phases = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4)))
    cases = [base, phases, random_unitary(m.dim, rng), np.zeros((4, 4), dtype=complex), np.diag([2.0, 1.0, 1.0, 1.0]) + 0j]
    for (i, j), value in itertools.product(
        [(0, 0), (2, 2), (0, 3), (3, 1)],
        [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), 1e-9, 1.01e-9, 0.6e-9 + 0.8e-9j],
    ):
        U = base.copy()
        U[i, j] += value
        cases.append(U)
    others = [np.eye(4, dtype=complex), phases, np.eye(4)[::-1] + 0j]
    verdicts = set()
    for U in cases:
        expected = _allclose_identity(U, m.atol)
        verdicts.add(expected)
        assert m.is_identity_map(U) is expected
        for V in others:
            assert m.maps_commute(U, V) is m.maps_commute(V, U) is _allclose_commute(U, V, m.atol)
    assert verdicts == {True, False}
    assert not m.is_identity_map(np.diag([np.nan, 1.0, 1.0, 1.0]).astype(complex))


@pytest.mark.parametrize("entries", [[np.nan, 1.0], [1.0, np.nan]])
def test_diagonal_predicates_agree_on_non_finite_entries(entries):
    real = np.diag(entries)
    quantum, quaternionic = quantum_theory(1), quaternionic_theory(2)
    dense = [(quantum, real.astype(complex))]
    for component in (0, 2):  # the same entries on the real and the j component
        comps = np.zeros((4, 2, 2))
        comps[component] = real
        comps[0] += np.eye(2) * (component != 0)
        dense.append((quaternionic, QuatMatrix(comps)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, M in dense:
            assert not m.is_identity_map(M)
            for other in (m.identity_map(), m.dense(m.identity_map()), M):
                assert not m.maps_commute(M, other) and not m.maps_commute(other, M)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_diagonal_predicates_reject_non_finite_off_diagonal_entries(value):
    real = np.eye(2)
    real[0, 1] = value
    dense = [(quantum_theory(1), real.astype(complex))]
    dense.append((quaternionic_theory(2), QuatMatrix([real, *np.zeros((3, 2, 2))])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, M in dense:
            assert not m.is_identity_map(M)
            for other in (m.identity_map(), m.dense(m.identity_map()), M):
                assert not m.maps_commute(M, other) and not m.maps_commute(other, M)


def test_quaternionic_diagonal_check_keeps_its_tolerance():
    # a k component off the diagonal, or an i component on it, is within
    # atol of the identity up to 1e-9 and not at 1.01e-9; the off-diagonal
    # one leaves M^dagger M as far from it, so it commutes with the identity
    # exactly as far
    m = quaternionic_theory(3)
    assert m.atol == 1e-9
    identity = m.dense(m.identity_map())
    for (c, i, j), scale in itertools.product([(3, 2, 0), (1, 1, 1)], [1e-9, 1.01e-9]):
        comps = np.zeros((4, 3, 3))
        comps[0] = np.eye(3)
        comps[c, i, j] = scale
        M = QuatMatrix(comps)
        expected = scale == 1e-9
        assert m.is_identity_map(M) is expected
        if i != j:
            assert m.maps_commute(M, identity) is m.maps_commute(identity, M) is expected


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
        generic = [m.dense(quat_diagonal(*(random_unit_quaternion(rng) for _ in range(4)))) for _ in range(2)]
        planar = [m.dense(quat_diagonal(*(complex_phase() for _ in range(4)))) for _ in range(2)]
        local = [m.dense(quat_diagonal(random_unit_quaternion(rng), one, one, one)) for _ in range(2)]
        # real diagonals, stored as their diagonal: a sign pattern commutes,
        # a non-unit entry does not act as a phase
        real = [m.diagonal_map(rng.choice([-1.0, 1.0, 1.0, 2.0], 4)) for _ in range(2)]
        pairs += [generic, planar, local, real]
    outcomes = set()
    for a, b in pairs:
        expected = _qmul_diagonals_commute(m, m.dense(a), m.dense(b))
        outcomes.add(expected)
        assert m.maps_commute(a, b) == m.maps_commute(m.dense(a), m.dense(b)) == expected
    assert outcomes == {True, False}
    nan = m.dense(quat_diagonal(Quaternion(np.nan), one, one, one))
    assert not m.maps_commute(nan, m.dense(m.identity_map()))
    assert not m.maps_commute(m.diagonal_map([2.0, 1.0, 1.0, 1.0]), m.identity_map())



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


def test_sign_flipped_kets_are_operationally_identical():
    m = quaternionic_theory(2)
    rng = np.random.default_rng(7)
    effects = list(m.z_effects) + [m.uniform_superposition()]
    for _ in range(50):
        comps = rng.standard_normal((4, 2, 1))
        psi = QuatMatrix(comps / np.sqrt(np.sum(comps**2)))
        # the ket and the ket times the global phase -1
        rho, rho_neg = (ket @ ket.dagger() for ket in (psi, QuatMatrix(-psi.comps)))
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
        ("classical", 1, "classical takes 2 <= N <= 8"),
        ("classical", 0, "classical takes 2 <= N <= 8"),
        ("quaternionic", 1, "quaternionic takes 2 <= N <= 1024"),
        ("quaternionic", -3, "quaternionic takes 2 <= N <= 1024"),
    ],
)
def test_theory_by_name_passes_small_N_to_the_constructor(name, N, message):
    with pytest.raises(ValueError, match=message):
        theory_by_name(name, N=N)


@pytest.mark.parametrize(
    "build,size,message",
    [
        (quantum_theory, 1.0, r"^n must be an integer for quantum, got 1\.0$"),
        (quantum_theory, True, r"^n must be an integer for quantum, got True$"),
        (quantum_theory, 11, r"^quantum takes 1 <= n <= 10 \(log2 MAX_MATRIX_LEVELS\), got n = 11$"),
        (quantum_theory, 64, r"^quantum takes 1 <= n <= 10 \(log2 MAX_MATRIX_LEVELS\), got n = 64$"),
        (quantum_theory, 10**9, r"^quantum takes 1 <= n <= 10 \(log2 MAX_MATRIX_LEVELS\), got n = 1000000000$"),
        (quaternionic_theory, 2.0, r"^N must be an integer for quaternionic, got 2\.0$"),
        (quaternionic_theory, "4", r"^N must be an integer for quaternionic, got '4'$"),
        (quaternionic_theory, 1025, r"^quaternionic takes 2 <= N <= 1024 \(MAX_MATRIX_LEVELS\), got N = 1025$"),
    ],
)
def test_a_matrix_theory_size_is_an_integer_within_the_bound(build, size, message):
    # a float once built a theory, and quantum n = 64 failed inside numpy's log2
    with pytest.raises(ValueError, match=message):
        build(size)


def test_the_matrix_bound_admits_the_scaling_runs():
    assert MAX_MATRIX_LEVELS == 1024
    assert quantum_theory(np.int64(10)).dim == quaternionic_theory(1024).dim == 1024


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


def _state_form(m, s) -> str:
    # the form MatrixTheory._form gives s read as a state
    return m._form(s, th._STATE)


def _real_coordinates(m, s) -> np.ndarray:
    if isinstance(m, MatrixTheory):  # the face's dimension is that of the densities, whatever form s takes
        entries = m._density(s, _state_form(m, s))
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


@pytest.mark.parametrize("m", [quantum_theory(1), quaternionic_theory(2)], ids=_label)
def test_a_nan_residue_is_numeric_inconsistency(m):
    # a NaN passes ``residue > atol``: rho_00 = 1 + NaN i (a NaN j component
    # for quaternions) was read as [1, 0], as 1.0 by a diagonal effect and as
    # NaN by a dense one.  Densities and diagonal states, on both effect paths
    diag = m._lift(np.array([1.0, 0.0]))
    if isinstance(m, DensityMatrixTheory):
        diag[0, 0] = complex(1.0, np.nan)
    else:
        diag[2, 0] = np.nan
    for state in (m._dense(diag), DiagonalMap(diag)):
        for call in (
            lambda: m.branch_probabilities(state),
            lambda: m.probability(m.diagonal_map([1.0, 0.0]), state),
            lambda: m.probability(m.branch_state(0), state),
        ):
            with pytest.raises(NumericConsistencyError, match="residue nan"):
                call()


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


def _materialized(m, s):
    # the N x N density of a state in any of its three forms
    return m._matrix(m._density(s, _state_form(m, s)))


@pytest.mark.parametrize("m,count", [(quantum_theory(2), 2), (quaternionic_theory(4), 4)])
def test_branch_local_probe_counts(m, count):
    # the weighted remote mixture is a diagonal, the other probes are kets;
    # each probe's density is a state with no probability on the branch
    for branch in range(m.n_branches):
        probes = m.branch_local_probes(branch)
        assert len(probes) == count
        assert isinstance(probes[0], DiagonalMap) and all(s.shape == (m.dim, 1) for s in probes[1:])
        assert all(m.contains(_materialized(m, s)) for s in probes)
        assert all(m.branch_probabilities(_materialized(m, s))[branch] == 0.0 for s in probes)
    # with two branches the remote projector alone is the whole face
    for small in (quantum_theory(1), quaternionic_theory(2)):
        (probe,) = small.branch_local_probes(0)
        assert isinstance(probe, DiagonalMap)
        assert np.array_equal(small._entries(_materialized(small, probe)), small._entries(small.branch_state(1)))


def test_quantum_maps_match_the_former_constructions_bytewise():
    m = quantum_theory(2)
    assert m.dense(m.identity_map()).tobytes() == np.eye(4, dtype=complex).tobytes()
    assert m.branch_state(2).dtype == complex
    for x, (identity, flip) in enumerate(sign_encoding(m).pairs):
        d = np.ones(4, dtype=complex)
        d[x] = -1.0
        flip = m.dense(flip)
        assert flip.dtype == complex and flip.tobytes() == np.diag(d).tobytes()
        assert m.dense(identity).tobytes() == np.eye(4, dtype=complex).tobytes()
    assert m.beamsplitter.tobytes() == hadamard_matrix(2).astype(complex).tobytes()


def test_quaternionic_maps_match_the_former_constructions_bytewise():
    m = quaternionic_theory(4)
    comps = np.zeros((4, 4, 4))
    comps[0] = np.eye(4)
    assert m.dense(m.identity_map()).comps.tobytes() == comps.tobytes()
    for x, (_, flip) in enumerate(sign_encoding(m).pairs):
        comps[0, x, x] = -1.0
        assert m.dense(flip).comps.tobytes() == comps.tobytes()
        comps[0, x, x] = 1.0
    expected = quat_pure(*[Quaternion(0.5)] * 4)
    assert m.uniform_superposition().comps.tobytes() == expected.comps.tobytes()


def test_quaternionic_branch_family_samples_a_sign_times_a_local_unit():
    m = quaternionic_theory(4)
    rng = np.random.default_rng(4)
    for branch in range(4):
        family = m.group.branch_family(branch)
        for _ in range(20):
            S = m.dense(family.sample(rng))
            assert not S.comps[:, ~np.eye(4, dtype=bool)].any()
            assert Quaternion(*S.comps[:, branch, branch]).norm() == pytest.approx(1.0, abs=1e-12)
            remote = [Quaternion(*S.comps[:, i, i]) for i in range(4) if i != branch]
            assert remote[0].a in (-1.0, 1.0) and all(q == remote[0] for q in remote)


def _in_quaternions(X):
    # a quantum operand through C in H: components (Re, Im, 0, 0)
    z = X.comps[0] if isinstance(X, DiagonalMap) else np.asarray(X)
    comps = np.stack([z.real, z.imag, np.zeros(z.shape), np.zeros(z.shape)])
    return DiagonalMap(comps) if isinstance(X, DiagonalMap) else QuatMatrix(comps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_complex_theory_embeds_in_the_quaternionic_one(n):
    # non-real phases act alike in both algebras: every image, branch
    # statistic and branch or closing read-out of a lifted operand is the
    # lift of the quantum one
    q, h = quantum_theory(n), quaternionic_theory(2**n)
    rng = np.random.default_rng(30 + n)
    maps = [q.beamsplitter] + [q.group.phase_family.sample(rng) for _ in range(3)]
    maps += [q.group.branch_family(b).sample(rng) for b in range(q.dim)]
    effects = list(q.z_effects) + [quantum_dj_instruments(n)[3]]
    for T in maps:
        for psi in q.spanning_states:
            out_q, out_h = q.apply(T, psi), h.apply(_in_quaternions(T), _in_quaternions(psi))
            assert near_zero(_in_quaternions(out_q).comps - out_h.comps, 1e-12)
            assert near_zero(q.branch_probabilities(out_q) - h.branch_probabilities(out_h), 1e-12)
            for E in effects:
                assert abs(q.probability(E, out_q) - h.probability(_in_quaternions(E), out_h)) <= 1e-12


_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "m,lift",
    [(quantum_theory(1), lambda a: np.asarray(a, dtype=complex)), (quaternionic_theory(2), lambda a: QuatMatrix([a, *np.zeros((3, 2, 2))]))],
    ids=["quantum", "quaternionic"],
)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e200])  # 1e200 is finite, but its products overflow
def test_non_finite_maps_commute_with_nothing(m, lift, value):
    diag = lift(np.diag([value, 1.0]))
    off = lift(np.array([[1.0, value], [0.0, 1.0]]))
    stored = m.diagonal_map([value, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (diag, off, stored):
            for other in (bad, lift(_FLIP), m.identity_map(), lift(np.diag([-1.0, 1.0]))):
                assert m.maps_commute(bad, other) is False
                assert m.maps_commute(other, bad) is False
        assert not m.is_identity_map(diag) and not m.is_identity_map(stored)
    # finite maps keep their answers on both paths
    assert m.maps_commute(lift(np.diag([-1.0, 1.0])), m.identity_map())
    assert m.maps_commute(lift(_FLIP), lift(_FLIP))
    hadamard = lift(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    assert not m.maps_commute(hadamard, lift(np.diag([-1.0, 1.0])))


def test_two_diagonal_maps_commute_without_a_second_map_check(monkeypatch):
    # two DiagonalMaps of the theory's shape go to the diagonal rule, never
    # materialized; a diagonal of another shape is still refused by name
    def no_check(*args):
        raise AssertionError("a diagonal was materialized")

    for m in (quantum_theory(2), quaternionic_theory(4)):
        a, b = (m._lift(np.ones(m.dim)) for _ in range(2))
        a[:, 0], b[:, 0] = m.PHASES[1], m.PHASES[-1]  # i and i, or i and k
        a, b = DiagonalMap(a), DiagonalMap(b)
        dense = m.maps_commute(m.dense(a), m.dense(b))
        with monkeypatch.context() as patch:
            patch.setattr(m, "dense", no_check)
            patch.setattr(m, "_dense", no_check)
            assert m.maps_commute(a, b) is dense is (m.name == "quantum")
            assert m.maps_commute(a, a) is True
        with pytest.raises(ValueError, match=f"^{m.name} theory expects a diagonal of 4 entries, got one of shape"):
            m.maps_commute(a, DiagonalMap(b.comps[:, :2]))


@pytest.mark.parametrize("m", [quantum_theory(6), quaternionic_theory(1024)], ids=_label)
def test_sign_flips_commute_without_an_entrywise_product(m, monkeypatch):
    # exact unit entries on a real side commute in O(1): no product, no central-unit check
    def no_product(*args):
        raise AssertionError("a pair of sign flips took the entrywise rule")

    flips = [T for _, T in sign_encoding(m).pairs]
    sample = flips[:: max(1, m.dim // 64)]
    monkeypatch.setattr(m, "_entrywise", no_product)
    monkeypatch.setattr(m, "_is_central_unit", no_product)
    for a, b in itertools.combinations(sample, 2):
        assert m.maps_commute(a, b) is True
    for flip in flips:
        assert m.maps_commute(flip, flips[0]) is m.maps_commute(flips[-1], flip) is m.maps_commute(flip, m.identity_map()) is True


@pytest.mark.parametrize("m", [quantum_theory(2), quaternionic_theory(4)], ids=_label)
@pytest.mark.parametrize("atol", [DEFAULT_ATOL, 2.0])
def test_a_real_unit_diagonal_is_the_identity_by_its_flags(m, atol, monkeypatch):
    # entries exactly +-1 deviate from one sign by 0 or by exactly 2, so the cached flags give
    # the central-unit verdict; any other diagonal (not unit, not real, not finite) takes the check
    monkeypatch.setattr(m, "atol", atol)
    signs = [np.ones(m.dim), -np.ones(m.dim)] + [1.0 - 2.0 * (np.arange(m.dim) == x) for x in range(m.dim)]
    others = [np.full(m.dim, 0.5), np.full(m.dim, np.nan), np.r_[1.0, np.full(m.dim - 1, 1.0 + 2.0**-52)]]
    diagonals = [m.diagonal_map(values) for values in signs + others]
    diagonals.append(DiagonalMap(np.repeat(m.PHASES[1][:, None], m.dim, axis=1)))  # i times the identity
    assert [D.real and D.unit for D in diagonals] == [True] * len(signs) + [False] * 4
    for D in diagonals:
        assert m.is_identity_map(D) is (D.finite and m._is_central_unit(D.comps)) is m.is_identity_map(m.dense(D))
    assert [m.is_identity_map(D) for D in diagonals[:3]] == [True, True, atol == 2.0]


def test_non_real_unit_diagonals_take_the_full_rule():
    # exact units, neither side real: i against j does not commute; (i, j)
    # against (j, i) does, since conj(b_i a_i) a_i b_i is -1 at both entries
    m = quaternionic_theory(2)
    one, i, j = m.PHASES[0], m.PHASES[1], m.PHASES[2]
    pairs = [(False, (i, one), (j, one)), (True, (i, j), (j, i)), (True, (i, j), (i, one)), (False, (j, i), (i, one))]
    for expected, a, b in pairs:
        a, b = DiagonalMap(np.stack(a, axis=1)), DiagonalMap(np.stack(b, axis=1))
        assert a.unit and b.unit and not (a.real or b.real)
        assert m.maps_commute(a, b) is m.maps_commute(m.dense(a), m.dense(b)) is m.maps_commute(b, a) is expected


@pytest.mark.parametrize("m", [quantum_theory(3), quaternionic_theory(8)], ids=_label)
def test_a_real_diagonal_acts_by_scaling_as_the_entrywise_rule_does(m, monkeypatch):
    # d psi, (d w) conj(d) and d_i rho_ij conj(d_j) with a real finite d: equal to the entrywise
    # products bit for bit (a zero's sign aside), computed without any algebra product
    rng = np.random.default_rng(7)
    k, N = m.PHASES.shape[1], m.dim

    def entries(*shape):
        x = rng.standard_normal((k, *shape))
        return x + 1j * rng.standard_normal(x.shape) if np.iscomplexobj(m.PHASES) else x

    signs = rng.choice([-1.0, 1.0], size=(4, N))
    reals = rng.standard_normal((4, N)) * 10.0 ** rng.integers(-3, 4, size=(4, N))
    reals[0, 0] = 0.0
    cases = []
    for values in (*signs, *reals):
        d = m.diagonal_map(values).comps
        psi, w, rho = entries(N, 1), entries(N), entries(N, N)
        expected = (
            m._entrywise(d[:, :, None], psi),
            m._entrywise(m._entrywise(d, w), m._conj(d)),
            m._entrywise(m._entrywise(d[:, :, None], rho), m._conj(d)[:, None, :]),
        )
        cases.append((DiagonalMap(d), (m._matrix(psi), DiagonalMap(w), m._matrix(rho)), expected))

    def no_product(*args):
        raise AssertionError("a real diagonal took an algebra product")

    monkeypatch.setattr(m, "_entrywise", no_product)
    for T, states, expected in cases:
        assert T.real and T.finite
        ket, diagonal, density = (m.apply(T, s) for s in states)
        assert np.array_equal(m._entries(ket), expected[0])
        assert np.array_equal(diagonal.comps, expected[1])
        assert np.array_equal(m._entries(density), expected[2])


# -- kets ---------------------------------------------------------------------------------

# the matrix theories whose ket form is checked against its density
_KET_THEORIES = [quantum_theory(n) for n in (1, 2, 3)] + [quaternionic_theory(N) for N in (2, 3, 4)]


def _random_ket(m, rng):
    # an N x 1 column of the theory's matrix type
    if isinstance(m, QuaternionicTheory):
        comps = rng.standard_normal((4, m.dim, 1))
        return QuatMatrix(comps / np.sqrt(np.sum(comps**2)))
    psi = rng.standard_normal((m.dim, 1)) + 1j * rng.standard_normal((m.dim, 1))
    return psi / np.linalg.norm(psi)


def _density(psi):
    return psi @ psi.dagger() if isinstance(psi, QuatMatrix) else psi @ psi.conj().T


def _random_map(m, rng):
    if isinstance(m, QuaternionicTheory):
        return random_symplectic(m.dim, rng)
    return random_unitary(m.dim, rng)


def _random_self_adjoint(m, rng, real=False):
    if isinstance(m, QuaternionicTheory):
        comps = rng.standard_normal((4, m.dim, m.dim))
        if real:
            comps[1:] = 0.0
        return QuatMatrix(comps + QuatMatrix(comps).dagger().comps)
    A = rng.standard_normal((m.dim, m.dim)) + (0.0 if real else 1j) * rng.standard_normal((m.dim, m.dim))
    return A + A.conj().T


def test_a_branch_ket_is_the_ket_of_the_branch_state():
    for m in _KET_THEORIES:
        for j in range(m.dim):
            psi = m.branch_ket(j)
            assert psi.shape == (m.dim, 1) and type(psi) is type(m.branch_state(j))
            assert isinstance(psi, QuatMatrix) or (psi.dtype == complex and not psi.flags.writeable)
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
            m._ket_trace(E, psi), _product_trace(E.comps, _density(psi).comps), rtol=0.0, atol=1e-12
        )


@pytest.mark.parametrize("m", _KET_THEORIES, ids=_label)
def test_a_ket_evolves_as_its_density(m):
    rng = np.random.default_rng(13)
    for _ in range(10):
        psi, T = _random_ket(m, rng), _random_map(m, rng)
        image = m.apply(T, psi)
        assert type(image) is type(psi) and image.shape == (m.dim, 1)
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
    assert near_zero(E.comps - E.dagger().comps, 0.0)
    psi = QuatMatrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])[:, :, None] / np.sqrt(2.0))
    quadratic = (psi.dagger() @ E @ psi).comps[:, 0, 0]
    assert np.abs(quadratic).max() <= 1e-15
    np.testing.assert_allclose(m._ket_trace(E, psi), [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    message = _raised(m, E, psi)
    assert message == _raised(m, E, _density(psi))
    assert message == f"trace has imaginary residue 1.000e+00 above tolerance {m.atol:.1e}"
    # a residue within atol reads as the real part on both paths
    small = QuatMatrix(E.comps * 1e-10 + m.dense(m.identity_map()).comps)
    assert m.probability(small, psi) == pytest.approx(m.probability(small, _density(psi)), abs=1e-15)


@pytest.mark.parametrize(
    "m,other",
    [(quantum_theory(1), quantum_theory(2)), (quaternionic_theory(2), quaternionic_theory(4))],
    ids=["quantum", "quaternionic"],
)
def test_a_ket_or_a_wrong_size_matrix_is_refused_by_name(m, other):
    # the primitives that once took densities only read a ket as its
    # density; a 4x4 matrix, a diagonal of 4 entries, or a state of
    # another type than the algebra's own matrix is refused by name
    ket = m.branch_ket(1)
    assert m.states_close(ket, m.branch_state(1)) and m.states_close(m.branch_state(1), ket)
    assert not m.states_close(ket, m.branch_state(0)) and not m.states_close(m.diagonal_map([1.0, 0.0]), ket)
    assert np.array_equal(m.branch_probabilities(ket), [0.0, 1.0]) and m.contains(ket)
    wide = other.diagonal_map([1.0, 0.0, 0.0, 0.0])
    k = m.PHASES.shape[1]
    kind = f"expects a state of type {m._matrix_type.__name__} or DiagonalMap, got"
    alien = np.ones((2, 1)) if k == 4 else quaternionic_theory(2).branch_ket(0)
    for state, message in (
        (other.branch_state(0), "expects a 2x1 ket or a 2x2 density matrix, got a matrix of shape (4, 4)"),
        (wide, f"expects a diagonal of 2 entries, got one of shape ({k}, 4)"),
        ([[1.0], [0.0]], f"{kind} list"),
        (alien, f"{kind} {type(alien).__name__}"),
    ):
        for call in (
            lambda: m.states_close(state, m.branch_state(0)),
            lambda: m.states_close(m.branch_state(0), state),
            lambda: m.states_close(state, m.diagonal_map([1.0, 0.0])),
            lambda: m.branch_probabilities(state),
            lambda: m.contains(state),
            lambda: m.apply(m.identity_map(), state),
            lambda: m.probability(m.branch_state(0), state),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"{m.name} theory {message}"
    with pytest.raises(ValueError) as err:
        m.probability(wide, ket)
    assert str(err.value) == f"{m.name} theory expects a diagonal of 2 entries, got one of shape ({k}, 4)"


@pytest.mark.parametrize(
    "m,other",
    [(quantum_theory(1), quantum_theory(2)), (quaternionic_theory(2), quaternionic_theory(4))],
    ids=["quantum", "quaternionic"],
)
def test_a_wrong_size_map_is_refused_by_name(m, other):
    # a one-entry diagonal once acted as -I on two branches, and a 4x4
    # identity passed is_identity_map and maps_commute: the map check, next
    # to _form, refuses both wherever a map or an effect is read, and so an
    # operand not of the algebra's own matrix type, which failed inside numpy
    k = m.PHASES.shape[1]
    bad = [
        (DiagonalMap(m._lift(np.array([-1.0]))), f"expects a diagonal of 2 entries, got one of shape ({k}, 1)"),
        (other.identity_map(), f"expects a diagonal of 2 entries, got one of shape ({k}, 4)"),
        (other.dense(other.identity_map()), "expects a 2x2 map or effect, got a matrix of shape (4, 4)"),
        (m._matrix(m._lift(np.ones((4, 2)))), "expects a 2x2 map or effect, got a matrix of shape (4, 2)"),
    ]
    if isinstance(m, DensityMatrixTheory):
        bad.append((np.eye(2, dtype=complex)[None], "expects a 2x2 map or effect, got a matrix of shape (1, 2, 2)"))
        bad.append(([[1, 0], [0, 1]], "expects a map or effect of type ndarray or DiagonalMap, got list"))
    else:  # a QuatMatrix's own component shape, as a plain array
        bad.append((m._lift(np.eye(2)), "expects a map or effect of type QuatMatrix or DiagonalMap, got ndarray"))
    good = [m.identity_map(), m.beamsplitter]
    states = [m.branch_ket(0), m.branch_state(0), m.branch_local_probes(0)[0]]
    for M, message in bad:
        calls = [lambda s=s: m.apply(M, s) for s in states] + [lambda s=s: m.probability(M, s) for s in states]
        calls += [lambda G=G: m.compose(M, G) for G in good] + [lambda G=G: m.compose(G, M) for G in good]
        calls += [lambda G=G: m.maps_commute(M, G) for G in good] + [lambda G=G: m.maps_commute(G, M) for G in good]
        calls += [lambda: m.dense(M), lambda: m.is_identity_map(M), lambda: is_branch_local(m, M, 0)]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"{m.name} theory {message}"


def test_both_algebras_share_one_matrix_core():
    # apply, probability and the map predicates are MatrixTheory's own, not
    # per-algebra copies; each class still holds them in its own __dict__,
    # where the benchmark tracer looks them up
    for name in ("apply", "probability", "compose", "maps_commute", "is_identity_map"):
        assert DensityMatrixTheory.__dict__[name] is QuaternionicTheory.__dict__[name] is MatrixTheory.__dict__[name]


@pytest.mark.parametrize("m", [quantum_theory(2), quaternionic_theory(4)], ids=_label)
def test_each_operand_is_classified_once_per_call(m, monkeypatch):
    # _form is the one operand rule: every public call reads each operand
    # through it once, over the three state forms and the two map forms, and
    # its inner paths take the form it gave
    states = [m.diagonal_map(np.eye(m.dim)[1]), m.apply(m.beamsplitter, m.branch_ket(0)), m.uniform_superposition()]
    maps = [m.group.phase_family.sample(np.random.default_rng(3)), m.beamsplitter]
    effects = [m.diagonal_map(np.eye(m.dim)[0]), m.branch_state(0)]
    calls = [(m.apply, (T, s)) for T in maps for s in states]
    calls += [(m.probability, (E, s)) for E in effects for s in states]
    calls += [(m.states_close, pair) for pair in itertools.product(states, repeat=2)]
    calls += [(f, pair) for f in (m.compose, m.maps_commute) for pair in itertools.product(maps, repeat=2)]
    calls += [(f, (s,)) for f in (m.contains, m.branch_probabilities) for s in states]
    calls += [(f, (T,)) for f in (m.is_identity_map, m.dense) for T in maps]
    form, seen = m._form, []
    monkeypatch.setattr(m, "_form", lambda x, role: seen.append(x) or form(x, role))
    for call, operands in calls:
        seen.clear()
        call(*operands)
        assert len(seen) == len(operands), call.__name__
        assert {id(x) for x in seen} == {id(x) for x in operands}, call.__name__


@pytest.mark.parametrize("m", [quantum_theory(1), quaternionic_theory(2)], ids=_label)
def test_a_non_real_diagonal_effect_is_refused_by_name(m):
    # a diagonal effect must be self-adjoint: an imaginary part (or an
    # i/j/k component) is refused on kets and densities alike
    entries = m._lift(np.array([1.0, 0.0]))
    entries[-1, 0] += 1e-3j if entries.shape[0] == 1 else 1e-3
    effect = DiagonalMap(entries)
    assert not effect.real and m.diagonal_map([1.0, 0.0]).real
    for state in (m.branch_ket(0), m.branch_state(0)):
        with pytest.raises(ValueError) as err:
            m.probability(effect, state)
        assert str(err.value) == f"{m.name} theory reads a diagonal effect with real entries, got a non-real (non-Hermitian) one"


@pytest.mark.parametrize(
    "m,shapes",
    [(quantum_theory(1), [(2,), (1, 2), (2, 3), (3, 3)]), (quaternionic_theory(2), [(1, 2), (2, 3), (3, 3)])],
    ids=["quantum", "quaternionic"],
)
def test_apply_and_probability_refuse_a_state_that_is_neither_ket_nor_density(m, shapes):
    # a flat vector was once read as a density: apply(B, [1, 0]) gave [1, 0]
    for shape in shapes:
        state = np.zeros(shape, dtype=complex) if isinstance(m, DensityMatrixTheory) else QuatMatrix(np.zeros((4,) + shape))
        state_shape = state.shape
        for call in (
            lambda: m.apply(m.beamsplitter, state),
            lambda: m.apply(m.identity_map(), state),
            lambda: m.apply(m.group.phase_family.sample(np.random.default_rng(0)), state),
            lambda: m.probability(m.branch_state(0), state),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"{m.name} theory expects a 2x1 ket or a 2x2 density matrix, got a matrix of shape {state_shape}"
    assert m.states_close(m.apply(m.beamsplitter, m.branch_state(0)), m.uniform_superposition())


def test_a_ket_is_not_broadcast_against_a_density():
    # these broadcast once: a wrong True, a bare numpy error, a
    # concatenation error.  A ket is now read as its density: the
    # unnormalized ket (1/2, 1/2) has density 1/4 everywhere, not 1/2
    q = quantum_theory(1)
    assert not q.states_close(np.array([[0.5], [0.5]]), np.full((2, 2), 0.5))
    assert q.states_close(np.full((2, 1), np.sqrt(0.5)), np.full((2, 2), 0.5))
    h = quaternionic_theory(2)
    assert h.states_close(h.branch_ket(0), h.branch_state(0))
    assert not h.states_close(h.branch_ket(0), h.branch_state(1))
    assert np.array_equal(h.branch_probabilities(h.branch_ket(1)), [0.0, 1.0])


@pytest.mark.parametrize("m", [classical_theory(2), gbit_theory(2)], ids=lambda m: m.name)
def test_a_vector_map_or_effect_of_another_dimension_is_refused(m):
    # apply and probability once checked the map or effect against the state only
    short, full = GptState([1.0]), GptState(np.full(m.state_dim, 0.5))
    for call, kind in (
        (lambda: m.apply(LinearMap(np.eye(1)), short), "map"),
        (lambda: m.apply(LinearMap(np.eye(1)), full), "map"),
        (lambda: m.apply(m.identity_map(), short), "state"),
        (lambda: m.probability(Effect([1.0]), short), "effect"),
        (lambda: m.probability(Effect([1.0]), full), "effect"),
        (lambda: m.probability(m.z_effects[0], short), "state"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{kind} dimension 1 does not match theory dimension {m.state_dim}"
    assert m.probability(m.z_effects[0], m.apply(m.identity_map(), full)) == 0.5


@pytest.mark.parametrize("m", [classical_theory(2), gbit_theory(2)], ids=lambda m: m.name)
def test_a_vector_state_of_another_dimension_is_not_broadcast(m):
    # compared entrywise, a one-entry vector would broadcast against any state whose entries all equal it
    full, short = GptState(np.full(m.state_dim, 0.5)), GptState([0.5])
    message = f"state dimension 1 does not match theory dimension {m.state_dim}"
    for a, b in ((full, short), (short, full), (short, short)):
        with pytest.raises(ValueError) as err:
            m.states_close(a, b)
        assert str(err.value) == message
    assert m.states_close(full, full)
    # so is a map: compose, is_identity_map and maps_commute read its dimension
    own = m.identity_map()
    for d in (1, m.state_dim + 2):
        other = LinearMap(np.eye(d))
        for call in (
            lambda: m.is_identity_map(other),
            lambda: m.compose(other, other),
            lambda: m.compose(own, other),
            lambda: m.maps_commute(other, own),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"map dimension {d} does not match theory dimension {m.state_dim}"
    assert m.is_identity_map(m.compose(own, own))


@pytest.mark.parametrize(
    "m,state",
    [
        (quantum_theory(1), np.array([[np.inf, 0.0], [0.0, 0.0]], dtype=complex)),
        (classical_theory(2), GptState([np.inf, 0.0])),
    ],
    ids=["quantum", "classical"],
)
def test_a_state_with_an_infinite_entry_is_not_close_to_itself(m, state):
    assert not m.states_close(state, state)


@pytest.mark.parametrize("build", [lambda: quantum_theory(7), lambda: quaternionic_theory(128)],
                         ids=["quantum7", "quaternionic128"])
def test_an_oversized_spanning_set_is_refused_before_any_state_is_built(build):
    m = build()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"N <= 64 \(MAX_SPANNING_LEVELS\), got N = {m.dim}"):
            m.spanning_states
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- the diagonal form --------------------------------------------------------------------

# at two branches every diagonal is local to both; the samples need more
_DIAGONAL_THEORIES = [quantum_theory(2), quantum_theory(3), quaternionic_theory(4)]


def _close(m, a, b) -> bool:
    return np.abs(m._entries(a) - m._entries(b)).max() <= 1e-12


def _writeable(m, X) -> bool:
    return (X.comps if isinstance(X, DiagonalMap) else m._entries(X)).flags.writeable


def _times_global_phase(m, psi, rng):
    # psi u for a random unit u of the algebra, on the right: the same state
    return m._column(m._entrywise(m._entries(psi)[:, :, 0], m._random_phases(rng, 1)))


@pytest.mark.parametrize("m", _DIAGONAL_THEORIES, ids=_label)
def test_the_diagonal_form_agrees_with_its_dense_materialization(m):
    # the dense form is the reference: phase- and branch-family samples and
    # the sign encoding against their materializations, on kets, densities,
    # diagonal and dense maps; mixed operands are materialized bit for bit
    rng = np.random.default_rng(15)
    diagonals = [m.group.phase_family.sample(rng) for _ in range(4)]
    diagonals += [m.group.branch_family(b).sample(rng) for b in range(m.dim)]
    diagonals += [T for pair in sign_encoding(m).pairs for T in pair]
    others = [m.beamsplitter, _random_map(m, rng)]
    verdicts = set()
    for D in diagonals:
        M = m.dense(D)
        assert isinstance(D, DiagonalMap) and type(M) is type(m.beamsplitter)
        for _ in range(3):
            psi = _random_ket(m, rng)
            assert _close(m, m.apply(D, psi), m.apply(M, psi))
            assert _close(m, m.apply(D, _density(psi)), m.apply(M, _density(psi)))
            # every image is read-only, from the diagonal and the dense path alike
            assert not any(_writeable(m, m.apply(T, s)) for T in (D, M) for s in (psi, _density(psi)))
        assert m.is_identity_map(D) == m.is_identity_map(M)
        assert is_phase_operation(m, D) == is_phase_operation(m, M)
        for branch in range(m.dim):
            # structured probes against their materializations, for either form of the map
            probes = m.branch_local_probes(branch)
            dense_probes = [_materialized(m, s) for s in probes]
            local = is_branch_local(m, D, branch)
            verdicts.add(("local", local))
            assert local == is_branch_local(m, M, branch)
            assert local == all(m.states_close(m.apply(D, P), P) for P in dense_probes)
            assert local == all(m.states_close(m.apply(M, P), P) for P in dense_probes)
            # a diagonal state: entrywise under a diagonal, materialized under a dense map
            image = m.apply(D, probes[0])
            assert isinstance(image, DiagonalMap) and _close(m, _materialized(m, image), m.apply(M, dense_probes[0]))
            assert np.array_equal(m._entries(m.apply(M, probes[0])), m._entries(m.apply(M, dense_probes[0])))
        for E in diagonals:
            DE = m.compose(D, E)
            assert not any(_writeable(m, X) for X in (DE, m.compose(D, m.dense(E)), m.compose(M, E), m.compose(M, m.dense(E))))
            assert isinstance(DE, DiagonalMap) and _close(m, m.dense(DE), M @ m.dense(E))
            assert np.array_equal(m._entries(m.compose(D, m.dense(E))), m._entries(M @ m.dense(E)))
            assert np.array_equal(m._entries(m.compose(M, E)), m._entries(M @ m.dense(E)))
            verdict = m.maps_commute(D, E)
            verdicts.add(("commute", verdict))
            assert verdict == m.maps_commute(M, m.dense(E)) == m.maps_commute(D, m.dense(E)) == m.maps_commute(M, E)
        for X in others:
            assert np.array_equal(m._entries(m.compose(D, X)), m._entries(M @ X))
            assert np.array_equal(m._entries(m.compose(X, D)), m._entries(X @ M))
            verdicts.add(("commute", m.maps_commute(D, X)))
            assert m.maps_commute(D, X) == m.maps_commute(M, X) and m.maps_commute(X, D) == m.maps_commute(X, M)
    # a diagonal effect reads as its dense projector, on kets, densities and diagonal states
    effects = [m.diagonal_map(np.arange(m.dim) == j) for j in range(m.dim)] + [m.diagonal_map(rng.uniform(-1.0, 1.0, m.dim))]
    for E in effects:
        for _ in range(3):
            psi = _random_ket(m, rng)
            for state in (psi, _density(psi), m.branch_local_probes(0)[0]):
                assert abs(m.probability(E, state) - m.probability(m.dense(E), state)) <= 1e-12
    # states_close on ket, diagonal and mixed pairs gives the densities' verdict
    psi = _random_ket(m, rng)
    states = [psi, _times_global_phase(m, psi, rng), m.apply(diagonals[0], psi), m.branch_ket(1)]
    states += [_times_global_phase(m, m.branch_ket(1), rng), m.diagonal_map(np.arange(m.dim) == 1)]
    states += [m.branch_local_probes(0)[0], m.branch_local_probes(1)[0], m.diagonal_map(rng.uniform(0.0, 1.0, m.dim))]
    states += [_materialized(m, s) for s in states]
    for a, b in itertools.product(states, repeat=2):
        verdict = m.states_close(a, b)
        forms = frozenset((_state_form(m, a), _state_form(m, b)))
        verdicts.add((forms, verdict))
        assert verdict == m.states_close(_materialized(m, a), _materialized(m, b))
    # both answers occur, so agreement is not vacuous
    kinds = ["local", "commute"] + [frozenset(pair) for pair in itertools.combinations_with_replacement(("ket", "diagonal", "density"), 2)]
    assert verdicts == {(kind, v) for kind in kinds for v in (True, False)}
    local = BranchEncoding(tuple((m.identity_map(), m.group.branch_family(b).sample(rng)) for b in range(m.dim)))
    for enc in (sign_encoding(m), local):
        dense_enc = BranchEncoding(tuple(tuple(m.dense(T) for T in pair) for pair in enc.pairs))
        for spec in constant_balanced_specs(m.dim.bit_length() - 1):
            oracle = build_oracle(m, spec, enc)
            assert isinstance(oracle, DiagonalMap) and _close(m, m.dense(oracle), build_oracle(m, spec, dense_enc))


@pytest.mark.parametrize("m", _DIAGONAL_THEORIES, ids=_label)
def test_a_ket_pair_judged_close_is_close_as_densities(m):
    # a seeded sweep of errors from atol / 30 to 30 atol, spread over a
    # random ket or put on the largest entry of a branch ket, after a random
    # global phase: every pair judged close is close as densities at the
    # same atol, and both verdicts occur
    rng = np.random.default_rng(16)
    verdicts = set()
    for size in np.geomspace(m.atol / 30.0, 30.0 * m.atol, 61):
        for psi, spread in ((_random_ket(m, rng), True), (m.branch_ket(0), False)):
            shape = m._entries(psi).shape
            error = rng.standard_normal(shape) if spread else np.eye(1, shape[0] * shape[1]).reshape(shape)
            if isinstance(m, DensityMatrixTheory):
                error = error * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))
            error *= size / np.abs(error).max()
            a = m._matrix(m._entries(_times_global_phase(m, psi, rng)) + error)
            close = m.states_close(a, psi)
            verdicts.add(close)
            assert not close or m.states_close(_density(a), _density(psi))
    assert verdicts == {True, False}


@pytest.mark.parametrize("m", [quantum_theory(2), quaternionic_theory(3)], ids=_label)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-1.5, 1.5), spread=st.booleans())
def test_kets_judged_close_are_close_as_densities(m, seed, exponent, spread):
    # the ket test is one-sided: True as kets implies True as densities (and so in mixed forms),
    # never the converse; errors of atol * 10**exponent, over every entry or on one
    rng = np.random.default_rng(seed)
    psi = _random_ket(m, rng)
    shape = m._entries(psi).shape
    error = rng.standard_normal(shape) if spread else np.eye(1, shape[0] * shape[1], rng.integers(shape[0] * shape[1])).reshape(shape)
    if isinstance(m, DensityMatrixTheory):
        error = error * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))
    error *= m.atol * 10.0**exponent / np.abs(error).max()
    a = m._matrix(m._entries(_times_global_phase(m, psi, rng)) + error)
    if m.states_close(a, psi):
        assert m.states_close(_density(a), _density(psi))
        assert m.states_close(a, _density(psi)) and m.states_close(_density(a), psi)


def test_two_kets_close_as_densities_may_read_not_close():
    # the ket test bounds every entry of a - b u by atol / (3 sqrt(k) S): a 5e-10 entry is past it,
    # though the densities differ by at most 5e-10 in any entry
    q = quantum_theory(1)
    a, b = np.array([[1.0], [0.0]], dtype=complex), np.array([[1.0], [5e-10]], dtype=complex)
    assert not q.states_close(a, b)
    assert q.states_close(_density(a), _density(b))
    assert q.states_close(a, _density(b)) and q.states_close(_density(a), b)


@pytest.mark.parametrize("m", _DIAGONAL_THEORIES, ids=_label)
def test_a_small_remote_phase_error_is_refused_in_both_forms(m):
    # a sign flip on branch 0 whose remote entry 1 carries a 1e-6 phase is
    # not local to branch 0: the uniform remote probe moves by about 1e-6
    # per entry, though 1 - |<T psi|psi>| stays under atol, so a test
    # quadratic in the error would accept it
    eps = 1e-6
    d = m._lift(1.0 - 2.0 * (np.arange(m.dim) == 0))
    d[:, 1] = np.cos(eps) * m.PHASES[0] + np.sin(eps) * m.PHASES[1]
    T = DiagonalMap(d)
    probes = m.branch_local_probes(0)
    assert not is_branch_local(m, T, 0) and not is_branch_local(m, m.dense(T), 0)
    assert not all(m.states_close(m.apply(T, P), P) for P in (_materialized(m, s) for s in probes))
    uniform = m._entries(probes[1])[:, :, 0]
    moved = m._entries(m.apply(T, probes[1]))[:, :, 0]
    assert 1.0 - np.linalg.norm(m._entrywise(m._conj(uniform), moved).sum(axis=1)) <= m.atol
    # the same map with an exact 1 there is local to branch 0
    d[:, 1] = m.PHASES[0]
    assert is_branch_local(m, DiagonalMap(d), 0)


@pytest.mark.parametrize("m", [quantum_theory(8), quaternionic_theory(128)], ids=_label)
def test_a_locality_check_forms_no_dense_probe(m):
    # one dense N x N probe density takes 1 MB at quantum N = 256 and 2 MB
    # at quaternionic N = 128
    flip = sign_encoding(m).pairs[1][1]
    tracemalloc.start()
    try:
        verdicts = [is_branch_local(m, flip, b) for b in (0, 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdicts == [False, True] and peak < 64 * 2**10


@pytest.mark.parametrize(
    "m", [quantum_theory(n) for n in (1, 2, 3, 4)] + [quaternionic_theory(N) for N in (2, 3, 4, 8, 16)], ids=_label
)
def test_locality_probes_from_shared_bases_match_a_fresh_build(m):
    # each branch's probes are built from read-only bases no branch changes, the mixture's
    # weights written in place; a first and a later call give the np.concatenate build bit for bit
    for _ in range(2):
        for branch in range(m.dim):
            probes, fresh = m.branch_local_probes(branch), reference_branch_local_probes(m, branch)
            assert len(probes) == len(fresh)
            for probe, expected in zip(probes, fresh):
                assert _state_form(m, probe) == _state_form(m, expected)
                entries, expected = getattr(probe, "comps", probe), getattr(expected, "comps", expected)
                assert not entries.flags.writeable
                assert entries.dtype == expected.dtype and entries.tobytes() == expected.tobytes()
    ramp, uniform, pinned = m._probe_bases
    assert not ramp.flags.writeable and not uniform.flags.writeable
    assert len(pinned) == (0 if m.dim == 2 else 3)


def _same_form_variants(m, x):
    # x and copies of x with one entry changed: a zero's sign, a NaN, an infinity, one ulp up
    entries = x.comps if isinstance(x, DiagonalMap) else m._entries(x)
    rebuild = DiagonalMap if isinstance(x, DiagonalMap) else m._matrix
    flat = np.flatnonzero(entries == 0.0)[0], np.flatnonzero(entries)[0]
    variants = [x]
    for at, value in ((flat[0], -0.0), (flat[1], np.nan), (flat[1], np.inf), (flat[1], np.nextafter(entries.flat[flat[1]].real, 2.0))):
        changed = entries.copy()
        changed.flat[at] = value
        variants.append(rebuild(changed))
    return variants


@pytest.mark.parametrize("m", [quantum_theory(2), quaternionic_theory(4)], ids=_label)
def test_states_close_of_one_form_matches_the_dense_comparison(m):
    # the exact path (== and .all(), then a finiteness check) and the paths after it give
    # the dense comparison's verdict for every same-form pair, over all three forms
    psi = m.apply(m.beamsplitter, m.branch_ket(0))
    psi = m.apply(m.diagonal_map(np.arange(m.dim) != 1), psi)  # a zero entry, for the zero's sign
    for x in (psi, _density(psi), m.branch_local_probes(0)[0]):
        variants = _same_form_variants(m, x)
        assert len({_state_form(m, v) for v in variants}) == 1
        verdicts = set()
        for a, b in itertools.product(variants, repeat=2):
            verdict = m.states_close(a, b)
            assert verdict is reference_states_close(m, a, b)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def test_locality_checks_keep_no_per_branch_probe_store():
    # a probe set per branch would hold N x 4 probes of 32 N bytes each, 8 MB
    # at N = 256; the shared bases hold O(N)
    m = quaternionic_theory(256)
    flip = sign_encoding(m).pairs[1][1]
    tracemalloc.start()
    try:
        verdicts = [is_branch_local(m, flip, b) for b in range(m.dim)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdicts == [b == 1 for b in range(m.dim)] and held < 16 * 32 * m.dim


def test_a_hermitian_matrix_of_trace_other_than_one_is_not_a_state():
    for m in (quantum_theory(1), quaternionic_theory(2)):
        for diagonal in ([0.5, 0.2], [1.0, 0.5]):
            assert not m.contains(m.dense(m.diagonal_map(diagonal)))
        assert m.contains(m.dense(m.diagonal_map([0.5, 0.5])))


@pytest.mark.parametrize("support", [frozenset({1}), frozenset({1, 2, 3}), frozenset({1, 5}), frozenset({0, 1})])
def test_an_epistemic_state_needs_a_two_point_support(support):
    with pytest.raises(ValueError, match="^an epistemic state is a two-element subset of the four points$"):
        spekkens_epistemic_statistics(support)
