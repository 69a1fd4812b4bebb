"""Tests for the quaternion scalar/matrix layer.

Core claims:
    - the Hamilton product satisfies the defining unit relations
    - the symplectic dagger anti-commutes over products
    - the reference Sp(N) check (S S^dagger = I) accepts unit-diagonal and
      random Gram-Schmidt matrices and rejects non-unit scalings
    - probabilities come out of real traces, with the imaginary-residue
      guard raising on genuinely non-real traces
    - conjugation by a global non-real unit changes states; real units never do
    - the real part of the trace is cyclic; the residue-checked pairing
      agrees on the residue-free family
    - the fixed branch projectors are real, diagonal, idempotent and complete
    - the batched product, entrywise product and trace kernels agree with
      entry-by-entry qmul sums
    - closeness is absolute: a matrix or a scalar holding inf is not close
      to itself, and numpy components raise no warning on inf - inf; an
      operand equal to itself bit for bit is close only when finite, in
      each state form (diagonal, ket, density) of both matrix algebras
    - the entrywise product equals the broadcast reference to the bit, the
      sign of every zero included; a matrix product is read-only
    - complex, string and object components are refused by name, where
      complex ones were cut to their real parts with only a ComplexWarning;
      a product of another float dtype is converted to float64
"""

import itertools
import warnings

import numpy as np
import pytest

from gptifer.quaternion import (
    I,
    J,
    K,
    ONE,
    NumericConsistencyError,
    QuatMatrix,
    Quaternion,
    conjugate_state,
    qmul,
    real_trace_prob,
)
from gptifer.core import DiagonalMap, near_zero
from gptifer.quaternion import _hamilton_contract, _hamilton_entrywise, _hamilton_matmul, _product_trace
from gptifer.theories import quantum_theory, quaternionic_theory
from reference import _vec_inner, is_symplectic, quat_diagonal, quat_pure, random_symplectic, random_unit_quaternion

RNG = np.random.default_rng(2024)
M2, M3 = quaternionic_theory(2), quaternionic_theory(3)


# -- scalar algebra ------------------------------------------------------------


def test_defining_relations():
    minus_one = Quaternion(-1.0)
    assert qmul(I, I) == minus_one
    assert qmul(J, J) == minus_one
    assert qmul(K, K) == minus_one
    assert qmul(qmul(I, J), K) == minus_one
    assert qmul(I, J) == K
    assert qmul(J, K) == I
    assert qmul(K, I) == J


def test_identity_and_norm_product():
    q = Quaternion(0.3, -0.4, 0.5, 0.7)
    assert qmul(ONE, q) == q
    nsq = qmul(q, q.conjugate())
    assert nsq.isclose(Quaternion(q.norm() ** 2), atol=1e-12)


def test_noncommutativity_witness_and_real_center():
    assert qmul(I, J) != qmul(J, I)
    for unit in (I, J, K):
        for real in (ONE, Quaternion(-1.0)):
            assert qmul(real, unit) == qmul(unit, real)


# -- dagger ---------------------------------------------------------------------


def test_dagger_fixes_real_symmetric():
    M = QuatMatrix([[[1.0, 2.0], [2.0, 5.0]], *np.zeros((3, 2, 2))])
    assert near_zero(M.dagger().comps - M.comps, 1e-9)


def test_dagger_conjugates_imaginary_diagonal():
    M = M2.dense(quat_diagonal(I, ONE))
    expected = M2.dense(quat_diagonal(Quaternion(0.0, -1.0), ONE))
    assert near_zero(M.dagger().comps - expected.comps, 1e-9)


def test_an_infinite_entry_is_not_close_to_itself():
    M = QuatMatrix([[[np.inf, 0.0], [0.0, 1.0]], *np.zeros((3, 2, 2))])
    assert not M2.states_close(M, M)
    assert not Quaternion(np.inf).isclose(Quaternion(np.inf))
    # an operand bitwise equal to itself is close only if finite: a NaN or an
    # infinity fails in each form and in both algebras
    for m in (quantum_theory(1), M2):
        for bad in (np.nan, np.inf, -np.inf):
            entries = m._lift(np.array([bad, 0.5]))
            density = m._lift(np.diag([bad, 0.5]))
            for state in (DiagonalMap(entries), m._column(entries), m._matrix(density)):
                assert not m.states_close(state, state)
            finite = m._lift(np.array([1.0, 0.0]))
            assert m.states_close(m._column(finite), m._column(finite))


def test_a_numpy_infinite_component_is_not_close_to_itself_without_a_warning():
    # numpy float components once warned on inf - inf, an error under -W error
    q = Quaternion(*np.array([np.inf, 0.0, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not q.isclose(q)
        assert Quaternion(*np.array([1.0, 0.0, 0.0, 0.0])).isclose(ONE)


def test_dagger_antihomomorphism_on_random_symplectics():
    for _ in range(5):
        S = random_symplectic(3, RNG)
        T = random_symplectic(3, RNG)
        assert near_zero((S @ T).dagger().comps - (T.dagger() @ S.dagger()).comps, 1e-9)


# -- symplectic membership ----------------------------------------------------------


def test_identity_is_symplectic():
    assert is_symplectic(M3.dense(M3.identity_map()))


def test_unit_diagonal_is_symplectic():
    for _ in range(20):
        u = random_unit_quaternion(RNG)
        assert is_symplectic(M2.dense(quat_diagonal(u, ONE)))


def test_nonunit_scaling_is_not_symplectic():
    assert not is_symplectic(M2.dense(quat_diagonal(Quaternion(2.0), ONE)))


def test_random_symplectic_really_is():
    for n in (2, 4):
        S = random_symplectic(n, RNG)
        assert is_symplectic(S)
        m = quaternionic_theory(n)
        assert near_zero((S.dagger() @ S).comps - m.dense(m.identity_map()).comps, 1e-9)


# -- probabilities -----------------------------------------------------------------


Z0 = M2.branch_state(0)


def uniform_rho():
    return quaternionic_theory(2).uniform_superposition()


def test_uniform_superposition_probability():
    assert real_trace_prob(Z0, uniform_rho()) == pytest.approx(0.5, abs=1e-12)


def test_identity_effect_gives_one():
    rho = quat_pure(Quaternion(0.6), Quaternion(0.0, 0.8))
    assert real_trace_prob(M2.dense(M2.identity_map()), rho) == pytest.approx(1.0, abs=1e-12)


def test_jk_phased_superposition_probability():
    # direct expansion: rho_00 = j * conj(j) / 2 = 1/2
    inv = 1.0 / np.sqrt(2.0)
    rho = quat_pure(Quaternion(0, 0, inv, 0), Quaternion(0, 0, 0, inv))
    assert real_trace_prob(Z0, rho) == pytest.approx(0.5, abs=1e-12)


def test_residue_guard_raises_on_cross_plane_pair():
    # hand expansion: tr(e_i rho_j) = 1/2 - k/2, so the residue is exactly 1/2
    inv = 1.0 / np.sqrt(2.0)
    e_i = quat_pure(Quaternion(inv), Quaternion(0, inv))
    rho_j = quat_pure(Quaternion(inv), Quaternion(0, 0, inv))
    with pytest.raises(
        NumericConsistencyError,
        match=r"^trace has imaginary residue 5\.000e-01 above tolerance 1\.0e-09$",
    ):
        real_trace_prob(e_i, rho_j)
    assert real_trace_prob(e_i, rho_j, atol=0.5) == pytest.approx(0.5, abs=1e-15)


# -- conjugation ----------------------------------------------------------------------


def test_conjugate_by_identity_fixes_state():
    rho = uniform_rho()
    assert near_zero(conjugate_state(M2.dense(M2.identity_map()), rho).comps - rho.comps, 1e-9)


def test_conjugate_by_sign_flip_flips_off_diagonals():
    # hand expansion: diag(-1, 1) rho diag(-1, 1) negates the off-diagonal
    S = M2.dense(M2.diagonal_map([-1.0, 1.0]))
    out = conjugate_state(S, uniform_rho())
    expected = [[0.5, -0.5], [-0.5, 0.5]]
    assert near_zero(out.comps - [expected, *np.zeros((3, 2, 2))], 1e-12)


def test_global_imaginary_phase_changes_j_valued_state():
    inv = 1.0 / np.sqrt(2.0)
    rho = quat_pure(Quaternion(inv), Quaternion(0, 0, inv))
    G = M2.dense(quat_diagonal(I, I))
    out = conjugate_state(G, rho)
    assert not near_zero(out.comps - rho.comps, 1e-6)
    # Hermiticity and trace survive
    assert near_zero(out.comps - out.dagger().comps, 1e-9)
    assert np.trace(out.comps[0]) == pytest.approx(1.0, abs=1e-12)


def test_global_real_signs_never_change_states():
    for _ in range(10):
        comps = RNG.standard_normal((4, 3))
        comps /= np.sqrt(np.sum(comps**2))
        rho = quat_pure(*(Quaternion(*c) for c in comps.T))
        for sign in (1.0, -1.0):
            G = M3.dense(M3.diagonal_map([sign] * 3))
            assert near_zero(conjugate_state(G, rho).comps - rho.comps, 1e-12)


# -- trace properties ------------------------------------------------------------------


def test_trace_cyclicity_on_residue_free_family():
    # real-symmetric random states keep both traces exactly real, so the
    # residue-checked pairing applies on both sides
    for _ in range(10):
        S = random_symplectic(3, RNG)
        A = RNG.standard_normal((3, 3))
        rho_real = A @ A.T
        rho_real /= np.trace(rho_real)
        rho = QuatMatrix([rho_real, *np.zeros((3, 3, 3))])
        E = M3.branch_state(0)
        lhs = real_trace_prob(E, conjugate_state(S, rho))
        rhs = real_trace_prob(S.dagger() @ E @ S, rho)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_real_trace_cyclicity_fully_generic():
    # Re tr(MN) = Re tr(NM) even where the full trace is not real
    for _ in range(10):
        comps_a = RNG.standard_normal((4, 3, 3))
        comps_b = RNG.standard_normal((4, 3, 3))
        A, B = QuatMatrix(comps_a), QuatMatrix(comps_b)
        assert np.trace((A @ B).comps[0]) == pytest.approx(np.trace((B @ A).comps[0]), abs=1e-9)


def test_fixed_branch_projectors_are_real_diagonal_complete():
    m = quaternionic_theory(4)
    projectors = m.z_effects
    for idx, P in enumerate(projectors):
        assert np.all(P.comps[1:] == 0.0)
        assert near_zero((P @ P).comps - P.comps, 1e-9)
        for jdx, Q in enumerate(projectors):
            if idx != jdx:
                assert near_zero((P @ Q).comps, 1e-9)
    total = sum(P.comps for P in projectors)
    assert near_zero(total - m.dense(m.identity_map()).comps, 1e-9)


# -- representation helpers ----------------------------------------------------------


def test_complex_adjoint_is_multiplicative_and_faithful():
    A = random_symplectic(2, RNG)
    B = random_symplectic(2, RNG)
    np.testing.assert_allclose(
        (A @ B).complex_adjoint(),
        A.complex_adjoint() @ B.complex_adjoint(),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        A.dagger().complex_adjoint(), A.complex_adjoint().conj().T, atol=1e-12
    )


def test_symplectic_inner_product_kernel():
    # the Gram-Schmidt kernel of random_symplectic: sum_i conj(u_i) v_i
    inv = 1.0 / np.sqrt(2.0)
    phi = np.transpose([Quaternion(inv).components(), Quaternion(0, 0, inv).components()])
    i_phi = _hamilton_entrywise(np.array(I.components())[:, None], phi)  # i psi_i
    assert Quaternion(*_vec_inner(phi, i_phi)[:, 0]).norm() == pytest.approx(0.0, abs=1e-12)
    assert Quaternion(*_vec_inner(phi, phi)[:, 0]).isclose(ONE, atol=1e-12)


# -- kernels against entry-by-entry references -----------------------------------------


def _quats(comps):
    return [[Quaternion(*comps[:, i, j]) for j in range(comps.shape[2])] for i in range(comps.shape[1])]


def _qsum(terms):
    total = Quaternion()
    for q in terms:
        total = total + q
    return total


SIZES = (1, 2, 5, 16)


@pytest.mark.parametrize("rows,cols", itertools.product(SIZES, SIZES))
def test_batched_product_matches_qmul_loop(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    for inner in SIZES:
        a = rng.standard_normal((4, rows, inner))
        b = rng.standard_normal((4, inner, cols))
        qa, qb = _quats(a), _quats(b)
        ref = np.array(
            [
                [_qsum(qmul(qa[i][k], qb[k][j]) for k in range(inner)).components() for j in range(cols)]
                for i in range(rows)
            ]
        ).transpose(2, 0, 1)
        np.testing.assert_allclose(_hamilton_matmul(a, b), ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rows,cols", itertools.product(SIZES, SIZES))
def test_trace_kernel_matches_qmul_loop(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols + 7)
    a = rng.standard_normal((4, rows, cols))
    b = rng.standard_normal((4, cols, rows))
    qa, qb = _quats(a), _quats(b)
    ref = _qsum(qmul(qa[i][j], qb[j][i]) for i in range(rows) for j in range(cols))
    np.testing.assert_allclose(_product_trace(a, b), ref.components(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("cols", SIZES)
def test_entrywise_product_matches_qmul(cols):
    rng = np.random.default_rng(cols)
    a = rng.standard_normal((4, 3, cols))
    b = rng.standard_normal((4, 3, cols))
    qa, qb = _quats(a), _quats(b)
    ref = np.array(
        [[qmul(qa[i][j], qb[i][j]).components() for j in range(cols)] for i in range(3)]
    ).transpose(2, 0, 1)
    np.testing.assert_allclose(_hamilton_entrywise(a, b), ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("shapes", [((4, 5), (4, 5)), ((4, 5, 1), (4, 5, 1)), ((4, 5), (4, 1)), ((4, 5, 1), (4, 5, 5)), ((4, 5, 5), (4, 1, 5))])
def test_the_entrywise_product_matches_the_broadcast_reference_to_the_bit(shapes):
    # the reference forms the sixteen component products by broadcasting;
    # zeros of both signs and whole zero entries are drawn on purpose
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b = (rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5, -2.5, 1e-300], size=shape) for shape in shapes)
        got = _hamilton_entrywise(a, b)
        expected = _hamilton_contract(a[:, None] * b[None, :])
        assert got.tobytes() == expected.tobytes()


def test_a_matrix_product_is_read_only():
    S, T = random_symplectic(3, RNG), random_symplectic(3, RNG)
    product = S @ T
    assert not product.comps.flags.writeable
    assert product.comps.tobytes() == _hamilton_matmul(S.comps, T.comps).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        product.comps[0, 0, 0] = 1.0


@pytest.mark.parametrize("shape", [(4, 2), (3, 2, 2), (4, 2, 2, 1)])
def test_a_component_array_of_another_shape_is_refused(shape):
    with pytest.raises(ValueError, match=r"^component array must have shape \(4, rows, cols\)$"):
        QuatMatrix(np.zeros(shape))


@pytest.mark.parametrize(
    "comps,dtype",
    [
        (np.stack([np.eye(2) * (1 + 2j)] + [np.zeros((2, 2))] * 3), "complex128"),
        (np.full((4, 2, 2), "0.5"), "<U3"),
        (np.zeros((4, 2, 2), dtype=object), "object"),
    ],
    ids=["complex", "str", "object"],
)
def test_components_that_are_not_real_numbers_are_refused(comps, dtype):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            QuatMatrix(comps)
    assert str(err.value) == f"QuatMatrix components must be real numbers, got dtype {dtype}"
    assert QuatMatrix(np.ones((4, 1, 1), dtype=int)).comps.dtype == np.float64


def test_a_long_double_image_is_converted_to_float64():
    # QuatMatrix._of_product takes a float64 product as it is and converts any other
    m = quaternionic_theory(2)
    entries = np.zeros((4, 2))
    entries[0] = (1.0, -0.5)
    image = m.apply(DiagonalMap(entries.astype(np.longdouble)), m.branch_ket(1))
    expected = m.apply(DiagonalMap(entries), m.branch_ket(1))
    assert type(image) is QuatMatrix and image.comps.dtype == np.float64
    assert image.comps.tobytes() == expected.comps.tobytes() and not image.comps.flags.writeable
