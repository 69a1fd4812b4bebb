"""Tests for the quaternion scalar/matrix layer.

Core claims:
    - the Hamilton product satisfies the defining unit relations
    - the symplectic dagger anti-commutes over products
    - membership in Sp(N), as the quaternionic theory decides it, accepts
      unit-diagonal and random Gram-Schmidt matrices and rejects non-unit
      scalings
    - probabilities come out of real traces, with the imaginary-residue
      guard raising on genuinely non-real traces
    - conjugation by a global non-real unit changes states; real units never do
    - the real part of the trace is cyclic; the residue-checked pairing
      agrees on the residue-free family
    - the fixed branch projectors are real, diagonal, idempotent and complete
    - the batched product, entrywise product and trace kernels agree with
      entry-by-entry qmul sums
"""

import itertools

import numpy as np
import pytest

from gptifer.quaternion import (
    I,
    J,
    K,
    ONE,
    NumericConsistencyError,
    QuatKet,
    QuatMatrix,
    Quaternion,
    conjugate_state,
    qmul,
    random_symplectic,
    real_trace_prob,
)
from gptifer.quaternion import _hamilton_entrywise, _hamilton_matmul, _product_trace, _vec_inner
from gptifer.theories import quaternionic_theory
from reference import random_unit_quaternion

RNG = np.random.default_rng(2024)


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
    M = QuatMatrix.from_real([[1.0, 2.0], [2.0, 5.0]])
    assert M.dagger().isclose(M)


def test_dagger_conjugates_imaginary_diagonal():
    M = QuatMatrix.diag([I, ONE])
    expected = QuatMatrix.diag([Quaternion(0.0, -1.0), ONE])
    assert M.dagger().isclose(expected)


def test_dagger_antihomomorphism_on_random_symplectics():
    for _ in range(5):
        S = random_symplectic(3, RNG)
        T = random_symplectic(3, RNG)
        assert (S @ T).dagger().isclose(T.dagger() @ S.dagger(), atol=1e-9)


# -- symplectic membership ----------------------------------------------------------


def is_symplectic(S):
    # the library's own check: membership in the theory's group Sp(N)
    return quaternionic_theory(S.shape[0]).group.group.contains(S)


def test_identity_is_symplectic():
    assert is_symplectic(QuatMatrix.identity(3))


def test_unit_diagonal_is_symplectic():
    for _ in range(20):
        u = random_unit_quaternion(RNG)
        assert is_symplectic(QuatMatrix.diag([u, ONE]))


def test_nonunit_scaling_is_not_symplectic():
    assert not is_symplectic(QuatMatrix.diag([Quaternion(2.0), ONE]))


def test_random_symplectic_really_is():
    for n in (2, 4):
        S = random_symplectic(n, RNG)
        assert is_symplectic(S)
        assert (S.dagger() @ S).isclose(QuatMatrix.identity(n), atol=1e-9)


# -- probabilities -----------------------------------------------------------------


Z0 = QuatMatrix.from_real(np.diag([1.0, 0.0]))


def uniform_rho():
    return quaternionic_theory(2).uniform_superposition()


def test_uniform_superposition_probability():
    assert real_trace_prob(Z0, uniform_rho()) == pytest.approx(0.5, abs=1e-12)


def test_identity_effect_gives_one():
    rho = QuatKet.from_quaternions([Quaternion(0.6), Quaternion(0.0, 0.8)]).density()
    assert real_trace_prob(QuatMatrix.identity(2), rho) == pytest.approx(1.0, abs=1e-12)


def test_jk_phased_superposition_probability():
    # direct expansion: rho_00 = j * conj(j) / 2 = 1/2
    inv = 1.0 / np.sqrt(2.0)
    ket = QuatKet.from_quaternions(
        [Quaternion(0, 0, inv, 0), Quaternion(0, 0, 0, inv)]
    )
    assert real_trace_prob(Z0, ket.density()) == pytest.approx(0.5, abs=1e-12)


def test_residue_guard_raises_on_cross_plane_pair():
    # hand expansion: tr(e_i rho_j) = 1/2 - k/2, so the residue is exactly 1/2
    inv = 1.0 / np.sqrt(2.0)
    e_i = QuatKet.from_quaternions([Quaternion(inv), Quaternion(0, inv)]).density()
    rho_j = QuatKet.from_quaternions([Quaternion(inv), Quaternion(0, 0, inv)]).density()
    with pytest.raises(
        NumericConsistencyError,
        match=r"^trace has imaginary residue 5\.000e-01 above tolerance 1\.0e-09$",
    ):
        real_trace_prob(e_i, rho_j)
    assert real_trace_prob(e_i, rho_j, atol=0.5) == pytest.approx(0.5, abs=1e-15)


# -- conjugation ----------------------------------------------------------------------


def test_conjugate_by_identity_fixes_state():
    rho = uniform_rho()
    assert conjugate_state(QuatMatrix.identity(2), rho).isclose(rho)


def test_conjugate_by_sign_flip_flips_off_diagonals():
    # hand expansion: diag(-1, 1) rho diag(-1, 1) negates the off-diagonal
    S = QuatMatrix.diag([Quaternion(-1.0), ONE])
    out = conjugate_state(S, uniform_rho())
    expected = QuatMatrix.from_real([[0.5, -0.5], [-0.5, 0.5]])
    assert out.isclose(expected, atol=1e-12)


def test_global_imaginary_phase_changes_j_valued_state():
    inv = 1.0 / np.sqrt(2.0)
    rho = QuatKet.from_quaternions([Quaternion(inv), Quaternion(0, 0, inv)]).density()
    G = QuatMatrix.diag([I, I])
    out = conjugate_state(G, rho)
    assert not out.isclose(rho, atol=1e-6)
    # Hermiticity and trace survive
    assert out.isclose(out.dagger())
    assert np.trace(out.comps[0]) == pytest.approx(1.0, abs=1e-12)


def test_global_real_signs_never_change_states():
    for _ in range(10):
        comps = RNG.standard_normal((4, 3))
        comps /= np.sqrt(np.sum(comps**2))
        rho = QuatKet(comps).density()
        for sign in (1.0, -1.0):
            G = QuatMatrix.diag([Quaternion(sign)] * 3)
            assert conjugate_state(G, rho).isclose(rho, atol=1e-12)


# -- trace properties ------------------------------------------------------------------


def test_trace_cyclicity_on_residue_free_family():
    # real-symmetric random states keep both traces exactly real, so the
    # residue-checked pairing applies on both sides
    for _ in range(10):
        S = random_symplectic(3, RNG)
        A = RNG.standard_normal((3, 3))
        rho_real = A @ A.T
        rho_real /= np.trace(rho_real)
        rho = QuatMatrix.from_real(rho_real)
        E = QuatMatrix.from_real(np.diag([1.0, 0.0, 0.0]))
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
    n = 4
    projectors = [QuatMatrix.from_real(np.diag(np.eye(n)[j])) for j in range(n)]
    total = QuatMatrix.zeros(n, n)
    for idx, P in enumerate(projectors):
        assert np.all(P.comps[1:] == 0.0)
        assert (P @ P).isclose(P)
        for jdx, Q in enumerate(projectors):
            if idx != jdx:
                assert (P @ Q).isclose(QuatMatrix.zeros(n, n))
        total = total + P
    assert total.isclose(QuatMatrix.identity(n))


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
    phi = QuatKet.from_quaternions([Quaternion(inv), Quaternion(0, 0, inv)]).comps
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
