"""The matrix core's operand rule and the kernels of a search round.

Core claims:
    - MatrixTheory._form gives every operand the form the rule spelled out
      in tests/reference.py gives it, over every form and role, wrong
      shapes, a list, a type of the other algebra, a trivial subclass of
      np.ndarray or of DiagonalMap, and a complex diagonal; a refused
      operand raises a ValueError naming the theory
    - an ndarray subclass and a DiagonalMap subclass are refused by their
      type's name; a quaternionic theory refuses a diagonal of complex
      dtype by name, where apply once dropped its imaginary parts with
      only a ComplexWarning
    - the ket kernels give the bytes of the forms they replace: a quantum
      ket evolves as T @ psi, a quaternionic one as the Hamilton product's
      batched matmul and contraction, and a real diagonal effect reads a
      ket as vdot(psi, d psi) (quantum) or d . sum_c psi_c^2 (quaternionic)
    - a vector theory reads every operand of every method through one
      check, VectorTheory._own: a list, an ndarray, a subclass, a map as a
      state, a state as a map or an effect as a state is refused naming the
      theory, the role, its exact types and the operand's type, where it
      once raised an AttributeError or a numpy broadcast error
"""

import numpy as np
import pytest
from reference import reference_form

from gptifer.core import DiagonalMap, GptState
from gptifer.quaternion import QuatMatrix, _hamilton_contract
from gptifer.theories import (
    classical_theory,
    gbit_theory,
    quantum_theory,
    quaternionic_theory,
    qubit_theory,
    spekkens_ontic_theory,
)

_STATE, _MAP = "a state", "a map or effect"


class _Array(np.ndarray):
    """A trivial ndarray subclass."""


class _Diagonal(DiagonalMap):
    """A trivial DiagonalMap subclass."""


def _label(m):
    return f"{m.name}-{m.dim}"


def _operands(m):
    # every form, then wrong shapes, wrong types and subclasses, each with a label
    N, k = m.dim, m.PHASES.shape[1]
    quantum = k == 1
    ones = m._lift(np.ones(N))
    yield "diagonal", m.diagonal_map(np.ones(N))
    yield "ket", m.branch_ket(0)
    yield "density", m.branch_state(0)
    yield "beamsplitter", m.beamsplitter
    yield "diagonal-short", DiagonalMap(m._lift(np.ones(N - 1)))
    yield "diagonal-long", DiagonalMap(m._lift(np.ones(N + 1)))
    yield "diagonal-column", DiagonalMap(ones[:, :, None])
    yield "diagonal-subclass", _Diagonal(ones)
    yield "diagonal-complex", DiagonalMap(ones.astype(complex))
    yield "diagonal-int", DiagonalMap(np.ones((k, N), dtype=int))
    yield "list", [[1.0, 0.0], [0.0, 1.0]]
    yield "none", None
    for shape in [(1, N), (N, 2), (N + 1, N + 1)] + ([(N,), (1, N, N)] if quantum else []):
        yield f"shape-{shape}", np.zeros(shape, dtype=complex) if quantum else m._matrix(np.zeros((k, *shape)))
    if quantum:
        yield "ndarray-subclass", m.branch_state(0).view(_Array)
        yield "ket-subclass", m.branch_ket(0).view(_Array)
        yield "quatmatrix", QuatMatrix(np.zeros((4, N, N)))
        yield "real-density", np.eye(N)
    else:
        yield "plain-components", m._lift(np.eye(N))
        yield "components-subclass", m._lift(np.eye(N)).view(_Array)
        yield "complex-array", np.eye(N, dtype=complex)
        yield "wide-ket", m._matrix(np.zeros((k, 1, N)))


_THEORIES = [quantum_theory(1), quantum_theory(2), quaternionic_theory(2), quaternionic_theory(4)]


@pytest.mark.parametrize("m", _THEORIES, ids=_label)
@pytest.mark.parametrize("role", [_STATE, _MAP])
def test_the_operand_rule_gives_the_reference_form(m, role):
    taken = set()
    for label, x in _operands(m):
        expected = reference_form(m, x, role)
        if expected is None:
            with pytest.raises(ValueError, match=f"^{m.name} theory expects "):
                m._form(x, role)
        else:
            assert m._form(x, role) == expected, label
            taken.add(expected)
    # every form a role takes is met: a ket is no map or effect
    assert taken == ({"diagonal", "ket", "density"} if role == _STATE else {"diagonal", "density"})


def test_a_subclass_is_refused_by_its_type_name():
    q, h = quantum_theory(1), quaternionic_theory(2)
    state = q.branch_state(0).view(_Array)
    for call, role in ((lambda: q.apply(q.beamsplitter, state), _STATE), (lambda: q.apply(state, q.branch_ket(0)), _MAP)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"quantum theory expects {role} of type ndarray or DiagonalMap, got _Array"
    for m in (q, h):
        with pytest.raises(ValueError) as err:
            m.is_identity_map(_Diagonal(m._lift(np.ones(2))))
        assert str(err.value) == f"{m.name} theory expects a map or effect of type {m._matrix_type.__name__} or DiagonalMap, got _Diagonal"


def test_a_quaternionic_theory_refuses_a_complex_diagonal_by_name():
    # apply once dropped the imaginary parts with a ComplexWarning and returned the zero ket
    m = quaternionic_theory(2)
    d = DiagonalMap(np.array([[1j, 1], [0, 0], [0, 0], [0, 0]]))
    message = "quaternionic theory expects a diagonal of real components, got one of dtype complex128"
    for call in (
        lambda: m.apply(d, m.branch_ket(0)),
        lambda: m.apply(m.identity_map(), d),
        lambda: m.probability(d, m.branch_ket(0)),
        lambda: m.compose(d, m.identity_map()),
        lambda: m.maps_commute(d, m.identity_map()),
        lambda: m.is_identity_map(d),
        lambda: m.dense(d),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    # a quantum theory reads the same entries as its own
    assert quantum_theory(1).is_identity_map(DiagonalMap(np.array([[1j, 1j]])))


# -- the vector theories' operand check ------------------------------------------------


class _State(GptState):
    """A trivial GptState subclass."""


_VECTOR_TYPES = {"state": "a state of type GptState", "effect": "an effect of type Effect", "map": "a map of type LinearMap or Relabeling"}


def _vector_calls(m):
    # (method, the roles of its operands, one good operand per role)
    state, effect, trans = m.spanning_states[0], m.z_effects[0], m.identity_map()
    good = {"state": state, "effect": effect, "map": trans}
    for name, roles in (
        ("branch_probabilities", ("state",)),
        ("contains", ("state",)),
        ("states_close", ("state", "state")),
        ("probability", ("effect", "state")),
        ("apply", ("map", "state")),
        ("compose", ("map", "map")),
        ("is_identity_map", ("map",)),
        ("maps_commute", ("map", "map")),
    ):
        yield getattr(m, name), roles, [good[r] for r in roles]


@pytest.mark.parametrize("m", [classical_theory(2), gbit_theory(2), spekkens_ontic_theory(), qubit_theory()], ids=lambda m: m.name)
def test_a_vector_theory_refuses_an_operand_of_another_type_by_name(m):
    D = m.state_dim
    wrong = {
        "state": [[0.5] * D, np.full(D, 0.5), _State(np.full(D, 0.5)), m.identity_map(), m.z_effects[0]],
        "effect": [[1.0] * D, np.ones(D), m.spanning_states[0]],
        "map": [np.eye(D).tolist(), np.eye(D), m.spanning_states[0], m.z_effects[0]],
    }
    for method, roles, operands in _vector_calls(m):
        method(*operands)  # the good operands pass
        for slot, role in enumerate(roles):
            for x in wrong[role]:
                args = list(operands)
                args[slot] = x
                with pytest.raises(ValueError) as err:
                    method(*args)
                assert str(err.value) == f"{m.name} theory expects {_VECTOR_TYPES[role]}, got {type(x).__name__}", (method.__name__, slot)


# -- the ket kernels of a search round ------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_a_quantum_ket_evolves_to_the_bytes_of_the_matmul(n):
    m, rng = quantum_theory(n), np.random.default_rng(n)
    N = m.dim
    for _ in range(20):
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        psi = rng.standard_normal((N, 1)) + 1j * rng.standard_normal((N, 1))
        image = m.apply(T, psi)
        assert image.tobytes() == (T @ psi).tobytes() and not image.flags.writeable
        d = m.diagonal_map(rng.standard_normal(N))
        expected = float(np.vdot(image, d.comps[0][:, None] * image).real)
        assert m.probability(d, image).hex() == expected.hex()


@pytest.mark.parametrize("N", [2, 4, 16, 64])
def test_a_quaternionic_ket_evolves_to_the_bytes_of_the_hamilton_product(N):
    m, rng = quaternionic_theory(N), np.random.default_rng(N)
    for _ in range(20):
        S, psi = QuatMatrix(rng.standard_normal((4, N, N))), QuatMatrix(rng.standard_normal((4, N, 1)))
        image = m.apply(S, psi)
        expected = _hamilton_contract(np.matmul(S.comps[:, None], psi.comps[None, :]))
        assert image.comps.tobytes() == expected.tobytes() and not image.comps.flags.writeable
        d = m.diagonal_map(rng.standard_normal(N))
        read = float(d.comps[0] @ (image.comps[:, :, 0] ** 2).sum(axis=0))
        assert m.probability(d, image).hex() == read.hex()
