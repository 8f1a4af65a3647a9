"""Unit tests for the dense state-vector kernel."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcrsp import statevec
from mcrsp.statevec import (
    COMPUTATIONAL,
    KET0,
    KET1,
    MINUS,
    PLUS,
    PLUS_MINUS,
    StateVector,
    apply,
    basis_state,
    fidelity,
    is_unitary,
    project,
    reorder,
    tensor,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def test_constructor_rejects_wrong_size():
    with pytest.raises(ValueError, match="amplitudes"):
        StateVector(("a", "b"), [1.0, 0.0])


def test_constructor_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        StateVector(("a", "a"), [1.0, 0.0, 0.0, 0.0])


def test_constructor_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        StateVector(("a",), [np.inf, 0.0])


def test_amplitudes_are_read_only():
    state = basis_state(("a",), (0,))
    with pytest.raises(ValueError):
        state.amps[0] = 0.0


def test_constructor_copies_input_buffer():
    buf = np.array([1.0, 0.0], dtype=complex)
    state = StateVector(("a",), buf)
    buf[0] = 5.0
    assert state.amplitude((0,)) == 1.0


def test_basis_state_places_single_amplitude():
    state = basis_state(("a", "b", "c"), (1, 0, 1))
    assert state.amplitude((1, 0, 1)) == 1.0
    assert state.squared_norm == pytest.approx(1.0)
    assert state.amplitude((0, 0, 0)) == 0.0


def test_amplitude_rejects_bad_bits():
    state = basis_state(("a", "b"), (0, 0))
    with pytest.raises(ValueError):
        state.amplitude((0, 2))
    with pytest.raises(ValueError):
        state.amplitude((0,))


def test_normalized_rescales():
    state = StateVector(("a",), [3.0, 4.0])
    out = state.normalized()
    assert out.squared_norm == pytest.approx(1.0)
    assert out.amplitude((0,)) == pytest.approx(0.6)


def test_normalized_rejects_zero_state():
    with pytest.raises(ValueError, match="zero"):
        StateVector(("a",), [0.0, 0.0]).normalized()


def test_tensor_first_register_most_significant():
    state = tensor(basis_state(("a",), (1,)), basis_state(("b",), (0,)))
    assert state.labels == ("a", "b")
    assert state.amplitude((1, 0)) == 1.0


def test_tensor_rejects_shared_labels():
    with pytest.raises(ValueError, match="share"):
        tensor(basis_state(("a",), (0,)), basis_state(("a",), (0,)))


def test_reorder_permutes_amplitudes(random_state):
    state = random_state(("a", "b", "c"))
    swapped = reorder(state, ("c", "a", "b"))
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        assert swapped.amplitude((bits[2], bits[0], bits[1])) == pytest.approx(
            state.amplitude(bits))


def test_reorder_rejects_non_permutation():
    state = basis_state(("a", "b"), (0, 0))
    with pytest.raises(ValueError, match="permutation"):
        reorder(state, ("a", "c"))


def test_apply_x_flips_target_only():
    state = apply(basis_state(("a", "b"), (0, 1)), X, ("a",))
    assert state.amplitude((1, 1)) == 1.0


def test_apply_respects_target_order():
    # CNOT with the control on its most significant bit pins the convention:
    # the first target owns the operator's most significant bit.
    state = apply(basis_state(("a", "b"), (0, 1)), CNOT, ("b", "a"))
    assert state.amplitude((1, 1)) == 1.0
    state = apply(basis_state(("a", "b"), (1, 0)), CNOT, ("b", "a"))
    assert state.amplitude((1, 0)) == 1.0


def test_apply_cz_flips_sign_of_11():
    plus2 = StateVector(("a", "b"), np.full(4, 0.5, dtype=complex))
    state = apply(plus2, CZ, ("a", "b"))
    assert state.amplitude((1, 1)) == pytest.approx(-0.5)
    assert state.amplitude((0, 1)) == pytest.approx(0.5)


def test_apply_unitary_preserves_norm(random_state, random_unitary):
    state = random_state(("a", "b", "c", "d"))
    out = apply(state, random_unitary(4), ("d", "b"))
    assert out.squared_norm == pytest.approx(state.squared_norm)


def test_apply_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        apply(basis_state(("a", "b"), (0, 0)), np.eye(4), ("a",))


def test_apply_rejects_unknown_label():
    with pytest.raises(ValueError, match="not in register"):
        apply(basis_state(("a",), (0,)), X, ("b",))


def test_project_plus_state_is_deterministic_in_pm_basis():
    state = StateVector(("a",), PLUS)
    _, prob0 = project(state, ("a",), PLUS_MINUS, 0)
    _, prob1 = project(state, ("a",), PLUS_MINUS, 1)
    assert prob0 == pytest.approx(1.0)
    assert prob1 == pytest.approx(0.0, abs=1e-15)


def test_project_bell_pair():
    bell = StateVector(("a", "b"), np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    residual, prob = project(bell, ("a",), COMPUTATIONAL, 1)
    assert prob == pytest.approx(0.5)
    assert residual.labels == ("b",)
    # residual stays unnormalized: amplitude carries the branch weight
    assert residual.amplitude((1,)) == pytest.approx(1 / np.sqrt(2))


def test_project_outcomes_sum_to_norm(random_state):
    state = random_state(("a", "b", "c"))
    total = sum(project(state, ("b",), PLUS_MINUS, out)[1] for out in (0, 1))
    assert total == pytest.approx(state.squared_norm)


def test_chained_projections_accumulate_probability(random_state):
    state = random_state(("a", "b", "c"))
    residual, _ = project(state, ("a",), PLUS_MINUS, 0)
    residual, prob = project(residual, ("b",), COMPUTATIONAL, 1)
    assert prob == pytest.approx(residual.squared_norm)
    assert prob <= 1.0


def test_project_rejects_nonorthonormal_basis():
    state = basis_state(("a",), (0,))
    with pytest.raises(ValueError, match="orthonormal"):
        project(state, ("a",), (PLUS, PLUS), 0)
    # a two-qubit row basis like the sender's, with one row skewed
    rows = np.eye(4, dtype=complex)
    rows[3] = np.array([0.0, 0.0, 0.6, 0.8])
    with pytest.raises(ValueError, match="orthonormal"):
        project(basis_state(("a", "b"), (0, 0)), ("a", "b"), rows, 0)


def test_project_checks_only_caller_bases(monkeypatch):
    """The module's constant bases were checked at import; a caller's basis,
    even one equal to a constant, is checked on every call."""
    checked = []
    monkeypatch.setattr(statevec, "_check_orthonormal",
                        lambda vecs, tol: checked.append(vecs.shape))
    state = basis_state(("a",), (0,))
    project(state, ("a",), PLUS_MINUS, 0)
    project(state, ("a",), COMPUTATIONAL, 1)
    assert checked == []
    project(state, ("a",), (PLUS, MINUS), 0)
    project(state, ("a",), PLUS_MINUS, 0, tol=1e-14)
    assert checked == [(2, 2), (2, 2)]


@pytest.mark.parametrize("vec", [KET0, KET1, PLUS, MINUS],
                         ids=["KET0", "KET1", "PLUS", "MINUS"])
def test_basis_vectors_are_read_only(vec):
    with pytest.raises(ValueError, match="read-only"):
        vec[0] = 0.0


def test_project_rejects_bad_outcome():
    state = basis_state(("a",), (0,))
    with pytest.raises(ValueError, match="outcome"):
        project(state, ("a",), COMPUTATIONAL, 2)


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_fidelity_ignores_global_phase(theta):
    amps = np.array([0.5, 0.5j, -0.5, 0.5])
    a = StateVector(("x", "y"), amps)
    b = StateVector(("x", "y"), np.exp(1j * theta) * amps)
    assert fidelity(a, b) == pytest.approx(1.0)


def test_fidelity_orthogonal_states():
    a = basis_state(("x",), (0,))
    b = basis_state(("x",), (1,))
    assert fidelity(a, b) == 0.0


def test_fidelity_reconciles_label_order(random_state):
    state = random_state(("x", "y", "z"))
    assert fidelity(state, reorder(state, ("z", "y", "x"))) == pytest.approx(1.0)


def test_fidelity_normalizes_inputs():
    a = StateVector(("x",), [2.0, 0.0])
    b = StateVector(("x",), [0.5, 0.0])
    assert fidelity(a, b) == pytest.approx(1.0)


def test_fidelity_rejects_zero_state():
    a = basis_state(("x",), (0,))
    with pytest.raises(ValueError, match="zero"):
        fidelity(a, StateVector(("x",), [0.0, 0.0]))


def test_fidelity_rejects_label_mismatch():
    with pytest.raises(ValueError, match="label"):
        fidelity(basis_state(("x",), (0,)), basis_state(("y",), (0,)))


def test_is_unitary_accepts_rotations(random_unitary):
    assert is_unitary(np.eye(8))
    assert is_unitary(X)
    assert is_unitary(random_unitary(8))


def test_is_unitary_rejects_non_square_and_scaled():
    assert not is_unitary(np.ones((2, 3)))
    assert not is_unitary(1.001 * np.eye(2))
