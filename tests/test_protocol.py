"""Unit tests for the protocol objects: targets, channels, bases, unitaries."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrsp import protocol
from mcrsp.statevec import is_unitary
from mcrsp.protocol import (
    CLUSTER_TARGET,
    LAYER_OPS,
    SQRT_HALF,
    ChannelPair,
    OutcomeKey,
    PauliLayer,
    TargetState,
    alice_basis,
    alice_correction,
    all_outcome_keys,
    build_channels,
    build_target,
    class_residuals,
    default_derived_table,
    published_correction_table,
    triplet_unitary,
    triplet_weights,
)
from reference_oracle import layer_matrix
from reference_walk import reference_class_residuals


class TestTargetState:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="normalization"):
            TargetState(0.9, 0.1, 0.1, 0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            TargetState(math.nan, 0.0, 0.0, 1.0)

    def test_normalized_classmethod_rescales(self):
        t = TargetState.normalized(2.0, 3.0, 4.0, 5.0)
        assert t.alpha ** 2 + t.beta ** 2 + t.gamma ** 2 + t.delta ** 2 \
            == pytest.approx(1.0)
        assert t.beta / t.alpha == pytest.approx(1.5)

    def test_normalized_rejects_all_zero(self):
        with pytest.raises(ValueError, match="zero"):
            TargetState.normalized(0.0, 0.0, 0.0, 0.0)

    def test_coefficients_carry_phases(self):
        t = TargetState(0.5, 0.5, 0.5, 0.5, 0.0, math.pi / 2, math.pi)
        c = t.coefficients()
        assert c[0] == pytest.approx(0.5)
        assert c[1] == pytest.approx(0.5)
        assert c[2] == pytest.approx(0.5j)
        assert c[3] == pytest.approx(-0.5)

    def test_cluster_target_coefficients(self):
        c = CLUSTER_TARGET.coefficients()
        assert np.allclose(c, [0.5, 0.5, 0.5, -0.5])


class TestChannelPair:
    def test_rejects_broken_normalization(self):
        with pytest.raises(ValueError, match="normalization"):
            ChannelPair(0.9, 0.9, SQRT_HALF, SQRT_HALF)

    def test_rejects_inverted_bound(self):
        with pytest.raises(ValueError, match="bound"):
            ChannelPair(math.sqrt(0.3), math.sqrt(0.7), SQRT_HALF, SQRT_HALF)
        with pytest.raises(ValueError, match="bound"):
            ChannelPair(SQRT_HALF, SQRT_HALF, math.sqrt(0.2), math.sqrt(0.8))

    def test_rejects_bad_controller_counts(self):
        with pytest.raises(ValueError, match="controller count"):
            ChannelPair(1.0, 0.0, 1.0, 0.0, n=-1)
        with pytest.raises(ValueError, match="controller count"):
            ChannelPair(1.0, 0.0, 1.0, 0.0, m=1.5)

    def test_zero_a1_allowed(self):
        c = ChannelPair(1.0, 0.0, 1.0, 0.0, 0, 0)
        assert c.a1 == 0.0


class TestOutcomeKey:
    def test_bits_roundtrip(self):
        key = OutcomeKey(1, 0, 1, 1, 0, 1)
        assert key.bits() == "101101"
        assert OutcomeKey.from_bits("101101") == key

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            OutcomeKey(0, 0, 2, 0, 0, 0)
        with pytest.raises(ValueError):
            OutcomeKey.from_bits("10110")

    def test_all_keys_complete_and_ordered(self):
        keys = all_outcome_keys()
        assert len(keys) == 64
        assert len(set(keys)) == 64
        assert keys[0].bits() == "000000"
        assert keys[-1].bits() == "111111"
        assert list(keys) == sorted(keys)


class TestPauliLayer:
    def test_label_roundtrip(self):
        layer = PauliLayer(("Z", "I", "XZ", "X"))
        assert layer.label() == "Z,I,XZ,X"
        assert PauliLayer.from_label("Z,I,XZ,X") == layer

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="layer"):
            PauliLayer(("I", "I", "Y", "I"))

    def test_matrix_is_unitary_and_ordered(self):
        mat = layer_matrix(PauliLayer(("X", "I", "I", "I")))
        assert mat.shape == (16, 16)
        assert is_unitary(mat)
        # X on B1 maps |0000> to |1000>: column 0 feeds row 8
        assert mat[8, 0] == 1.0

    def test_moves_are_the_dense_layer_matrix(self):
        """For all 256 layers, sign[s] sits at row dest[s] of column s of the
        dense matrix, and every other entry is 0."""
        for ops in itertools.product(LAYER_OPS, repeat=4):
            layer = PauliLayer(ops)
            dest, sign = layer.moves()
            moved = np.zeros((16, 16))
            moved[dest, np.arange(16)] = sign
            assert np.array_equal(moved, layer_matrix(layer)), layer.label()


class TestBuildTarget:
    def test_cluster_target_amplitudes(self):
        state = build_target(CLUSTER_TARGET)
        assert state.labels == ("B1", "B2", "B3", "B4")
        assert state.amplitude((0, 0, 0, 0)) == pytest.approx(0.5)
        assert state.amplitude((0, 0, 1, 1)) == pytest.approx(0.5)
        assert state.amplitude((1, 1, 0, 0)) == pytest.approx(0.5)
        assert state.amplitude((1, 1, 1, 1)) == pytest.approx(-0.5)
        assert state.amplitude((0, 1, 0, 1)) == 0.0

    def test_generic_target_norm(self):
        t = TargetState.normalized(1.0, 2.0, 3.0, 4.0, 0.1, 0.2, 0.3)
        assert build_target(t).squared_norm == pytest.approx(1.0)


class TestChannels:
    def test_maximal_pair_support(self):
        c = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 1, 1)
        state = build_channels(c)
        assert state.labels == ("A1", "A2", "B1", "B2", "C1",
                                "A3", "A4", "B3", "B4", "D1")
        assert state.num_qubits == 10
        nonzero = np.flatnonzero(state.amps)
        assert list(nonzero) == [0, 31, 992, 1023]
        assert np.allclose(state.amps[nonzero], 0.5)

    def test_collapsed_channel_support(self):
        c = ChannelPair(1.0, 0.0, SQRT_HALF, SQRT_HALF, 1, 1)
        state = build_channels(c)
        nonzero = set(np.flatnonzero(state.amps))
        assert nonzero == {0, 31}

    def test_no_controller_register(self):
        c = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 0, 0)
        state = build_channels(c)
        assert state.labels == ("A1", "A2", "B1", "B2", "A3", "A4", "B3", "B4")

    def test_size_guard_refuses_before_allocating(self, monkeypatch):
        class Allocated(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Allocated

        # n+m = 17 is refused before the dense product; 16 still reaches it.
        monkeypatch.setattr(protocol, "tensor", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        with pytest.raises(ValueError, match="limit of 16"):
            build_channels(ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF,
                                       SQRT_HALF, 9, 8))
        with pytest.raises(Allocated):
            build_channels(ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF,
                                       SQRT_HALF, 8, 8))


class TestAliceBasis:
    def test_substitution_target(self):
        rows = alice_basis(TargetState(1.0, 0.0, 0.0, 0.0))
        assert np.allclose(rows, [[1, 0, 0, 0],
                                  [0, -1, 0, 0],
                                  [0, 0, -1, 0],
                                  [0, 0, 0, -1]])

    def test_cluster_first_row(self):
        rows = alice_basis(CLUSTER_TARGET)
        assert np.allclose(rows[0], [0.5, 0.5, 0.5, -0.5])

    def test_unitary_for_random_targets(self, rng):
        for _ in range(20):
            amps = rng.uniform(0.1, 1.0, size=4)
            amps /= np.linalg.norm(amps)
            t = TargetState(*amps, *rng.uniform(0.0, 2 * math.pi, size=3))
            assert is_unitary(alice_basis(t), 1e-12)


class TestAliceCorrection:
    def test_outcome_00_is_identity(self):
        t = TargetState.normalized(1.0, 2.0, 3.0, 4.0, 0.4, 1.1, 2.2)
        assert np.allclose(alice_correction(0, 0, t), np.eye(4))

    def test_outcome_01_zero_phases(self):
        mat = alice_correction(0, 1, TargetState(0.5, 0.5, 0.5, 0.5))
        assert np.allclose(mat, np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_diagonal_and_unitary(self, rng):
        for _ in range(10):
            t = TargetState.normalized(*rng.uniform(0.1, 1.0, size=4),
                                       *rng.uniform(0.0, 2 * math.pi, size=3))
            for i in (0, 1):
                for j in (0, 1):
                    mat = alice_correction(i, j, t)
                    assert np.allclose(mat, np.diag(np.diag(mat)))
                    assert is_unitary(mat, 1e-12)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            alice_correction(2, 0, CLUSTER_TARGET)


class TestTripletUnitary:
    def test_maximal_channels_block_structure(self):
        c = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF)
        for i in (0, 1):
            for j in (0, 1):
                mat = triplet_unitary(i, j, c)
                assert np.allclose(mat, np.diag([1, 1, 1, 1, -1, -1, -1, -1]))

    def test_asymmetric_channel_blocks(self):
        c = ChannelPair(math.sqrt(0.8), math.sqrt(0.2), SQRT_HALF, SQRT_HALF)
        mat = triplet_unitary(0, 0, c)
        assert np.allclose(np.diag(mat[:4, :4]), [0.5, 0.5, 1.0, 1.0])
        assert np.allclose(np.diag(mat[:4, 4:]),
                           [math.sqrt(0.75), math.sqrt(0.75), 0.0, 0.0])
        assert np.allclose(mat[4:, 4:], -mat[:4, :4])

    def test_unitary_for_random_channels(self, rng):
        for _ in range(20):
            ua, ub = rng.uniform(0.0, 0.5, size=2)
            c = ChannelPair(math.sqrt(1 - ua), math.sqrt(ua),
                            math.sqrt(1 - ub), math.sqrt(ub))
            for i in (0, 1):
                for j in (0, 1):
                    assert is_unitary(triplet_unitary(i, j, c), 1e-12)

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5),
           st.sampled_from((1.0, -1.0)), st.sampled_from((1.0, -1.0)))
    def test_weights_are_the_ancilla_zero_columns(self, ua, ub, sa, sb):
        """Row a of triplet_weights holds, for each receiver amplitude, the
        one entry that the unitary's column for (ancilla 0, B1, B3) has on
        ancilla a."""
        c = ChannelPair(sa * math.sqrt(1 - ua), math.sqrt(ua),
                        math.sqrt(1 - ub), sb * math.sqrt(ub))
        for i in (0, 1):
            for j in (0, 1):
                mat = triplet_unitary(i, j, c)
                weights = triplet_weights(i, j, c)
                assert weights.shape == (2, 16)
                for amp in range(16):
                    col = 2 * (amp >> 3) + ((amp >> 1) & 1)
                    assert np.count_nonzero(mat[:, col]) <= 2
                    assert weights[0, amp] == mat[col, col]
                    assert weights[1, amp] == mat[4 + col, col]


class TestPublishedTable:
    def test_covers_all_keys(self):
        table = published_correction_table()
        assert set(table.entries) == set(all_outcome_keys())

    def test_spot_rows(self):
        table = published_correction_table()
        assert table[OutcomeKey.from_bits("000000")].label() == "I,I,I,I"
        assert table[OutcomeKey.from_bits("000010")].label() == "Z,I,I,I"
        assert table[OutcomeKey.from_bits("100000")].label() == "X,X,I,I"
        assert table[OutcomeKey.from_bits("111100")].label() == "XZ,X,XZ,X"
        assert table[OutcomeKey.from_bits("111111")].label() == "X,X,X,X"

    def test_shipped_tables_are_read_only(self):
        key = OutcomeKey.from_bits("000000")
        for accessor in (published_correction_table, default_derived_table):
            with pytest.raises(TypeError):
                accessor().entries[key] = PauliLayer(("X", "X", "X", "X"))
            assert accessor()[key].label() == "I,I,I,I"


_AMPLITUDE = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))
_PHASE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _walk_inputs(draw):
    """A target with signed or zero amplitudes, and channels with signed
    coefficients, a1=0 or b1=0 among them, and n, m in 0..8."""
    amps = draw(st.lists(_AMPLITUDE, min_size=4, max_size=4)
                .filter(lambda xs: any(xs)))
    target = TargetState.normalized(*amps, *draw(st.tuples(_PHASE, _PHASE, _PHASE)))
    coeffs = []
    for _ in range(2):
        small = math.sqrt(draw(st.one_of(st.just(0.0), st.floats(0.0, 0.45))))
        coeffs += [draw(st.sampled_from((1, -1))) * math.sqrt(1.0 - small * small),
                   draw(st.sampled_from((1, -1))) * small]
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return target, ChannelPair(*coeffs, n, m)


class TestClassResiduals:
    @settings(max_examples=60, deadline=None)
    @given(_walk_inputs())
    def test_equals_the_per_class_projection_tree(self, inputs):
        """Every class, residual row and step-1 probability equals the one
        single-qubit project call per measured qubit gives, bit for bit, with
        up to 14 further-controller rescales."""
        target, channels = inputs
        classes, residuals, step1 = class_residuals(target, channels)
        want = reference_class_residuals(target, channels)
        assert classes == tuple(want)
        assert residuals.shape == (len(want), 16)
        for cls, row, (state, prob) in zip(classes, residuals, want.values()):
            assert np.array_equal(row, state.amps)
            assert step1[2 * cls[0] + cls[1]] == prob
