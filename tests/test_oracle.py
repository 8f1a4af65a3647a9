"""Tests for the brute-force correction oracle and the table audit."""
import io
import sys

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrsp import oracle, protocol, statevec
from mcrsp.protocol import (
    LAYER_OPS,
    SQRT_HALF,
    ChannelPair,
    OutcomeKey,
    PauliLayer,
    TargetState,
    all_outcome_keys,
)
from mcrsp.oracle import (
    GENERIC_CHANNELS,
    GENERIC_TARGET,
    CorrectionTable,
    candidate_layers,
    compare_with_published,
    default_derived_table,
    derive_correction_table,
    layers_achieve_target,
    published_correction_table,
    validate_table,
)
from mcrsp.engine import enumerate_branches
from reference_oracle import PAULI_OPS, dense_mask, dense_works, layer_matrix

# The five keys where the shipped reference table disagrees with the oracle.
CORRUPT_KEYS = {
    OutcomeKey.from_bits("000111"),
    OutcomeKey.from_bits("001010"),
    OutcomeKey.from_bits("001011"),
    OutcomeKey.from_bits("001110"),
    OutcomeKey.from_bits("011000"),
}

_SECTOR_RULE = {
    (0, 0): ("I", "I"),
    (0, 1): ("Z", "I"),
    (1, 0): ("X", "X"),
    (1, 1): ("XZ", "X"),
}


def rule_layer(key):
    """Closed-form correction: each half of the key fixes one qubit pair."""
    b1, b2 = _SECTOR_RULE[(key.i, key.p ^ key.g)]
    b3, b4 = _SECTOR_RULE[(key.j, key.q ^ key.h)]
    return PauliLayer((b1, b2, b3, b4))


@pytest.fixture(scope="module")
def derived():
    return derive_correction_table()


def test_candidate_layers_enumerate_all_combinations():
    layers = candidate_layers()
    assert len(layers) == 256
    assert len({layer.label() for layer in layers}) == 256
    assert layers[0].label() == "I,I,I,I"
    assert layers[1].label() == "X,I,I,I"
    assert layers[-1].label() == "XZ,XZ,XZ,XZ"


def test_identity_key_needs_no_correction(derived):
    key = OutcomeKey.from_bits("000000")
    assert derived[key].label() == "I,I,I,I"


def test_lone_alice_bit_forces_phase_flip(derived):
    key = OutcomeKey.from_bits("000010")
    assert derived[key].label() == "Z,I,I,I"


def test_derivation_matches_closed_form_rule(derived):
    for key, layer in derived.entries.items():
        assert layer == rule_layer(key), key.bits()


def test_derivation_is_deterministic(derived):
    assert derive_correction_table().to_text() == derived.to_text()


def test_shipped_table_matches_fresh_derivation(derived):
    assert default_derived_table().to_text() == derived.to_text()
    assert default_derived_table().provenance == "derived"


def test_comparison_finds_exactly_five_disagreements(derived):
    diff = compare_with_published(derived)
    assert set(diff.keys()) == CORRUPT_KEYS
    for entry in diff.entries:
        assert not entry.paper_layer_works
        assert entry.derived == derived[entry.key]


def test_published_layers_fail_on_corrupt_keys():
    table = published_correction_table()
    works = layers_achieve_target({key: table[key] for key in CORRUPT_KEYS})
    assert works == dict.fromkeys(CORRUPT_KEYS, False)


def test_agreeing_published_layers_replay(derived):
    table = published_correction_table()
    agreeing = [k for k in table.entries if k not in CORRUPT_KEYS]
    assert len(agreeing) == 59
    works = layers_achieve_target({key: table[key] for key in agreeing[:8]})
    for key in agreeing[:8]:
        assert table[key] == derived[key]
        assert works[key]


def test_derivation_rejects_degenerate_target():
    flat = TargetState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        derive_correction_table(flat, GENERIC_CHANNELS)


def test_derivation_rejects_balanced_channels():
    maximal = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 1, 1)
    with pytest.raises(ValueError, match="strict"):
        derive_correction_table(GENERIC_TARGET, maximal)


@pytest.mark.parametrize("channels", [
    ChannelPair(1.0, 0.0, math.sqrt(0.8), math.sqrt(0.2)),
    ChannelPair(math.sqrt(0.7), math.sqrt(0.3), 1.0, 0.0),
], ids=["a1-zero", "b1-zero"])
def test_derivation_rejects_an_empty_channel(monkeypatch, channels):
    def no_search(*args, **kwargs):
        raise AssertionError("the derivation searched before refusing")

    monkeypatch.setattr(oracle, "class_residuals", no_search)
    with pytest.raises(ValueError, match="a1 and b1 nonzero"):
        derive_correction_table(GENERIC_TARGET, channels)


def test_validate_table_flags_a_corrupted_entry(derived):
    entries = dict(derived.entries)
    key = OutcomeKey.from_bits("000000")
    entries[key] = PauliLayer(("I", "Z", "I", "I"))
    broken = CorrectionTable(entries, "custom")
    report = validate_table(broken, [GENERIC_TARGET], GENERIC_CHANNELS)
    assert not report.passed()
    assert report.min_fidelity < 1.0 - 1e-3


def test_validate_table_passes_on_the_oracle_output(derived):
    targets = [GENERIC_TARGET, TargetState.normalized(1, 1, 2, 3, 0.2, 0.4, 0.8)]
    report = validate_table(derived, targets, GENERIC_CHANNELS)
    assert report.passed()
    assert report.min_fidelity == pytest.approx(1.0, abs=1e-9)
    assert report.max_tsp_error < 1e-9


def test_table_requires_full_key_coverage(derived):
    entries = dict(derived.entries)
    entries.popitem()
    with pytest.raises(ValueError, match="64"):
        CorrectionTable(entries, "derived")


def test_table_file_roundtrip(tmp_path, derived):
    path = tmp_path / "table.txt"
    derived.to_file(path)
    again = CorrectionTable.from_text(path.read_text(encoding="ascii"),
                                      provenance="derived")
    assert again.entries == derived.entries


def test_published_table_provenance():
    table = published_correction_table()
    assert table.provenance == "paper"
    assert len(table.entries) == 64
    assert table[OutcomeKey.from_bits("000111")].label() == "I,I,Z,I"


def test_candidate_layers_are_hilbert_schmidt_orthogonal():
    """tr(L_k^dagger L_l) = 16 delta_kl: no two different layers are equal up
    to a global phase, so the audit compares layers by their ops alone."""
    mats = np.array([layer_matrix(layer) for layer in candidate_layers()])
    gram = np.einsum("kab,lab->kl", mats.conj(), mats)
    assert np.allclose(gram, 16.0 * np.eye(256), atol=1e-12)


def _equal_mod_phase(m1, m2, tol=1e-9):
    """True iff m1 = e^{i theta} m2 for some real theta."""
    prod = np.asarray(m1).conj().T @ np.asarray(m2)
    lam = np.trace(prod) / prod.shape[0]
    if abs(abs(lam) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(prod - lam * np.eye(prod.shape[0]))) <= tol)


def test_matrices_equal_mod_phase():
    x = PAULI_OPS["X"]
    z = PAULI_OPS["Z"]
    assert _equal_mod_phase(z @ x, x @ z)
    assert _equal_mod_phase(x, np.exp(0.7j) * x)
    assert not _equal_mod_phase(x, z)
    # The four single-qubit correction ops are pairwise distinct up to phase.
    for a in LAYER_OPS:
        for b in LAYER_OPS:
            assert _equal_mod_phase(PAULI_OPS[a], PAULI_OPS[b]) == (a == b)


def test_layers_equal_mod_phase(derived):
    """Layer `==` (by ops) agrees with operator equality up to a global
    phase, so the audit's `derived[key] != published[key]` is exact."""
    a = PauliLayer(("X", "I", "Z", "I"))
    assert a == PauliLayer(("X", "I", "Z", "I"))
    assert _equal_mod_phase(layer_matrix(a),
                            layer_matrix(PauliLayer(("X", "I", "Z", "I"))))
    b = PauliLayer(("X", "I", "I", "Z"))
    assert a != b
    assert not _equal_mod_phase(layer_matrix(a), layer_matrix(b))
    published = published_correction_table()
    for key in CORRUPT_KEYS:
        assert derived[key] != published[key]
        assert not _equal_mod_phase(layer_matrix(derived[key]),
                                    layer_matrix(published[key]))


def test_derivation_never_reads_the_published_table(monkeypatch, derived):
    def forbidden():
        raise AssertionError("the derivation read the published table")

    for name, module in list(sys.modules.items()):
        if ((name == "mcrsp" or name.startswith("mcrsp."))
                and hasattr(module, "published_correction_table")):
            monkeypatch.setattr(module, "published_correction_table", forbidden)
    assert derive_correction_table().to_text() == default_derived_table().to_text()


def _count_sender_stages(monkeypatch):
    calls = []
    sender_stage = protocol.sender_stage

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return sender_stage(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "mcrsp" or name.startswith("mcrsp."))
                and getattr(module, "sender_stage", None) is sender_stage):
            monkeypatch.setattr(module, "sender_stage", counted)
    return calls


def test_derivation_walks_each_sector_once(monkeypatch, derived):
    calls = _count_sender_stages(monkeypatch)
    assert derive_correction_table().to_text() == derived.to_text()
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_audit_replays_from_one_walk(monkeypatch, derived):
    calls = _count_sender_stages(monkeypatch)
    assert set(compare_with_published(derived).keys()) == CORRUPT_KEYS
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_diff_csv_format(derived):
    diff = compare_with_published(derived)
    buf = io.StringIO()
    diff.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "key,paper,derived,paper_layer_works"
    assert len(lines) == 6
    assert lines[1] == '000111,"I,I,Z,I","Z,I,I,I",false'


@pytest.fixture(scope="module")
def generic_dense_mask():
    return dense_mask(GENERIC_TARGET, GENERIC_CHANNELS)


def test_kernel_mask_equals_the_dense_replay(generic_dense_mask):
    kernel = oracle._success_mask(GENERIC_TARGET, GENERIC_CHANNELS)
    assert kernel.shape == (64, 256)
    assert np.array_equal(kernel, generic_dense_mask)
    assert generic_dense_mask.any(axis=1).all()


def _signed(magnitude):
    return st.tuples(magnitude, st.sampled_from((1.0, -1.0))).map(
        lambda pair: pair[0] * pair[1])


_generic_targets = st.builds(
    TargetState.normalized,
    *[_signed(st.floats(0.1, 1.0)) for _ in range(4)],
    *[st.floats(0.0, 2 * math.pi) for _ in range(3)])


def _channel_pair(a0_sign, a1, b0_sign, b1):
    return ChannelPair(a0_sign * math.sqrt(1 - a1 * a1), a1,
                       b0_sign * math.sqrt(1 - b1 * b1), b1)


_signs = st.sampled_from((1.0, -1.0))
_generic_channels = st.builds(_channel_pair, _signs, _signed(st.floats(0.05, 0.69)),
                              _signs, _signed(st.floats(0.05, 0.69)))


@settings(max_examples=8, deadline=None)
@given(target=_generic_targets, channels=_generic_channels,
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_agrees_with_the_dense_replay(target, channels, seed):
    """Every layer the kernel accepts, plus 32 seeded (key, layer) pairs,
    replayed densely; every derived layer works in the dense replay."""
    kernel = oracle._success_mask(target, channels)
    keys = all_outcome_keys()
    layers = candidate_layers()
    pairs = {(keys[r], layers[c]) for r, c in zip(*np.nonzero(kernel))}
    rng = np.random.default_rng(seed)
    pairs |= {(keys[r], layers[c]) for r, c in
              zip(rng.integers(0, 64, 32), rng.integers(0, 256, 32))}
    dense = dense_works(target, channels, pairs)
    for (key, layer), works in dense.items():
        assert kernel[keys.index(key), layers.index(layer)] == works, \
            (key.bits(), layer.label())
    derived = derive_correction_table(target, channels)
    for key in keys:
        assert dense[key, derived[key]]


def test_derivation_makes_no_dense_replay(monkeypatch):
    """Steps 4 and 5 run on the kernel: the only dense calls left are the
    class walk's (one channel tensor product and the sender's phase
    correction on A2, A4 in each of the four sectors); no residual goes
    through the enumerator's per-class receiver_readouts."""
    calls = []
    apply = protocol.apply
    for fn in (apply, protocol.tensor, statevec.fidelity,
               statevec.amps_fidelity, protocol.receiver_readouts):
        def counted(*args, _fn=fn, **kwargs):
            calls.append((_fn.__name__, args[2] if _fn is apply else None))
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if ((name == "mcrsp" or name.startswith("mcrsp."))
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, counted)
    assert derive_correction_table().to_text() == default_derived_table().to_text()
    assert sorted(calls) == [("apply", ("A2", "A4"))] * 4 + [("tensor", None)]


def test_enumerator_and_oracle_share_one_model_of_steps_4_and_5(monkeypatch):
    """Both take a layer's (dest, sign) from PauliLayer.moves, through the one
    cache of protocol.layer_moves, and the triplet weights from
    protocol.triplet_weights: the enumerator once for each of the 16
    distinct layers its 64 classes use, the oracle for the other 240 of its
    256 candidates, so that every layer is moved once in all."""
    seen = []
    moves = PauliLayer.moves
    triplet_weights = protocol.triplet_weights

    def counted_moves(layer):
        seen.append("moves")
        return moves(layer)

    def counted_weights(*args, **kwargs):
        seen.append("weights")
        return triplet_weights(*args, **kwargs)

    monkeypatch.setattr(PauliLayer, "moves", counted_moves)
    for name, module in list(sys.modules.items()):
        if ((name == "mcrsp" or name.startswith("mcrsp."))
                and getattr(module, "triplet_weights", None) is triplet_weights):
            monkeypatch.setattr(module, "triplet_weights", counted_weights)
    oracle._layer_moves.cache_clear()
    protocol.layer_moves.cache_clear()
    try:
        enumerate_branches(GENERIC_TARGET, GENERIC_CHANNELS)
        used = set(default_derived_table().entries.values())
        assert (seen.count("moves"), seen.count("weights")) == (len(used), 4)
        assert len(used) == 16
        seen.clear()
        assert derive_correction_table().to_text() == default_derived_table().to_text()
        assert (seen.count("moves"), seen.count("weights")) == (256 - 16, 4)
    finally:
        oracle._layer_moves.cache_clear()
        protocol.layer_moves.cache_clear()


def test_audit_reports_a_swapped_pair_of_rows(derived):
    """A scratch table with two agreeing published rows swapped: the audit
    marks both keys as misprints, next to the five known ones."""
    published = published_correction_table()
    agreeing = [k for k in all_outcome_keys() if k not in CORRUPT_KEYS]
    first, second = next(
        (a, b) for a in agreeing for b in agreeing
        if a < b and published[a] != published[b]
        and not any(dense_works(GENERIC_TARGET, GENERIC_CHANNELS,
                                [(a, published[b]), (b, published[a])]).values()))
    entries = dict(published.entries)
    entries[first], entries[second] = published[second], published[first]
    scratch = CorrectionTable(entries, "paper")
    diff = compare_with_published(derived, scratch)
    assert set(diff.keys()) == CORRUPT_KEYS | {first, second}
    assert not any(e.paper_layer_works for e in diff.entries)
