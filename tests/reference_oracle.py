"""The dense replay of steps 4 and 5 and dense Pauli-layer matrices, kept as
test-only references for the signed-permutation model of those steps that
the enumerator (protocol.receiver_readouts) and the oracle's batched kernel
share.

receiver_stage applies the layer's 2x2 Paulis one qubit at a time, brings
in the ancilla B_A as |0> and applies the full 8x8 triplet_unitary;
ancilla_readout projects the ancilla and takes the fidelity.  So the replay
shares nothing with protocol.PauliLayer.moves or protocol.triplet_weights,
only the class walk of steps 1 to 3.  It costs about 0.2 ms per pair.
"""
from dataclasses import replace

import numpy as np

from mcrsp.oracle import candidate_layers
from mcrsp.protocol import (
    BOB_QUBITS,
    PROB_FLOOR,
    SUCCESS_FIDELITY,
    OutcomeKey,
    PauliLayer,
    all_outcome_keys,
    build_target,
    class_residuals,
    triplet_unitary,
)
from mcrsp.statevec import (
    COMPUTATIONAL,
    KET0,
    StateVector,
    apply,
    fidelity,
    project,
    tensor,
)

ANCILLA = "B_A"

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# "XZ" means apply X first and then Z; the opposite order differs only by a
# global phase, which no fidelity in this package can see.
PAULI_OPS = {
    "I": np.eye(2, dtype=complex),
    "X": _X,
    "Z": _Z,
    "XZ": _Z @ _X,
}

_ANCILLA_START = StateVector((ANCILLA,), KET0)


def receiver_stage(state: StateVector, layer: PauliLayer,
                   vmat: np.ndarray) -> StateVector:
    """Step 4: apply the key's Pauli layer, then bring in the ancilla B_A in
    |0> and apply the triplet unitary vmat on (B_A, B1, B3)."""
    for lbl, op in zip(BOB_QUBITS, layer.ops):
        if op != "I":
            state = apply(state, PAULI_OPS[op], (lbl,))
    return apply(tensor(state, _ANCILLA_START), vmat, (ANCILLA, "B1", "B3"))


def ancilla_readout(staged: StateVector, ancilla: int, target_state: StateVector):
    """Step 5: read the ancilla out as `ancilla`; returns the probability of
    that readout and the fidelity of the receiver's residual with
    target_state (0.0 at or below PROB_FLOOR)."""
    residual, prob = project(staged, (ANCILLA,), COMPUTATIONAL, ancilla)
    fid = fidelity(residual, target_state) if prob > PROB_FLOOR else 0.0
    return prob, fid


def dense_readouts(state, layer, i, j, channels, target_state):
    """((probability, fidelity) per ancilla readout) of one residual of
    sector (i, j) under layer, replayed densely."""
    staged = receiver_stage(state, layer, triplet_unitary(i, j, channels))
    return tuple(ancilla_readout(staged, anc, target_state) for anc in (0, 1))


def layer_matrix(layer):
    """Dense 16x16 matrix of a layer over (B1, B2, B3, B4), B1 most significant."""
    out = PAULI_OPS[layer.ops[0]]
    for op in layer.ops[1:]:
        out = np.kron(out, PAULI_OPS[op])
    return out


def dense_works(target, channels, pairs):
    """{(key, layer): whether the dense replay restores the target} for
    each (key, layer) pair, from one class walk with a controller per channel."""
    classes, rows, _ = class_residuals(target, replace(channels, n=1, m=1))
    residuals = {OutcomeKey(*bits): StateVector(BOB_QUBITS, row)
                 for bits, row in zip(classes, rows)}
    target_state = build_target(target)
    out = {}
    for key, layer in pairs:
        staged = receiver_stage(residuals[key], layer,
                                triplet_unitary(key.i, key.j, channels))
        _, fid = ancilla_readout(staged, 0, target_state)
        out[key, layer] = fid >= SUCCESS_FIDELITY
    return out


def dense_mask(target, channels):
    """A (64, 256) boolean array: the dense verdict of every key and
    candidate layer, in all_outcome_keys() and candidate_layers() order."""
    keys = all_outcome_keys()
    layers = candidate_layers()
    works = dense_works(target, channels,
                        [(key, layer) for key in keys for layer in layers])
    return np.array([[works[key, layer] for layer in layers] for key in keys])
