"""The dense replay of steps 4 and 5 and dense Pauli-layer matrices, kept as
test-only references for the oracle's batched kernel.

The replay runs protocol.receiver_stage and protocol.ancilla_readout on the
5-qubit receiver state of one (key, layer) pair at a time, exactly as the
enumerator does, so it shares nothing with oracle._success_mask beyond the
class walk of steps 1 to 3.  It costs about 0.2 ms per pair.
"""
from dataclasses import replace

import numpy as np

from mcrsp.oracle import candidate_layers
from mcrsp.protocol import (
    PAULI_OPS,
    SUCCESS_FIDELITY,
    OutcomeKey,
    all_outcome_keys,
    ancilla_readout,
    build_target,
    class_residuals,
    receiver_stage,
    triplet_unitary,
)


def layer_matrix(layer):
    """Dense 16x16 matrix of a layer over (B1, B2, B3, B4), B1 most significant."""
    out = PAULI_OPS[layer.ops[0]]
    for op in layer.ops[1:]:
        out = np.kron(out, PAULI_OPS[op])
    return out


def dense_works(target, channels, pairs):
    """{(key, layer): whether the dense replay restores the target} for
    each (key, layer) pair, from one class walk with a controller per channel."""
    residuals = {OutcomeKey(*bits): state for bits, (state, _) in
                 class_residuals(target, replace(channels, n=1, m=1)).items()}
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
