"""Brute-force derivation and audit of the receiver's correction table.

One class walk with a controller per channel (protocol.class_residuals) gives
each of the 64 outcome keys its residual on (B1, B2, B3, B4) after steps 1
to 3, as one row of a (64, 16) array.  Steps 4 and 5 are then scored for
all 256 candidate Pauli layers at once, on the enumerator's model of them:
a layer is a signed permutation of the 16 receiver amplitudes
(PauliLayer.moves, through protocol.layer_moves), and the ancilla-0 readout
weights each amplitude by a diagonal entry of the triplet unitary's W block
(protocol.triplet_weights), so the ancilla-0 residual of key k under layer l
is w * sign * R_k[src] with no state to build.  Its overlap with the target
and its squared norm are, for the 16 keys of a sender sector, two matrix
products: conj(R) @ G and |R|^2 @ M, with G[src, l] = sign * w * t and
M[src, l] = w^2 over the amplitude each source moves to.  The first
candidate whose fidelity reaches SUCCESS_FIDELITY is the derived layer.

The derivation never consults the published table, so comparing the two is
an independent audit: keys where they disagree are reported together with
whether the published layer would have worked anyway (corrections are not
unique) or is simply wrong.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .protocol import (
    LAYER_OPS,
    PROB_FLOOR,
    SUCCESS_FIDELITY,
    ChannelPair,
    CorrectionTable,
    OutcomeKey,
    PauliLayer,
    TargetState,
    all_outcome_keys,
    build_target,
    class_residuals,
    default_derived_table,
    layer_moves,
    published_correction_table,
    triplet_weights,
)
from .engine import enumerate_branches
from .metrics import tsp_formula

__all__ = [
    "SUCCESS_FIDELITY",
    "GENERIC_TARGET",
    "GENERIC_CHANNELS",
    "CorrectionTable",
    "DiffEntry",
    "TableDiff",
    "candidate_layers",
    "derive_correction_table",
    "default_derived_table",
    "published_correction_table",
    "compare_with_published",
    "layers_achieve_target",
    "validate_table",
    "TargetValidation",
    "ValidationReport",
]

# Fixed generic parameters: every amplitude nonzero, phases incommensurate,
# channel bounds strict.  Derivation at a degenerate point would make several
# wrong layers look right, so these are the defaults for all table work.
GENERIC_TARGET = TargetState.normalized(2.0, 3.0, 4.0, 5.0, 0.3, 0.7, 1.1)
GENERIC_CHANNELS = ChannelPair(
    math.sqrt(0.7), math.sqrt(0.3), math.sqrt(0.8), math.sqrt(0.2), n=1, m=1)


@dataclass(frozen=True)
class DiffEntry:
    key: OutcomeKey
    paper: PauliLayer
    derived: PauliLayer
    paper_layer_works: bool


@dataclass(frozen=True)
class TableDiff:
    """Per-key disagreements between a derived and the published table."""

    entries: tuple

    def keys(self) -> tuple:
        return tuple(e.key for e in self.entries)

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", "paper", "derived", "paper_layer_works"])
        for e in self.entries:
            writer.writerow([e.key.bits(), e.paper.label(), e.derived.label(),
                             str(e.paper_layer_works).lower()])


@lru_cache(maxsize=1)
def candidate_layers() -> tuple:
    """All 256 layers, ordered cheapest-first per qubit (I, X, Z, XZ).

    The B1 slot varies fastest and B4 slowest, so the first working layer
    puts single-qubit fixes on the lowest-numbered qubit of each channel
    pair; that convention matches the shape of the published rows.
    """
    out = []
    for b4 in LAYER_OPS:
        for b3 in LAYER_OPS:
            for b2 in LAYER_OPS:
                for b1 in LAYER_OPS:
                    out.append(PauliLayer((b1, b2, b3, b4)))
    return tuple(out)


def _require_generic(target: TargetState, channels: ChannelPair) -> None:
    if min(abs(target.alpha), abs(target.beta), abs(target.gamma),
           abs(target.delta)) == 0.0:
        raise ValueError("table derivation needs all four target amplitudes nonzero")
    if abs(channels.a0) <= abs(channels.a1) or abs(channels.b0) <= abs(channels.b1):
        raise ValueError("table derivation needs strict channel bounds "
                         "|a0| > |a1| and |b0| > |b1|")
    if channels.a1 == 0.0 or channels.b1 == 0.0:
        raise ValueError("table derivation needs a1 and b1 nonzero: an empty "
                         "channel leaves no key a working layer")


@lru_cache(maxsize=1)
def _layer_moves():
    """PauliLayer.moves() of every candidate layer, stacked: (dest, sign),
    two (16, 256) arrays indexed by source amplitude and candidate position."""
    moves = [layer_moves(layer) for layer in candidate_layers()]
    return tuple(np.stack(arrays, axis=1) for arrays in zip(*moves))


@lru_cache(maxsize=1)
def _candidate_index() -> dict:
    return {layer: col for col, layer in enumerate(candidate_layers())}


def _success_mask(target: TargetState, channels: ChannelPair) -> np.ndarray:
    """Steps 4 and 5 for every key and candidate layer: a (64, 256) boolean
    array, rows in all_outcome_keys() order and columns in candidate_layers()
    order, True where the ancilla-0 residual reaches SUCCESS_FIDELITY.

    Fidelity is 0.0 where the residual's squared norm is at or below
    PROB_FLOOR, as in protocol.receiver_readouts.
    """
    _, residuals, _ = class_residuals(target, replace(channels, n=1, m=1))
    # The classes come in ijpqgh order, so sector (i, j) is block 2i + j.
    r = residuals.reshape(4, 16, 16)
    t = build_target(target)
    dest, sign = _layer_moves()
    signed_target = sign * t.amps[dest]
    works = np.empty((4, 16, 256), dtype=bool)
    for s, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        # w[src, l]: the weight on the amplitude that layer l moves src to
        w = triplet_weights(i, j, channels)[0][dest]
        overlap = r[s].conj() @ (w * signed_target)
        norm2 = (r[s].real ** 2 + r[s].imag ** 2) @ (w * w)
        fid = np.zeros(norm2.shape)
        np.divide(overlap.real ** 2 + overlap.imag ** 2, norm2 * t.squared_norm,
                  out=fid, where=norm2 > PROB_FLOOR)
        works[s] = fid >= SUCCESS_FIDELITY
    return works.reshape(64, 256)


def derive_correction_table(target: TargetState = GENERIC_TARGET,
                            channels: ChannelPair = GENERIC_CHANNELS) -> CorrectionTable:
    """Derive all 64 correction layers by exhaustive search.

    Each key gets the first working layer in candidate_layers() order, so
    the result is deterministic bit for bit.  Raises if some key admits no
    working layer, which would mean the protocol model itself is broken.
    """
    _require_generic(target, channels)
    works = _success_mask(target, channels)
    layers = candidate_layers()
    entries = {}
    for key, row in zip(all_outcome_keys(), works):
        if not row.any():
            raise RuntimeError(
                f"no correction layer restores the target for key {key.bits()}")
        entries[key] = layers[int(row.argmax())]
    return CorrectionTable(entries, "derived")


def layers_achieve_target(layers, target: TargetState = GENERIC_TARGET,
                          channels: ChannelPair = GENERIC_CHANNELS) -> dict:
    """Replay layers, a mapping from outcome keys to Pauli layers, from one
    class walk: {key: whether its layer restores the target}."""
    works = _success_mask(target, channels)
    col = _candidate_index()
    return {key: bool(works[int(key.bits(), 2), col[layer]])
            for key, layer in layers.items()}


def compare_with_published(derived: CorrectionTable,
                           published: CorrectionTable = None) -> TableDiff:
    """Audit the published table against a derived one.

    For every disagreeing key the published layer is replayed through the
    protocol at the fixed generic parameters to decide whether it is an
    equally valid alternative or an outright misprint.
    """
    if published is None:
        published = published_correction_table()
    disagreeing = {key: published[key] for key in all_outcome_keys()
                   if derived[key] != published[key]}
    works = layers_achieve_target(disagreeing)
    return TableDiff(tuple(DiffEntry(key, p, derived[key], works[key])
                           for key, p in disagreeing.items()))


@dataclass(frozen=True)
class TargetValidation:
    target: TargetState
    min_success_fidelity: float
    tsp: float
    tsp_error: float


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple

    @property
    def min_fidelity(self) -> float:
        return min(r.min_success_fidelity for r in self.rows)

    @property
    def max_tsp_error(self) -> float:
        return max(r.tsp_error for r in self.rows)

    def passed(self, fid_floor: float = SUCCESS_FIDELITY,
               tsp_tol: float = 1e-9) -> bool:
        return self.min_fidelity >= fid_floor and self.max_tsp_error <= tsp_tol


def validate_table(table: CorrectionTable, targets, channels: ChannelPair) -> ValidationReport:
    """Replay full enumerations with the given table over many targets.

    Success branches are the weighted ancilla-0 branches; a correct table
    drives every one of them to the target with fidelity 1, independent of
    which target is being prepared.
    """
    expected = tsp_formula(channels.a1, channels.b1)
    rows = []
    for t in targets:
        report = enumerate_branches(t, channels, source=table)
        min_fid = report.min_success_fidelity() or 0.0
        rows.append(TargetValidation(t, min_fid, report.tsp,
                                     abs(report.tsp - expected)))
    if not rows:
        raise ValueError("validate_table needs at least one target")
    return ValidationReport(tuple(rows))
