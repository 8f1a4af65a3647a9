"""Brute-force derivation and audit of the receiver's correction table.

One class walk with a controller per channel (protocol.class_residuals) gives
each of the 64 outcome keys its residual after steps 1 to 3; the oracle then
scans candidate Pauli layers until one lets the ancilla stage reproduce the
target exactly.  The derivation never consults the published table, so
comparing the two is an independent audit: keys where they disagree are
reported together with whether the published layer would have worked anyway
(corrections are not unique) or is simply wrong.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .statevec import StateVector
from .protocol import (
    LAYER_OPS,
    SUCCESS_FIDELITY,
    ChannelPair,
    CorrectionTable,
    OutcomeKey,
    PauliLayer,
    TargetState,
    all_outcome_keys,
    ancilla_readout,
    build_target,
    class_residuals,
    default_derived_table,
    published_correction_table,
    receiver_stage,
    triplet_unitary,
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


def _key_residuals(target: TargetState, channels: ChannelPair) -> dict:
    """Steps 1 to 3 with one controller per channel, whose reported bit is
    the key's parity: {key: residual} for all 64 keys."""
    residuals = class_residuals(target, replace(channels, n=1, m=1))
    return {OutcomeKey(*bits): state for bits, (state, _) in residuals.items()}


def _restores_target(pre: StateVector, layer: PauliLayer, vmat,
                     target_state: StateVector) -> bool:
    """Steps 4 and 5: does layer leave the ancilla-0 residual on the target?"""
    _, fid = ancilla_readout(receiver_stage(pre, layer, vmat), 0, target_state)
    return fid >= SUCCESS_FIDELITY


def derive_correction_table(target: TargetState = GENERIC_TARGET,
                            channels: ChannelPair = GENERIC_CHANNELS) -> CorrectionTable:
    """Derive all 64 correction layers by exhaustive search.

    Ties are broken by candidate order, so the result is deterministic
    bit for bit.  Raises if some key admits no working layer, which would
    mean the protocol model itself is broken.
    """
    _require_generic(target, channels)
    target_state = build_target(target)
    entries = {}
    for key, pre in _key_residuals(target, channels).items():
        vmat = triplet_unitary(key.i, key.j, channels)
        for layer in candidate_layers():
            if _restores_target(pre, layer, vmat, target_state):
                entries[key] = layer
                break
        else:
            raise RuntimeError(
                f"no correction layer restores the target for key {key.bits()}")
    return CorrectionTable(entries, "derived")


def layers_achieve_target(layers, target: TargetState = GENERIC_TARGET,
                          channels: ChannelPair = GENERIC_CHANNELS) -> dict:
    """Replay layers, a mapping from outcome keys to Pauli layers, from one
    class walk: {key: whether its layer restores the target}."""
    residuals = _key_residuals(target, channels)
    target_state = build_target(target)
    return {key: _restores_target(residuals[key], layer,
                                  triplet_unitary(key.i, key.j, channels),
                                  target_state)
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
