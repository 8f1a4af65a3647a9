"""Exact branch enumeration of the full preparation protocol.

One run of the simulator reports every measurement record once: the sender's
four-outcome basis measurement, her two diagonal-corrected readouts, one bit
per controller, and the receiver's ancilla flag.  Residual states are kept
unnormalized throughout, so the squared norm of a leaf is the joint
probability of its record and the leaves must sum to 1, which the enumerator
verifies before reporting anything.

The receiver uses each channel's controller bits only through their parity
(g, h), so the records fall into parity classes: every record with the same
sector (i, j), sender readouts (p, q) and physical parities (g, h) leaves the
same residual.  The physics therefore runs once per class, at most 64 of
them, on a register with min(n, 1) and min(m, 1) controllers (at most 2^10
amplitudes): the representative C1 and D1 readouts carry g and h, and the
records expand from the classes afterwards.  A flipped report toggles the
reported parity, which picks the key and so the correction layer.

The collapse is bit-identical to projecting every controller on the full
2^(8+n+m) register.  The channels are GHZ-class, so wherever a controller is
projected onto |+> or |->, each surviving amplitude has an exact-zero partner
and is multiplied by +-1/sqrt(2) with one rounding.  Sign changes are exact,
so a residual projected through k controllers equals the representative's
residual multiplied by 1/sqrt(2) once for each of the other k-1, in the same
roundings.  The one sum taken over the whole register, a sector's
probability (norm_factor), is summed on the reduced register.

Success means the ancilla reads 0 and the receiver's residual matches the
target; the total success probability is the summed weight of those leaves.
A leaf keeps its record, probability and fidelity; the receiver's transcript
is the record's n+m+4 classical bits.  monte_carlo draws from the enumerated
distribution rather than rerunning any physics, so it checks the bookkeeping.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .statevec import PLUS_MINUS, StateVector, project
from .protocol import (
    PROB_FLOOR,
    SQRT_HALF,
    SUCCESS_FIDELITY,
    ChannelPair,
    CorrectionTable,
    OutcomeKey,
    TargetState,
    alice_basis,
    ancilla_readout,
    build_channels,
    build_target,
    check_controller_count,
    default_derived_table,
    parity,
    published_correction_table,
    receiver_stage,
    sender_stage,
    triplet_unitary,
)

__all__ = [
    "BranchOutcome",
    "RunReport",
    "MonteCarloResult",
    "ccc_count",
    "enumerate_branches",
    "monte_carlo",
    "write_branch_csv",
]

_COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BranchOutcome:
    """One complete measurement record and its simulated consequences.

    probability is the joint probability of the whole record; norm_factor is
    the probability of the record's first-step outcome alone, shared by every
    branch in that sector.  fid compares the receiver's final residual with
    the target, or is 0.0 when the branch carries no weight worth comparing.
    controller_bits are the physical readouts; any misreport injected via
    flip_report shows up only in the key.
    """

    key: OutcomeKey
    controller_bits: tuple
    ancilla: int
    probability: float
    norm_factor: float
    fid: float


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one exact enumeration produces."""

    branches: tuple
    tsp: float
    ccc: int
    correction_source: str

    def success_branches(self) -> tuple:
        return tuple(b for b in self.branches
                     if b.ancilla == 0 and b.probability > PROB_FLOOR)

    def min_success_fidelity(self):
        """Worst fidelity over weighted ancilla-0 branches, None if there are none."""
        fids = [b.fid for b in self.success_branches()]
        return min(fids) if fids else None


@dataclass(frozen=True)
class MonteCarloResult:
    """Sampled success-rate estimate next to the exact value it must track."""

    trials: int
    seed: object
    successes: int
    estimate: float
    std_error: float
    exact: float


def ccc_count(n: int, m: int) -> int:
    """Classical bits consumed per run: the sender's four plus one per controller."""
    if n < 0 or m < 0:
        raise ValueError(f"controller counts must be nonnegative, got n={n}, m={m}")
    return n + m + 4


def _resolve_table(source) -> CorrectionTable:
    """Accept 'oracle', 'paper', or a CorrectionTable."""
    if isinstance(source, CorrectionTable):
        return source
    if source == "oracle":
        return default_derived_table()
    if source == "paper":
        return published_correction_table()
    raise ValueError(f"unknown correction source {source!r}; expected "
                     "'oracle', 'paper', or a CorrectionTable")


def _validate_flip(flip_report, channels: ChannelPair):
    if flip_report is None:
        return None
    if not isinstance(flip_report, tuple) or len(flip_report) != 2:
        raise ValueError("flip_report must be None or a (group, index) pair")
    group, idx = flip_report
    if group not in ("C", "D"):
        raise ValueError(f"flip_report group must be 'C' or 'D', got {group!r}")
    count = channels.n if group == "C" else channels.m
    if not isinstance(idx, int) or isinstance(idx, bool) or not 1 <= idx <= count:
        raise ValueError(
            f"flip_report index {idx!r} outside 1..{count} for group {group!r}")
    return group, idx


def enumerate_branches(target: TargetState, channels: ChannelPair,
                       source="oracle", *, flip_report=None) -> RunReport:
    """Report every measurement record of the protocol exactly once.

    Branches come out in lexicographic record order (sector bits, sender
    readouts, controller bits, ancilla last).  flip_report=("C", k) makes
    controller C_k report the opposite of what it measured; the physical
    projection still uses the true bit, so only the receiver's key is
    corrupted.  Raises ValueError before any work if n+m exceeds
    MAX_CONTROLLERS, and RuntimeError if the leaf probabilities fail to sum
    to 1, since every conclusion rests on that completeness.

    Steps 1 to 5 run once per parity class (see the module docstring): each
    controller beyond the representative C1/D1 rescales the class residual
    by 1/sqrt(2).  Each record then takes its class's probabilities and
    fidelities under the key of its reported parities, and tsp and the
    completeness total are summed over records in record order.
    """
    check_controller_count(channels)
    table = _resolve_table(source)
    layers = table.entries
    flip = _validate_flip(flip_report, channels)
    n, m = channels.n, channels.m
    flip_g = int(flip is not None and flip[0] == "C")
    flip_h = int(flip is not None and flip[0] == "D")
    target_state = build_target(target)
    rows = alice_basis(target)
    psi = build_channels(replace(channels, n=min(n, 1), m=min(m, 1)))
    vmats = {(i, j): triplet_unitary(i, j, channels)
             for i in (0, 1) for j in (0, 1)}
    meas_labels = ["A2", "A4"] + ["C1"] * min(n, 1) + ["D1"] * min(m, 1)
    further = n + m - min(n, 1) - min(m, 1)
    records = [(bits, parity(bits[:n]), parity(bits[n:]))
               for bits in itertools.product((0, 1), repeat=n + m)]

    branches = []
    total = 0.0
    for i in (0, 1):
        for j in (0, 1):
            sector, step1_prob = sender_stage(psi, rows, i, j, target)
            level = [((), sector)]
            for lbl in meas_labels:
                nxt = []
                for bits, state in level:
                    for out in (0, 1):
                        residual, _ = project(state, (lbl,), PLUS_MINUS, out)
                        nxt.append((bits + (out,), residual))
                level = nxt
            classes = {}
            for bits, state in level:
                p, q = bits[0], bits[1]
                g = bits[2] if n else 0
                h = bits[-1] if m else 0
                for _ in range(further):
                    state = StateVector(state.labels, state.amps * SQRT_HALF,
                                        copy=False)
                key = OutcomeKey(i, j, p, q, g ^ flip_g, h ^ flip_h)
                staged = receiver_stage(state, layers[key], vmats[(i, j)])
                readouts = [ancilla_readout(staged, anc, target_state) for anc in (0, 1)]
                classes[p, q, g, h] = key, readouts
            for p in (0, 1):
                for q in (0, 1):
                    for bits, g, h in records:
                        key, readouts = classes[p, q, g, h]
                        for anc, (prob, fid) in enumerate(readouts):
                            branches.append(BranchOutcome(
                                key=key, controller_bits=bits, ancilla=anc,
                                probability=prob, norm_factor=step1_prob,
                                fid=fid))
                            total += prob
    if abs(total - 1.0) > _COMPLETENESS_TOL:
        raise RuntimeError(
            f"branch probabilities sum to {total!r}, not 1; enumeration is incomplete")
    tsp = sum(b.probability for b in branches
              if b.ancilla == 0 and b.fid >= SUCCESS_FIDELITY)
    return RunReport(branches=tuple(branches), tsp=tsp,
                     ccc=ccc_count(channels.n, channels.m),
                     correction_source=table.provenance)


def monte_carlo(target: TargetState, channels: ChannelPair, source="oracle",
                trials: int = 10000, seed=None) -> MonteCarloResult:
    """Estimate the success rate by sampling the enumerated distribution.

    The estimate must land within a few standard errors of RunReport.tsp;
    anything else means the probability bookkeeping is wrong, not the draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    report = enumerate_branches(target, channels, source)
    success = np.array([b.ancilla == 0 and b.fid >= SUCCESS_FIDELITY
                        for b in report.branches], dtype=bool)
    probs = np.array([b.probability for b in report.branches], dtype=float)
    draws = np.random.default_rng(seed).choice(len(probs), size=trials,
                                               p=probs / probs.sum())
    successes = int(success[draws].sum())
    estimate = successes / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloResult(trials=trials, seed=seed, successes=successes,
                            estimate=estimate, std_error=std_error,
                            exact=report.tsp)


def write_branch_csv(report: RunReport, fh) -> None:
    """Dump every branch: one row per measurement record and ancilla value.

    The records of one parity class share their key, probability and
    fidelity objects, and records with the same controller bits share one
    tuple, so each piece is formatted once per distinct object.  The caches
    are keyed on object identity, which is exact while the report keeps
    every object alive.
    """
    fh.write("ijpqgh,controller_bits,ancilla,probability,fidelity\n")
    keys, controllers, tails = {}, {}, {}
    for b in report.branches:
        head = keys.get(id(b.key))
        if head is None:
            head = keys[id(b.key)] = b.key.bits() + ","
        bits = controllers.get(id(b.controller_bits))
        if bits is None:
            bits = controllers[id(b.controller_bits)] = (
                "".join(str(x) for x in b.controller_bits) + ",")
        tail_id = (b.ancilla, id(b.probability), id(b.fid))
        tail = tails.get(tail_id)
        if tail is None:
            tail = tails[tail_id] = (
                f"{b.ancilla},{b.probability:.12g},{b.fid:.12g}\n")
        fh.write(head + bits + tail)
