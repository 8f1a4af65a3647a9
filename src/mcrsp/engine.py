"""Exact branch enumeration of the full preparation protocol.

One run of the simulator walks every measurement record once: the sender's
four-outcome basis measurement, her two diagonal-corrected readouts, one bit
per controller, and the receiver's ancilla flag.  Residual states are kept
unnormalized throughout, so the squared norm of a leaf is the joint
probability of its record and the leaves must sum to 1, which the enumerator
verifies before reporting anything.

Success means the ancilla reads 0 and the receiver's residual matches the
target; the total success probability is the summed weight of those leaves.
A leaf keeps its record, probability and fidelity; the receiver's transcript
is the record's n+m+4 classical bits.  monte_carlo draws from the enumerated
distribution rather than rerunning any physics, so it checks the bookkeeping.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .statevec import PLUS_MINUS, project
from .protocol import (
    PROB_FLOOR,
    SUCCESS_FIDELITY,
    ChannelPair,
    CorrectionTable,
    OutcomeKey,
    TargetState,
    alice_basis,
    ancilla_readout,
    build_channels,
    build_target,
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
    """Walk every measurement record of the protocol exactly once.

    Branches come out in lexicographic record order (sector bits, sender
    readouts, controller bits, ancilla last).  flip_report=("C", k) makes
    controller C_k report the opposite of what it measured; the physical
    projection still uses the true bit, so only the receiver's key is
    corrupted.  Raises RuntimeError if the leaf probabilities fail to sum to
    1, since every conclusion rests on that completeness.
    """
    table = _resolve_table(source)
    layers = table.entries
    flip = _validate_flip(flip_report, channels)
    target_state = build_target(target)
    rows = alice_basis(target)
    psi = build_channels(channels)
    vmats = {(i, j): triplet_unitary(i, j, channels)
             for i in (0, 1) for j in (0, 1)}
    meas_labels = (["A2", "A4"]
                   + [f"C{k}" for k in range(1, channels.n + 1)]
                   + [f"D{k}" for k in range(1, channels.m + 1)])

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
            for bits, state in level:
                p, q = bits[0], bits[1]
                phys = bits[2:]
                reported = list(phys)
                if flip is not None:
                    group, idx = flip
                    pos = idx - 1 if group == "C" else channels.n + idx - 1
                    reported[pos] = 1 - reported[pos]
                key = OutcomeKey(i, j, p, q,
                                 parity(reported[:channels.n]),
                                 parity(reported[channels.n:]))
                staged = receiver_stage(state, layers[key], vmats[(i, j)])
                for anc in (0, 1):
                    prob, fid = ancilla_readout(staged, anc, target_state)
                    branches.append(BranchOutcome(
                        key=key, controller_bits=tuple(phys), ancilla=anc,
                        probability=prob, norm_factor=step1_prob, fid=fid))
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
    """Dump every branch: one row per measurement record and ancilla value."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["ijpqgh", "controller_bits", "ancilla",
                     "probability", "fidelity"])
    for b in report.branches:
        writer.writerow([b.key.bits(),
                         "".join(str(x) for x in b.controller_bits),
                         b.ancilla,
                         f"{b.probability:.12g}",
                         f"{b.fid:.12g}"])
