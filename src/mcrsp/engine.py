"""Exact branch enumeration of the full preparation protocol.

One run of the simulator reports every measurement record once: the sender's
four-outcome basis measurement, her two diagonal-corrected readouts, one bit
per controller, and the receiver's ancilla flag.  Residual states are kept
unnormalized throughout, so the squared norm of a leaf is the joint
probability of its record and the leaves must sum to 1, which the enumerator
verifies before reporting anything.

Success means the ancilla reads 0 and the receiver's residual matches the
target.  The physics runs once per parity class: steps 1 to 3 give one
array of class residuals (protocol.class_residuals), and steps 4 and 5 read
its rows through the signed permutation and triplet weights of
protocol.receiver_readouts.
A RunReport keeps the at most 64 class outcomes and the 2^(n+m) controller
readouts as a uint8 array with the parity class 2g+h of each.  Record order
is sector bits, sender readouts, controller bits, so every sector's records
are the controller readouts in order; tsp, the completeness total, the CSV
and the Monte Carlo arrays gather the class values through the parity-class
vector with numpy, and no per-record Python object is built unless the
branches view is asked for.  monte_carlo draws from the enumerated
distribution rather than rerunning any physics, so it checks the
bookkeeping.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .protocol import (
    PROB_FLOOR,
    SUCCESS_FIDELITY,
    ChannelPair,
    CorrectionTable,
    OutcomeKey,
    TargetState,
    build_target,
    check_controller_count,
    class_residuals,
    default_derived_table,
    published_correction_table,
    receiver_readouts,
    triplet_weights,
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

# Largest trial count; the draw holds 16 bytes per trial, 256 MiB at the limit.
MAX_TRIALS = 2 ** 24


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
class ClassOutcome:
    """What every record of one parity class shares: the reported key, the
    sector's step-1 probability, and (probability, fid) per ancilla value."""

    key: OutcomeKey
    norm_factor: float
    readouts: tuple


def _slot(cls) -> tuple:
    """(sector 8i+4j+2p+q, parity class 2g+h) of a physical class."""
    i, j, p, q, g, h = cls
    return 8 * i + 4 * j + 2 * p + q, 2 * g + h


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one exact enumeration produces.

    classes maps the physical (i, j, p, q, g, h) to its ClassOutcome.
    controllers holds every controller readout as one row of a
    (2^(n+m), n+m) uint8 array, in record order, and parity_class holds the
    physical 2g+h of each row.
    """

    classes: dict
    controllers: np.ndarray
    parity_class: np.ndarray
    ccc: int
    correction_source: str

    @cached_property
    def readout_table(self) -> np.ndarray:
        """(probability, fid) of every class and ancilla value, as a (16, 4,
        2, 2) array indexed by sector 8i+4j+2p+q, 2g+h and ancilla; a class
        that no controller readout reaches stays 0."""
        table = np.zeros((16, 4, 2, 2))
        for cls, c in self.classes.items():
            table[_slot(cls)] = c.readouts
        return table

    @cached_property
    def tsp(self) -> float:
        """Summed weight of the ancilla-0 records that reach the target.

        The weights are added left to right in record order, one sector at
        a time, as a running sum would; np.sum adds pairwise and would round
        differently.  A record that fails adds 0.0, which leaves the sum
        unchanged.
        """
        readout = self.readout_table[:, :, 0]
        weights = np.where(readout[..., 1] >= SUCCESS_FIDELITY, readout[..., 0], 0.0)
        total = 0.0
        for sector in weights:
            seq = sector[self.parity_class]
            seq[0] += total
            total = float(np.add.accumulate(seq, out=seq)[-1])
        return total

    @property
    def branches(self) -> tuple:
        """One BranchOutcome per record and ancilla value, in record order;
        built on every access, 2^(n+m+5) of them."""
        bits = [tuple(row) for row in self.controllers.tolist()]
        parities = [divmod(k, 2) for k in self.parity_class.tolist()]
        out = []
        for sector in itertools.product((0, 1), repeat=4):
            for b, gh in zip(bits, parities):
                c = self.classes[sector + gh]
                out.extend(BranchOutcome(c.key, b, anc, prob, c.norm_factor, fid)
                           for anc, (prob, fid) in enumerate(c.readouts))
        return tuple(out)

    def min_success_fidelity(self):
        """Worst fidelity over weighted ancilla-0 branches, None if there are none."""
        return min((c.readouts[0][1] for c in self.classes.values()
                    if c.readouts[0][0] > PROB_FLOOR), default=None)


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

    flip_report=("C", k) makes controller C_k report the opposite of what it
    measured; the physical projection still uses the true bit, so only the
    receiver's key is corrupted.  Raises ValueError before any work if n+m
    exceeds MAX_CONTROLLERS, and RuntimeError if the leaf probabilities fail
    to sum to 1, since every conclusion rests on that completeness.
    """
    check_controller_count(channels)
    table = _resolve_table(source)
    flip = _validate_flip(flip_report, channels)
    n, m = channels.n, channels.m
    flip_g = int(flip is not None and flip[0] == "C")
    flip_h = int(flip is not None and flip[0] == "D")
    target_amps = build_target(target).amps
    weights = {(i, j): triplet_weights(i, j, channels)
               for i in (0, 1) for j in (0, 1)}
    walk, residuals, step1 = class_residuals(target, channels)
    classes = {}
    for cls, residual in zip(walk, residuals):
        i, j, p, q, g, h = cls
        key = OutcomeKey(i, j, p, q, g ^ flip_g, h ^ flip_h)
        classes[cls] = ClassOutcome(key, step1[2 * i + j], receiver_readouts(
            residual, table[key], weights[i, j], target_amps))
    width = n + m
    codes = np.arange(2 ** width, dtype=np.uint32)[:, None]
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    controllers = ((codes >> shifts) & 1).astype(np.uint8)
    parity_class = (2 * np.bitwise_xor.reduce(controllers[:, :n], axis=1)
                    + np.bitwise_xor.reduce(controllers[:, n:], axis=1))
    report = RunReport(classes, controllers, parity_class, ccc_count(n, m),
                       table.provenance)
    # Each class occurs once per sector and controller readout of its parity.
    multiplicity = np.bincount(report.parity_class, minlength=4)
    total = float(np.sum(report.readout_table[..., 0].sum(axis=-1) * multiplicity))
    if abs(total - 1.0) > _COMPLETENESS_TOL:
        raise RuntimeError(
            f"branch probabilities sum to {total!r}, not 1; enumeration is incomplete")
    return report


def monte_carlo(target: TargetState, channels: ChannelPair, source="oracle",
                trials: int = 10000, seed=None) -> MonteCarloResult:
    """Estimate the success rate by sampling the enumerated distribution.

    The estimate must land within a few standard errors of RunReport.tsp;
    anything else means the probability bookkeeping is wrong, not the draw.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and the limit of "
                         f"{MAX_TRIALS}, got {trials}")
    report = enumerate_branches(target, channels, source)
    table = report.readout_table
    # (sector, controller readout, ancilla) flattened: record order.
    probs = table[..., 0][:, report.parity_class].ravel()
    success = ((table[..., 1] >= SUCCESS_FIDELITY)
               & (np.arange(2) == 0))[:, report.parity_class].ravel()
    draws = np.random.default_rng(seed).choice(len(probs), size=trials,
                                               p=probs / probs.sum())
    successes = int(success[draws].sum())
    estimate = successes / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloResult(trials=trials, seed=seed, successes=successes,
                            estimate=estimate, std_error=std_error,
                            exact=report.tsp)


def write_branch_csv(report: RunReport, fh) -> int:
    """Dump every branch: one row per measurement record and ancilla value.

    Each class and each controller readout is formatted once; a sector's
    rows are joined from those pieces through the parity-class vector and
    written with one call.  Returns the number of rows, 2^(n+m+5).
    """
    fh.write("ijpqgh,controller_bits,ancilla,probability,fidelity\n")
    # (head, middle, tail) of each class's two rows; the controller bits go
    # between head and middle and between middle and tail.
    texts = np.empty((16, 4, 3), dtype=object)
    for cls, c in report.classes.items():
        (p0, f0), (p1, f1) = c.readouts
        head = c.key.bits() + ","
        texts[_slot(cls)] = (
            head, f",0,{p0:.12g},{f0:.12g}\n{head}", f",1,{p1:.12g},{f1:.12g}\n")
    count = len(report.controllers)
    pieces = np.empty(5 * count, dtype=object)
    pieces[1::5] = pieces[3::5] = _bit_text(report.controllers)
    for sector in texts:
        pieces[0::5], pieces[2::5], pieces[4::5] = sector[report.parity_class].T
        fh.write("".join(pieces.tolist()))
    return 32 * count


def _bit_text(bits: np.ndarray) -> np.ndarray:
    """Each row of a 0/1 uint8 array as a string of '0' and '1' characters,
    in an object array."""
    rows, width = bits.shape
    if not width:
        return np.full(rows, "", dtype=object)
    return (bits + ord("0")).view(f"S{width}").ravel().astype(f"U{width}").astype(object)
