"""The full-register branch walk, the per-class projection tree of steps 1
to 3 and the csv-module branch writer, kept as test-only references.

The walk projects every controller of every record on the dense 2^(8+n+m)
register and replays steps 4 and 5 densely (reference_oracle), exactly as
the protocol describes, so it shares no shortcut with
engine.enumerate_branches, which collapses the controllers into parity
classes and moves amplitudes instead of applying operators.  Meant for
n+m <= 4; the register doubles with every controller.
reference_class_residuals walks the parity classes with one single-qubit
project call per class and measured qubit and a StateVector per class;
protocol.class_residuals, which contracts whole arrays instead, is checked
against it bit for bit.
The full walk keeps its own list of BranchOutcome records, one per record and
ancilla value.  The writer formats every field of every row through
csv.writer, with none of engine.write_branch_csv's sharing.
"""
import csv
from dataclasses import dataclass, replace

from mcrsp.engine import BranchOutcome, _resolve_table, _validate_flip
from mcrsp.protocol import (
    SQRT_HALF,
    SUCCESS_FIDELITY,
    OutcomeKey,
    alice_basis,
    build_channels,
    build_target,
    sender_stage,
    triplet_unitary,
)
from mcrsp.statevec import PLUS_MINUS, StateVector, project
from reference_oracle import ancilla_readout, receiver_stage

MAX_REFERENCE_CONTROLLERS = 4


@dataclass(frozen=True)
class ReferenceRun:
    branches: tuple
    tsp: float


def reference_class_residuals(t, c) -> dict:
    """Steps 1 to 3 once per parity class: {(i, j, p, q, g, h): (residual,
    step-1 probability)} in lexicographic order, g and h the physical parities.

    Every record of a class leaves the same residual, since the receiver uses
    controller bits only through their parity.  The walk projects A2, A4, C1
    and D1 on a register with min(n, 1) and min(m, 1) controllers, then
    rescales by 1/sqrt(2) per further controller.  That is bit-identical to
    the full 2^(8+n+m) register: in a GHZ-class channel each controller
    projection multiplies every surviving amplitude by +-1/sqrt(2) against an
    exact-zero partner, and sign changes are exact.  The step-1 probability
    is summed on the reduced register.
    """
    psi = build_channels(replace(c, n=min(c.n, 1), m=min(c.m, 1)))
    rows = alice_basis(t)
    labels = ("A2", "A4") + ("C1",) * min(c.n, 1) + ("D1",) * min(c.m, 1)
    further = c.n + c.m - min(c.n, 1) - min(c.m, 1)
    out = {}
    for i in (0, 1):
        for j in (0, 1):
            sector, prob = sender_stage(psi, rows, i, j, t)
            level = [((), sector)]
            for lbl in labels:
                level = [(bits + (b,), project(state, (lbl,), PLUS_MINUS, b)[0])
                         for bits, state in level for b in (0, 1)]
            for bits, state in level:
                for _ in range(further):
                    state = StateVector(state.labels, state.amps * SQRT_HALF, copy=False)
                g = bits[2] if c.n else 0
                h = bits[-1] if c.m else 0
                out[(i, j) + bits[:2] + (g, h)] = state, prob
    return out


def reference_enumerate(target, channels, source="oracle", *, flip_report=None):
    """Every record in lexicographic order, each controller projected."""
    if channels.n + channels.m > MAX_REFERENCE_CONTROLLERS:
        raise ValueError("the reference walk is meant for n+m <= 4")
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
                                 sum(reported[:channels.n]) % 2,
                                 sum(reported[channels.n:]) % 2)
                staged = receiver_stage(state, layers[key], vmats[(i, j)])
                for anc in (0, 1):
                    prob, fid = ancilla_readout(staged, anc, target_state)
                    branches.append(BranchOutcome(
                        key=key, controller_bits=tuple(phys), ancilla=anc,
                        probability=prob, norm_factor=step1_prob, fid=fid))
    tsp = sum(b.probability for b in branches
              if b.ancilla == 0 and b.fid >= SUCCESS_FIDELITY)
    return ReferenceRun(tuple(branches), tsp)


def reference_csv(run, fh):
    """One csv.writer row per branch."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["ijpqgh", "controller_bits", "ancilla",
                     "probability", "fidelity"])
    for b in run.branches:
        writer.writerow([b.key.bits(),
                         "".join(str(x) for x in b.controller_bits),
                         b.ancilla,
                         f"{b.probability:.12g}",
                         f"{b.fid:.12g}"])
