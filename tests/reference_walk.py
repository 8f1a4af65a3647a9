"""The full-register branch walk and the csv-module branch writer, kept as
test-only references.

The walk projects every controller of every record on the dense 2^(8+n+m)
register and replays steps 4 and 5 densely (reference_oracle), exactly as
the protocol describes, so it shares no shortcut with
engine.enumerate_branches, which collapses the controllers into parity
classes and moves amplitudes instead of applying operators.  Meant for
n+m <= 4; the register doubles with every controller.
It keeps its own list of BranchOutcome records, one per record and
ancilla value.  The writer formats every field of every row through
csv.writer, with none of engine.write_branch_csv's sharing.
"""
import csv
from dataclasses import dataclass

from mcrsp.engine import BranchOutcome, _resolve_table, _validate_flip
from mcrsp.protocol import (
    SUCCESS_FIDELITY,
    OutcomeKey,
    alice_basis,
    build_channels,
    build_target,
    sender_stage,
    triplet_unitary,
)
from mcrsp.statevec import PLUS_MINUS, project
from reference_oracle import ancilla_readout, receiver_stage

MAX_REFERENCE_CONTROLLERS = 4


@dataclass(frozen=True)
class ReferenceRun:
    branches: tuple
    tsp: float


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
