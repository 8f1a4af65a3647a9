"""The record-by-record join of class outcomes and controller readouts, kept
as a test-only reference for the enumerator's vectorized record order.

A run's records are every sector (i, j, p, q) crossed with every controller
readout, in that order; each record takes the outcome of its parity class.
This module walks them one at a time with Python tuples and sums mod 2, and
computes from that walk the success probability (a left-to-right running
sum), the completeness total, the branch CSV and the Monte Carlo draws, the
way engine did before it gathered them with numpy.  It reads only
report.classes, so the controller array and parity-class vector are checked
rather than trusted.
"""
import itertools

import numpy as np

from mcrsp.protocol import SUCCESS_FIDELITY


def records(report, n, m):
    """(physical class, its ClassOutcome, controller bits) of every record,
    in record order: sector bits, sender readouts, controller bits."""
    controllers = [(bits, (sum(bits[:n]) % 2, sum(bits[n:]) % 2))
                   for bits in itertools.product((0, 1), repeat=n + m)]
    for sector in itertools.product((0, 1), repeat=4):
        for bits, parities in controllers:
            cls = sector + parities
            yield cls, report.classes[cls], bits


def reference_tsp(report, n, m):
    """Ancilla-0 success weight added record by record, left to right.

    Written as a loop rather than sum(), which from Python 3.12 compensates
    its rounding; the loop is what sum() does on Python 3.10 and 3.11.
    """
    total = 0.0
    for _, c, _ in records(report, n, m):
        prob, fid = c.readouts[0]
        if fid >= SUCCESS_FIDELITY:
            total += prob
    return total


def reference_total(report, n, m):
    """Probability of every record and ancilla value, summed in record order."""
    total = 0.0
    for _, c, _ in records(report, n, m):
        for prob, _ in c.readouts:
            total += prob
    return total


def reference_branch_csv(report, n, m, fh):
    """One write per record, each class and controller readout formatted once."""
    fh.write("ijpqgh,controller_bits,ancilla,probability,fidelity\n")
    texts = {}
    for cls, c in report.classes.items():
        (p0, f0), (p1, f1) = c.readouts
        head = c.key.bits() + ","
        texts[cls] = head, f",0,{p0:.12g},{f0:.12g}\n{head}", f",1,{p1:.12g},{f1:.12g}\n"
    for cls, _, bits in records(report, n, m):
        head, mid, tail = texts[cls]
        b = "".join(str(x) for x in bits)
        fh.write(head + b + mid + b + tail)


def reference_successes(report, n, m, trials, seed):
    """Successes among `trials` seeded draws over the records' (record,
    ancilla) rows, the rows built in record order from the walk."""
    position = {cls: k for k, cls in enumerate(report.classes)}
    rows = np.fromiter((position[cls] for cls, _, _ in records(report, n, m)),
                       dtype=np.intp, count=16 * 2 ** (n + m))
    readouts = np.array([c.readouts for c in report.classes.values()])[rows]
    probs = readouts[:, :, 0].ravel()
    success = ((readouts[:, :, 1] >= SUCCESS_FIDELITY) & (np.arange(2) == 0)).ravel()
    draws = np.random.default_rng(seed).choice(len(probs), size=trials,
                                               p=probs / probs.sum())
    return int(success[draws].sum())

