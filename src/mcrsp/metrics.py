"""Closed-form figures of merit for the preparation scheme.

Everything here is arithmetic on real numbers: the total success probability
as a function of the two smaller channel coefficients, the binary Shannon
entropy of a channel coefficient, the intrinsic efficiency of a scheme, and
the stored comparison table of previously reported schemes.  The engine's
enumerated probabilities must agree with these formulas; the tests treat any
gap as a defect in the engine, not in the arithmetic.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .protocol import SQRT_HALF

__all__ = [
    "EfficiencyInputs",
    "SchemeRow",
    "tsp_formula",
    "shannon_entropy",
    "intrinsic_efficiency",
    "comparison_table",
    "tsp_sweep",
    "entropy_curve",
    "write_tsp_sweep_csv",
    "write_entropy_csv",
    "write_comparison_csv",
    "render_comparison_text",
]

_BOUND_TOL = 1e-12
_ETA_TOL = 1e-12

# Largest sweep grid; resolution^2 rows of about 96 bytes, 234 MiB at the limit.
MAX_RESOLUTION = 1600


@dataclass(frozen=True)
class EfficiencyInputs:
    """Resource counts of a preparation scheme.

    n_s: qubits in the prepared state; n_q: qubits consumed as quantum
    resources; n_c: classical bits consumed; tsp: total success probability.
    """

    n_s: int
    n_q: int
    n_c: int
    tsp: float

    def __post_init__(self):
        for name in ("n_s", "n_q", "n_c"):
            val = getattr(self, name)
            if not isinstance(val, int) or isinstance(val, bool) or val <= 0:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        if not (isinstance(self.tsp, (int, float)) and math.isfinite(self.tsp)
                and 0.0 <= self.tsp <= 1.0):
            raise ValueError(f"tsp must lie in [0, 1], got {self.tsp!r}")


@dataclass(frozen=True)
class SchemeRow:
    """One comparison-table row; eta must equal the recomputed efficiency."""

    label: str
    n_s: int
    n_q: int
    n_c: int
    tsp: float
    eta: float

    def __post_init__(self):
        expected = intrinsic_efficiency(self.inputs())
        if abs(self.eta - expected) > _ETA_TOL:
            raise ValueError(
                f"eta {self.eta!r} disagrees with recomputed efficiency "
                f"{expected!r} for scheme {self.label!r}")

    def inputs(self) -> EfficiencyInputs:
        return EfficiencyInputs(self.n_s, self.n_q, self.n_c, self.tsp)


def tsp_formula(a1: float, b1: float) -> float:
    """Total success probability 4(a1 b1)^2 from the smaller coefficients."""
    for name, val in (("a1", a1), ("b1", b1)):
        if not math.isfinite(val) or abs(val) > SQRT_HALF + _BOUND_TOL:
            raise ValueError(
                f"{name} must satisfy |{name}| <= 1/sqrt(2), got {val!r}")
    return 4.0 * (a1 * b1) ** 2


def _plogp(w: float) -> float:
    return 0.0 if w <= 0.0 else -w * math.log2(w)


def shannon_entropy(f: float) -> float:
    """Binary entropy -f^2 log2 f^2 - (1-f^2) log2(1-f^2), with 0 log 0 = 0.

    Base 2 makes the entropy peak at exactly 1 when |f| = 1/sqrt(2), the
    maximally entangled point, which fixes the otherwise free log base.
    """
    if not math.isfinite(f) or abs(f) > SQRT_HALF + _BOUND_TOL:
        raise ValueError(f"f must satisfy |f| <= 1/sqrt(2), got {f!r}")
    w = f * f
    return _plogp(w) + _plogp(1.0 - w)


def intrinsic_efficiency(e: EfficiencyInputs) -> float:
    """Efficiency n_s/(n_q + n_c) weighted by the success probability."""
    return e.n_s / (e.n_q + e.n_c) * e.tsp


# Resource counts of previously reported schemes, stored as data with the
# efficiency recomputed.  The second row is the same reference realized over
# a different channel and carries the same citation label.
_COMPARISON_INPUTS = (
    ("Ref. [Y.B]", 12, 8, 1.0 / 16.0),
    ("Ref. [Y.B]", 12, 8, 1.0 / 16.0),
    ("Ref. [D.Wan6]", 8, 4, 0.25),
    ("Ref. [D.Wang5]", 8, 4, 0.25),
    ("Ref. [K.Hou333]", 8, 4, 0.25),
    ("Ref. [Y.B.11]", 12, 8, 1.0),
    ("Ref. [K.Hou]", 7, 3, 0.25),
    ("Current scheme", 8, 4, 1.0),
)


def comparison_table() -> list:
    """The eight comparison rows, all preparing a four-qubit state."""
    rows = []
    for label, n_q, n_c, tsp in _COMPARISON_INPUTS:
        inputs = EfficiencyInputs(4, n_q, n_c, tsp)
        rows.append(SchemeRow(label, 4, n_q, n_c, tsp,
                              intrinsic_efficiency(inputs)))
    return rows


def _axis(resolution: int) -> list:
    # Integer-indexed so the endpoints land exactly on 0 and 1/sqrt(2).
    return [k / (resolution - 1) * SQRT_HALF for k in range(resolution)]


def _check_resolution(resolution: int) -> None:
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be between 2 and the limit of "
                         f"{MAX_RESOLUTION}, got {resolution}")


def tsp_sweep(resolution: int) -> tuple:
    """Success probability on a uniform grid over [0, 1/sqrt(2)]^2.

    Returns (a1, b1, tsp) triples, row-major with a1 varying slowest.
    """
    _check_resolution(resolution)
    axis = _axis(resolution)
    return tuple((a1, b1, tsp_formula(a1, b1)) for a1 in axis for b1 in axis)


def entropy_curve(resolution: int) -> tuple:
    """Entropy on a sign-symmetric uniform grid over [-1/sqrt(2), 1/sqrt(2)].

    Grid points are built from integer offsets around the midpoint, so f and
    -f are exact negations and the curve's evenness holds bit for bit.
    """
    _check_resolution(resolution)
    span = resolution - 1
    grid = [(2 * k - span) / span * SQRT_HALF for k in range(resolution)]
    return tuple((f, shannon_entropy(f)) for f in grid)


def write_tsp_sweep_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["a1", "b1", "tsp"])
    for a1, b1, tsp in rows:
        writer.writerow([f"{a1:.12g}", f"{b1:.12g}", f"{tsp:.12g}"])


def write_entropy_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["f", "entropy"])
    for f, h in rows:
        writer.writerow([f"{f:.12g}", f"{h:.12g}"])


def write_comparison_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["label", "n_s", "n_q", "n_c", "tsp", "eta"])
    for r in rows:
        writer.writerow([r.label, r.n_s, r.n_q, r.n_c,
                         f"{r.tsp:.12g}", f"{r.eta:.12g}"])


def render_comparison_text(rows=None) -> str:
    """Aligned plain-text table with efficiencies as two-decimal percentages."""
    if rows is None:
        rows = comparison_table()
    cells = [("scheme", "n_s", "n_q", "n_c", "tsp", "eta")]
    for r in rows:
        cells.append((r.label, str(r.n_s), str(r.n_q), str(r.n_c),
                      f"{r.tsp:.12g}", f"{100.0 * r.eta:.2f}%"))
    widths = [max(len(row[k]) for row in cells) for k in range(6)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"
