"""Objects and stages of the remote-preparation protocol.

This module builds everything the five protocol steps consume: the four-qubit
cluster-type target family, the two GHZ-class channels with their controller
qubits, the sender's projective basis and phase-correction unitaries, the
receiver's Pauli-correction vocabulary and correction tables, and the
ancilla-coupled triplet unitaries.  Its stage functions are the one copy of
the steps that both the branch enumerator and the correction oracle run.

The sender's projection and phase correction (sender_stage) run on dense
state vectors, once per sector.  The rest of steps 1 to 3 needs no
StateVector: class_residuals stacks the four sector states into one array
and measures A2, A4 and the controllers on it as whole-array contractions.
Steps 4 and 5 need none either: a Pauli layer is a signed permutation of the
16 receiver amplitudes, and the triplet unitary with its ancilla in |0>
weights each amplitude by one diagonal entry of W or U.  Each of these
operators puts one nonzero product against exact zeros, so the contracted,
moved and weighted amplitudes equal a dense single-qubit replay bit for bit.

Conventions: amplitudes are real and channel coefficients satisfy
|a0| >= |a1| and |b0| >= |b1|; the sender holds A1..A4, the receiver holds
B1..B4 plus the ancilla B_A, and the controllers hold C1..Cn and D1..Dm.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

import numpy as np

from .statevec import (
    PLUS_MINUS,
    StateVector,
    amps_fidelity,
    apply,
    project,
    squared_norm,
    tensor,
)

__all__ = [
    "NORM_TOL",
    "SQRT_HALF",
    "SUCCESS_FIDELITY",
    "PROB_FLOOR",
    "MAX_CONTROLLERS",
    "LAYER_OPS",
    "BOB_QUBITS",
    "TargetState",
    "ChannelPair",
    "OutcomeKey",
    "PauliLayer",
    "CorrectionTable",
    "CLUSTER_TARGET",
    "all_outcome_keys",
    "build_target",
    "check_controller_count",
    "build_channels",
    "alice_basis",
    "alice_correction",
    "triplet_unitary",
    "triplet_weights",
    "sender_stage",
    "class_residuals",
    "layer_moves",
    "receiver_readouts",
    "default_derived_table",
    "published_correction_table",
]

NORM_TOL = 1e-9
SQRT_HALF = 1.0 / math.sqrt(2.0)

# A branch counts as a success when the receiver's residual matches the
# target at least this closely; exact branches sit at 1 up to roundoff.
SUCCESS_FIDELITY = 1.0 - 1e-9

# Branches lighter than this carry no usable state; their fidelity is
# recorded as 0.0 instead of normalizing a numerically empty vector.
PROB_FLOOR = 1e-250

# Largest n+m accepted.  An enumeration has 2^(n+m+4) records and writes
# 2^(n+m+5) CSV rows (2.1M rows at the limit); build_channels's dense
# register has 2^(8+n+m) amplitudes (256 MiB at the limit).
MAX_CONTROLLERS = 16

BOB_QUBITS = ("B1", "B2", "B3", "B4")

# "XZ" means apply X first and then Z; the opposite order differs only by a
# global phase, which no fidelity in this package can see.
LAYER_OPS = ("I", "X", "Z", "XZ")


@dataclass(frozen=True)
class TargetState:
    """Seven real parameters of the cluster-type target family.

    The target is alpha|0000> + beta e^{i phi0}|0011> + gamma e^{i phi1}|1100>
    + delta e^{i phi2}|1111> with alpha^2+beta^2+gamma^2+delta^2 = 1.  Phases
    are expected in [0, 2 pi] but any finite real value is accepted.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    phi0: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, self.delta,
                self.phi0, self.phi1, self.phi2)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("TargetState parameters must be finite")
        norm = self.alpha ** 2 + self.beta ** 2 + self.gamma ** 2 + self.delta ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(
                "amplitude normalization alpha^2+beta^2+gamma^2+delta^2 = 1 "
                f"violated (got {norm:.12g})")

    @classmethod
    def normalized(cls, alpha, beta, gamma, delta, phi0=0.0, phi1=0.0, phi2=0.0):
        """Construct after rescaling the four amplitudes to unit norm."""
        s = math.sqrt(alpha ** 2 + beta ** 2 + gamma ** 2 + delta ** 2)
        if s == 0.0:
            raise ValueError("all four amplitudes are zero")
        return cls(alpha / s, beta / s, gamma / s, delta / s, phi0, phi1, phi2)

    def coefficients(self) -> np.ndarray:
        """Amplitudes (t00, t01, t10, t11) on |0000>, |0011>, |1100>, |1111>."""
        return np.array([
            self.alpha,
            self.beta * np.exp(1j * self.phi0),
            self.gamma * np.exp(1j * self.phi1),
            self.delta * np.exp(1j * self.phi2),
        ])


CLUSTER_TARGET = TargetState(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, math.pi)


@dataclass(frozen=True)
class ChannelPair:
    """Real coefficients of the two GHZ-class channels plus controller counts.

    Channel 1 is a0|0...0> + a1|1...1> over (A1, A2, B1, B2, C1..Cn) and
    channel 2 is b0|0...0> + b1|1...1> over (A3, A4, B3, B4, D1..Dm).
    """

    a0: float
    a1: float
    b0: float
    b1: float
    n: int = 1
    m: int = 1

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"channel coefficient {name} must be a finite real")
        for name in ("n", "m"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"controller count {name} must be an integer >= 0")
        na = self.a0 ** 2 + self.a1 ** 2
        nb = self.b0 ** 2 + self.b1 ** 2
        if abs(na - 1.0) > NORM_TOL:
            raise ValueError(f"channel normalization a0^2+a1^2 = 1 violated (got {na:.12g})")
        if abs(nb - 1.0) > NORM_TOL:
            raise ValueError(f"channel normalization b0^2+b1^2 = 1 violated (got {nb:.12g})")
        if abs(self.a0) < abs(self.a1):
            raise ValueError(
                f"channel bound |a0| >= |a1| violated (a0={self.a0:.12g}, a1={self.a1:.12g})")
        if abs(self.b0) < abs(self.b1):
            raise ValueError(
                f"channel bound |b0| >= |b1| violated (b0={self.b0:.12g}, b1={self.b1:.12g})")


@dataclass(frozen=True, order=True)
class OutcomeKey:
    """The six classical bits (i, j, p, q, g, h) that key Bob's correction."""

    i: int
    j: int
    p: int
    q: int
    g: int
    h: int

    def __post_init__(self):
        for name in ("i", "j", "p", "q", "g", "h"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"outcome bit {name} must be 0 or 1")

    def bits(self) -> str:
        return f"{self.i}{self.j}{self.p}{self.q}{self.g}{self.h}"

    @classmethod
    def from_bits(cls, s: str) -> "OutcomeKey":
        if len(s) != 6 or any(ch not in "01" for ch in s):
            raise ValueError(f"outcome key must be six 0/1 characters, got {s!r}")
        return cls(*(int(ch) for ch in s))


def all_outcome_keys() -> tuple:
    """All 64 keys in lexicographic ijpqgh order."""
    out = []
    for idx in range(64):
        out.append(OutcomeKey.from_bits(format(idx, "06b")))
    return tuple(out)


@dataclass(frozen=True)
class PauliLayer:
    """One correction operator per receiver qubit (B1, B2, B3, B4)."""

    ops: tuple

    def __post_init__(self):
        if len(self.ops) != 4 or any(op not in LAYER_OPS for op in self.ops):
            raise ValueError(
                f"layer must hold four ops from {LAYER_OPS}, got {self.ops!r}")

    def label(self) -> str:
        return ",".join(self.ops)

    @classmethod
    def from_label(cls, s: str) -> "PauliLayer":
        return cls(tuple(s.split(",")))

    def moves(self) -> tuple:
        """The layer as a signed permutation of the 16 amplitudes over
        BOB_QUBITS, B1 most significant: (dest, sign), int arrays indexed by
        source amplitude.  X flips its qubit's bit and Z negates where that
        bit is 1 after the flip ("XZ" is X, then Z)."""
        flips = sum(8 >> q for q, op in enumerate(self.ops) if "X" in op)
        phases = sum(8 >> q for q, op in enumerate(self.ops) if "Z" in op)
        dest = np.arange(16) ^ flips
        negated = dest & phases
        negated ^= negated >> 2
        negated ^= negated >> 1
        return dest, 1 - 2 * (negated & 1)


def build_target(t: TargetState, labels=BOB_QUBITS) -> StateVector:
    """The target state as a four-qubit StateVector."""
    amps = np.zeros(16, dtype=complex)
    c = t.coefficients()
    amps[0b0000] = c[0]
    amps[0b0011] = c[1]
    amps[0b1100] = c[2]
    amps[0b1111] = c[3]
    return StateVector(labels, amps, copy=False)


def check_controller_count(c: ChannelPair) -> None:
    """Raise ValueError if n+m exceeds MAX_CONTROLLERS."""
    if c.n + c.m > MAX_CONTROLLERS:
        raise ValueError(
            f"n+m = {c.n + c.m} controllers exceeds the dense-register limit "
            f"of {MAX_CONTROLLERS} (2^{8 + MAX_CONTROLLERS} amplitudes)")


def build_channels(c: ChannelPair) -> StateVector:
    """Tensor product of the two GHZ-class channels; refuses n+m > MAX_CONTROLLERS."""
    check_controller_count(c)
    ch1 = ("A1", "A2", "B1", "B2") + tuple(f"C{k + 1}" for k in range(c.n))
    ch2 = ("A3", "A4", "B3", "B4") + tuple(f"D{k + 1}" for k in range(c.m))
    amps1 = np.zeros(2 ** len(ch1), dtype=complex)
    amps1[0] = c.a0
    amps1[-1] = c.a1
    amps2 = np.zeros(2 ** len(ch2), dtype=complex)
    amps2[0] = c.b0
    amps2[-1] = c.b1
    return tensor(StateVector(ch1, amps1, copy=False),
                  StateVector(ch2, amps2, copy=False))


def alice_basis(t: TargetState) -> np.ndarray:
    """Sender's projective basis on (A1, A3) as a unitary 4x4 matrix.

    Row r = 2i+j holds the ket expansion of basis vector (i, j) over
    |00>, |01>, |10>, |11>; the rows are orthonormal for every valid target.
    """
    a, b, g, d = t.alpha, t.beta, t.gamma, t.delta
    e0 = np.exp(-1j * t.phi0)
    e1 = np.exp(-1j * t.phi1)
    e2 = np.exp(-1j * t.phi2)
    return np.array([
        [a, b * e0, g * e1, d * e2],
        [b, -a * e0, d * e1, -g * e2],
        [g, -d * e0, -a * e1, b * e2],
        [d, g * e0, -b * e1, -a * e2],
    ])


def _check_bit(name: str, v: int) -> None:
    if v not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {v!r}")


def alice_correction(i: int, j: int, t: TargetState) -> np.ndarray:
    """Sender's diagonal phase correction on (A2, A4) for outcome (i, j)."""
    _check_bit("i", i)
    _check_bit("j", j)
    p0, p1, p2 = t.phi0, t.phi1, t.phi2
    e = lambda x: np.exp(1j * x)
    if (i, j) == (0, 0):
        diag = [1.0, 1.0, 1.0, 1.0]
    elif (i, j) == (0, 1):
        diag = [e(p0), -e(-p0), e(p2 - p1), -e(p1 - p2)]
    elif (i, j) == (1, 0):
        diag = [e(p1), -e(p2 - p0), -e(-p1), e(p0 - p2)]
    else:
        diag = [e(p2), e(p1 - p0), -e(p0 - p1), -e(-p2)]
    return np.diag(np.asarray(diag, dtype=complex))


# Diagonal pattern of the W block per (i, j); entries are ratios of channel
# coefficients and the position within the block is the (B1, B3) bit pair.
_W_PATTERN = {
    (0, 0): ("ab", "a", "b", "1"),
    (0, 1): ("a", "ab", "1", "b"),
    (1, 0): ("b", "1", "ab", "a"),
    (1, 1): ("1", "b", "a", "ab"),
}


def triplet_unitary(i: int, j: int, c: ChannelPair) -> np.ndarray:
    """Receiver's collective unitary on (ancilla, B1, B3) for outcome (i, j).

    Returned as an 8x8 block matrix [[W, U], [U, -W]] where the block index
    is the ancilla bit, i.e. basis index = 4*b_A + 2*b_B1 + b_B3.  Apply it
    with targets (B_A, B1, B3).  Capturing the ancilla in |0> rescales every
    surviving component to the common weight a1*b1.
    """
    _check_bit("i", i)
    _check_bit("j", j)
    ra = c.a1 / c.a0
    rb = c.b1 / c.b0
    vals = {"ab": ra * rb, "a": ra, "b": rb, "1": 1.0}
    w = np.array([vals[k] for k in _W_PATTERN[(i, j)]], dtype=float)
    u = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4] = np.diag(w)
    out[:4, 4:] = np.diag(u)
    out[4:, :4] = np.diag(u)
    out[4:, 4:] = -np.diag(w)
    return out


def triplet_weights(i: int, j: int, c: ChannelPair) -> np.ndarray:
    """Steps 4b and 5 on the 16 amplitudes over BOB_QUBITS: a (2, 16) real
    array whose row a weights each amplitude when the ancilla, brought in as
    |0>, is read as a.  Row 0 is the diagonal of triplet_unitary's W block
    and row 1 that of its U block, each at the amplitude's (B1, B3) bits."""
    v = triplet_unitary(i, j, c)
    amp = np.arange(16)
    pair = ((amp >> 2) & 2) | ((amp >> 1) & 1)
    return np.array([v[:4, :4].diagonal(), v[4:, :4].diagonal()]).real[:, pair]


@dataclass(frozen=True)
class CorrectionTable:
    """A total, read-only map from the 64 outcome keys to Pauli layers.

    Its text form has one row 'ijpqgh opB1,opB2,opB3,opB4' per key, in key
    order; from_text parses it and to_text renders it.
    """

    entries: MappingProxyType
    provenance: str  # "derived" or "paper"

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        missing = [k for k in all_outcome_keys() if k not in self.entries]
        if missing or len(self.entries) != 64:
            raise ValueError(
                f"correction table must cover all 64 keys ({len(missing)} missing)")

    def __getitem__(self, key: OutcomeKey) -> PauliLayer:
        return self.entries[key]

    def to_text(self) -> str:
        return "".join(f"{key.bits()} {self.entries[key].label()}\n"
                       for key in sorted(self.entries))

    def to_file(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str, provenance: str) -> "CorrectionTable":
        entries = {}
        for ln in text.splitlines():
            parts = ln.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"malformed table row {ln.strip()!r}")
            key = OutcomeKey.from_bits(parts[0])
            if key in entries:
                raise ValueError(f"duplicate key {parts[0]} in correction table")
            entries[key] = PauliLayer.from_label(parts[1])
        return cls(entries, provenance)


@lru_cache(maxsize=None)
def _shipped_table(resource: str, provenance: str) -> CorrectionTable:
    ref = resources.files(__package__).joinpath("data", resource)
    return CorrectionTable.from_text(ref.read_text(encoding="ascii"), provenance)


def default_derived_table() -> CorrectionTable:
    """The shipped derived table; regenerate with oracle.derive_correction_table()."""
    return _shipped_table("derived_corrections.txt", "derived")


def published_correction_table() -> CorrectionTable:
    """The correction table as printed in the published protocol description.

    The table is shipped verbatim, including its internally inconsistent
    rows; use the oracle module to audit it against a derived table.
    """
    return _shipped_table("published_corrections.txt", "paper")


def sender_stage(psi: StateVector, rows: np.ndarray, i: int, j: int,
                 t: TargetState):
    """Steps 1 and 2a: project (A1, A3) onto row 2i+j of rows, then apply the
    phase correction on (A2, A4); returns the sector state and its probability."""
    sector, prob = project(psi, ("A1", "A3"), rows, 2 * i + j)
    return apply(sector, alice_correction(i, j, t), ("A2", "A4")), prob


def class_residuals(t: TargetState, c: ChannelPair) -> tuple:
    """Steps 1 to 3 once per parity class: (classes, residuals, step1).

    classes holds the physical (i, j, p, q, g, h) in lexicographic order, g
    and h the parities; row k of the (len(classes), 16) array residuals is
    class k's unnormalized residual over BOB_QUBITS; step1[2i + j] is the
    step-1 probability of sector (i, j).

    Every record of a class leaves the same residual, since the receiver uses
    controller bits only through their parity.  The four sector states live
    on a register with min(n, 1) and min(m, 1) controllers, stacked into one
    array; A2, A4, C1 and D1 are then measured in turn, both outcomes of each
    at once, and the array is rescaled by 1/sqrt(2) per further controller.
    That is bit-identical to a projection of every controller on the full
    2^(8+n+m) register: in a GHZ-class channel each X-basis readout
    multiplies every surviving amplitude by +-1/sqrt(2) against an
    exact-zero partner, and sign changes are exact.
    """
    n1, m1 = min(c.n, 1), min(c.m, 1)
    psi = build_channels(replace(c, n=n1, m=m1))
    rows = alice_basis(t)
    measured = ("A2", "A4") + ("C1",) * n1 + ("D1",) * m1
    sectors = [sender_stage(psi, rows, i, j, t) for i in (0, 1) for j in (0, 1)]
    labels = sectors[0][0].labels
    axes = [1 + labels.index(lbl) for lbl in measured + BOB_QUBITS]
    amps = np.stack([state.amps for state, _ in sectors])
    amps = amps.reshape((4,) + (2,) * len(labels)).transpose([0] + axes)
    bras = np.conj(PLUS_MINUS)  # bras[outcome, bit]
    for _ in measured:
        # (classes, measured bit, rest) -> (classes, outcome, rest).  At each
        # index one of the two bits holds an exact zero, so every output is
        # the one +-1/sqrt(2) product that project's tensordot forms.
        x = amps.reshape(len(amps), 2, -1)
        amps = bras[:, :1] * x[:, None, 0] + bras[:, 1:] * x[:, None, 1]
        amps = amps.reshape(2 * len(x), -1)
    for _ in range(c.n + c.m - n1 - m1):
        amps *= SQRT_HALF
    classes = tuple((i, j, p, q, bits[0] if c.n else 0, bits[-1] if c.m else 0)
                    for i, j, p, q, *bits
                    in itertools.product((0, 1), repeat=2 + len(measured)))
    return classes, amps, tuple(prob for _, prob in sectors)


@lru_cache(maxsize=None)
def layer_moves(layer: PauliLayer) -> tuple:
    """layer.moves(), computed once per distinct layer (at most 256) and
    kept read-only."""
    moves = layer.moves()
    for arr in moves:
        arr.setflags(write=False)
    return moves


def receiver_readouts(residual: np.ndarray, layer: PauliLayer,
                      weights: np.ndarray, target: np.ndarray) -> tuple:
    """Steps 4 and 5 for one residual over BOB_QUBITS: move its amplitudes
    through the layer's moves, then weight them by each row of weights (from
    triplet_weights).  Returns (probability, fidelity with the target
    amplitudes) per ancilla readout; the fidelity is 0.0 at or below
    PROB_FLOOR."""
    dest, sign = layer_moves(layer)
    moved = np.zeros(16, dtype=complex)
    moved[dest] = sign * residual
    out = []
    for row in weights:
        state = moved * row
        prob = squared_norm(state)
        out.append((prob, amps_fidelity(state, target) if prob > PROB_FLOOR else 0.0))
    return tuple(out)
