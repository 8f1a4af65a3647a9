"""Dense complex state-vector and operator algebra over named qubit registers.

Index convention is big-endian throughout: the first label of a register owns
the most significant bit of the amplitude index, and the first target handed
to an operator owns the operator's most significant bit.  Projection residuals
are never renormalized; their squared norm is the accumulated probability of
the measurement record that produced them, which keeps downstream probability
bookkeeping exact.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ORTHO_TOL",
    "UNITARY_TOL",
    "KET0",
    "KET1",
    "PLUS",
    "MINUS",
    "COMPUTATIONAL",
    "PLUS_MINUS",
    "StateVector",
    "basis_state",
    "tensor",
    "reorder",
    "apply",
    "project",
    "squared_norm",
    "fidelity",
    "amps_fidelity",
    "is_unitary",
]

ORTHO_TOL = 1e-10
UNITARY_TOL = 1e-12

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

# single-qubit measurement bases; outcome index is the position in the tuple
COMPUTATIONAL = (KET0, KET1)
PLUS_MINUS = (PLUS, MINUS)


class StateVector:
    """Complex amplitudes over an ordered register of named qubits.

    Instances are treated as immutable: the amplitude buffer is marked
    read-only on construction and every operation returns a new instance.
    """

    __slots__ = ("labels", "amps")

    def __init__(self, labels, amps, *, copy=True):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels!r}")
        if copy:
            arr = np.array(amps, dtype=complex).reshape(-1)
        else:
            arr = np.asarray(amps, dtype=complex).reshape(-1)
        if arr.size != 2 ** len(labels):
            raise ValueError(
                f"{len(labels)} labels require {2 ** len(labels)} amplitudes, "
                f"got {arr.size}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("amplitudes must be finite")
        arr.setflags(write=False)
        self.labels = labels
        self.amps = arr

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    @property
    def squared_norm(self) -> float:
        return squared_norm(self.amps)

    def normalized(self) -> "StateVector":
        n2 = self.squared_norm
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.labels, self.amps / np.sqrt(n2), copy=False)

    def amplitude(self, bits) -> complex:
        """Amplitude of one computational basis state, bits given per label."""
        bits = tuple(bits)
        if len(bits) != self.num_qubits or any(b not in (0, 1) for b in bits):
            raise ValueError(f"need {self.num_qubits} bits of 0/1, got {bits!r}")
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return complex(self.amps[idx])

    def __repr__(self) -> str:
        return f"StateVector(labels={self.labels!r}, dim={self.amps.size})"


def basis_state(labels, bits) -> StateVector:
    """Computational basis state |bits> over the given labels."""
    labels = tuple(labels)
    bits = tuple(bits)
    if len(bits) != len(labels) or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need one 0/1 bit per label, got {bits!r}")
    amps = np.zeros(2 ** len(labels), dtype=complex)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    amps[idx] = 1.0
    return StateVector(labels, amps, copy=False)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's labels come first and stay most significant."""
    shared = set(a.labels) & set(b.labels)
    if shared:
        raise ValueError(f"registers share labels {sorted(shared)!r}")
    return StateVector(a.labels + b.labels, np.kron(a.amps, b.amps), copy=False)


def reorder(state: StateVector, new_label_order) -> StateVector:
    """Same state expressed over a permuted label order."""
    new = tuple(new_label_order)
    if len(new) != len(state.labels) or set(new) != set(state.labels) \
            or len(set(new)) != len(new):
        raise ValueError(f"{new!r} is not a permutation of {state.labels!r}")
    if new == state.labels:
        return state
    k = len(new)
    perm = [state.labels.index(lbl) for lbl in new]
    amps = state.amps.reshape((2,) * k).transpose(perm).reshape(-1)
    return StateVector(new, amps, copy=False)


def _target_axes(state: StateVector, targets) -> list:
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target labels in {targets!r}")
    axes = []
    for lbl in targets:
        if lbl not in state.labels:
            raise ValueError(f"label {lbl!r} not in register {state.labels!r}")
        axes.append(state.labels.index(lbl))
    return axes


def apply(state: StateVector, op, targets) -> StateVector:
    """Apply a dense operator to the listed target qubits.

    The first target corresponds to the most significant bit of the
    operator's row and column indices.
    """
    targets = tuple(targets)
    axes = _target_axes(state, targets)
    nt = len(targets)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2 ** nt, 2 ** nt):
        raise ValueError(
            f"operator shape {op.shape} does not act on {nt} qubit(s)")
    if not np.isfinite(op).all():
        raise ValueError("operator entries must be finite")
    k = state.num_qubits
    psi = state.amps.reshape((2,) * k)
    opt = op.reshape((2,) * (2 * nt))
    out = np.tensordot(opt, psi, axes=(tuple(range(nt, 2 * nt)), tuple(axes)))
    out = np.moveaxis(out, tuple(range(nt)), tuple(axes))
    return StateVector(state.labels, out.reshape(-1), copy=False)


def _check_orthonormal(vecs: np.ndarray, tol: float) -> None:
    gram = vecs.conj() @ vecs.T
    if np.max(np.abs(gram - np.eye(vecs.shape[0]))) > tol:
        raise ValueError(f"basis is not orthonormal within {tol:g}")


# The module's own bases are checked once, here, at ORTHO_TOL, and their
# vectors made read-only so that the check stays true: project skips them
# unless asked for a tighter tol.  Bases that callers build are checked on
# every call.
_CHECKED_BASES = (COMPUTATIONAL, PLUS_MINUS)
for _basis in _CHECKED_BASES:
    for _vec in _basis:
        _vec.setflags(write=False)
    _check_orthonormal(np.asarray(_basis), ORTHO_TOL)
del _basis, _vec


def project(state: StateVector, targets, basis, outcome, *, tol: float = ORTHO_TOL):
    """Project the target qubits onto one vector of an orthonormal basis.

    Returns (residual, probability).  The residual lives on the remaining
    labels in their original order and is left unnormalized, so its squared
    norm equals the returned probability even when the input state was itself
    an unnormalized residual.  A basis other than the module's COMPUTATIONAL
    and PLUS_MINUS is checked for orthonormality on every call.
    """
    targets = tuple(targets)
    axes = _target_axes(state, targets)
    nt = len(targets)
    dim = 2 ** nt
    vecs = np.asarray(basis, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != dim:
        raise ValueError(
            f"basis must be a list of vectors of length {dim}, got shape {vecs.shape}")
    if not (0 <= outcome < vecs.shape[0]):
        raise ValueError(f"outcome {outcome} out of range for {vecs.shape[0]} basis vectors")
    if tol < ORTHO_TOL or not any(basis is b for b in _CHECKED_BASES):
        _check_orthonormal(vecs, tol)
    k = state.num_qubits
    psi = state.amps.reshape((2,) * k)
    bra = vecs[outcome].conj().reshape((2,) * nt)
    res = np.tensordot(bra, psi, axes=(tuple(range(nt)), tuple(axes))).reshape(-1)
    remaining = tuple(lbl for lbl in state.labels if lbl not in targets)
    residual = StateVector(remaining, res, copy=False)
    return residual, residual.squared_norm


def squared_norm(amps: np.ndarray) -> float:
    """<a|a> of a 1-D amplitude array, as a float."""
    return float(np.real(np.vdot(amps, amps)))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 with both states normalized; label order is reconciled."""
    if set(a.labels) != set(b.labels):
        raise ValueError(
            f"fidelity needs matching label sets, got {a.labels!r} and {b.labels!r}")
    if b.labels != a.labels:
        b = reorder(b, a.labels)
    return amps_fidelity(a.amps, b.amps)


def amps_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """fidelity of two 1-D amplitude arrays over one register order."""
    na2 = squared_norm(a)
    nb2 = squared_norm(b)
    if na2 <= 0.0 or nb2 <= 0.0:
        raise ValueError("fidelity of a zero state is undefined")
    ov = np.vdot(a, b)
    f = float((ov * ov.conjugate()).real / (na2 * nb2))
    return min(max(f, 0.0), 1.0)


def is_unitary(op, tol: float = UNITARY_TOL) -> bool:
    """True iff op is square and max |op op^dag - I| <= tol."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    dev = op @ op.conj().T - np.eye(op.shape[0])
    return bool(np.max(np.abs(dev)) <= tol)
