"""Complex state vectors, tensor composition, measurement, and entanglement checks.

A state over ``n`` qubits is a normalized complex vector of length ``2**n``.
Qubit 0 is the MOST significant bit of the basis index, i.e. the leftmost
symbol of the ket, matching the usual textbook reading order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORM_ATOL = 1e-10


def _bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _subspace(amps: np.ndarray, num_qubits: int, targets, controls) -> np.ndarray:
    """View of ``amps`` with the control bits fixed and ``targets`` moved to the front.

    The result has one length-2 axis per target, in ``targets`` order, followed
    by the uncontrolled non-target qubits and any trailing batch axes of
    ``amps``. Writing to it writes through to ``amps``.
    """
    tensor = amps.reshape([2] * num_qubits + list(amps.shape[1:]))
    index = [slice(None)] * num_qubits
    for q, v in controls:
        index[q] = v
    control_qubits = {q for q, _ in controls}
    remaining = [q for q in range(num_qubits) if q not in control_qubits]
    positions = [remaining.index(t) for t in targets]
    # the trailing Ellipsis keeps a view even when every axis is fixed
    return np.moveaxis(tensor[(*index, ...)], positions, range(len(positions)))


class StateVector:
    """Normalized amplitude vector over the 2**n computational basis states."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps):
        if num_qubits < 1:
            raise ValueError("a state needs at least one qubit")
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        # a non-finite amplitude makes the norm non-finite, so only then is each amplitude scanned
        if not np.isfinite(norm) and not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state is not normalized (norm {norm})")
        # keep the invariant tight rather than trusting accumulated arithmetic
        if abs(norm - 1.0) > NORM_ATOL:
            amps = amps / norm
        self.num_qubits = num_qubits
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a (partial) computational-basis measurement with collapse."""

    measured_qubits: tuple
    outcome: str
    probability: float
    post_state: StateVector


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exact probabilities or shot counts, indexed by a register's basis integer."""

    kind: str
    values: np.ndarray
    shots: int | None = None

    def __post_init__(self):
        values = np.array(self.values)
        if values.ndim != 1 or values.size & (values.size - 1) or not values.size:
            raise ValueError(f"expected one value per basis state, got shape {values.shape}")
        if self.kind == "exact":
            total = values.sum()
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"exact probabilities sum to {total}, not 1")
            if self.shots is not None:
                raise ValueError("exact distributions carry no shot count")
        elif self.kind == "sampled":
            if self.shots is None or values.sum() != self.shots:
                raise ValueError("sampled counts must sum to the shot count")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.values.size.bit_length() - 1

    @cached_property
    def entries(self) -> dict:
        """{bitstring: value} over every outcome of a law, or the outcomes a sample saw; built once."""
        width, values = self.width, self.values
        seen = np.flatnonzero(values > 0) if self.kind == "sampled" else np.arange(values.size)
        return {_bitstring(i, width): v for i, v in zip(seen.tolist(), values[seen].tolist())}

    def prob(self, bits: str) -> float:
        """The value at ``bits``; 0.0 for an outcome never seen or a malformed bitstring."""
        index = int(bits, 2) if isinstance(bits, str) and bits and set(bits) <= {"0", "1"} else -1
        found = 0 <= index < self.values.size and _bitstring(index, self.width) == bits
        return self.values.item(index) if found else 0.0

    def support(self, tol: float = 1e-12) -> set:
        return {_bitstring(i, self.width) for i in np.flatnonzero(self.values > tol)}


def basis_state(n: int, x: int) -> StateVector:
    """Computational basis ket |x> on n qubits."""
    if n < 1:
        raise ValueError("a state needs at least one qubit")
    if not 0 <= x < (1 << n):
        raise ValueError(f"basis index {x} out of range for {n} qubits")
    amps = np.zeros(1 << n, dtype=complex)
    amps[x] = 1.0
    return StateVector(n, amps)


def kron(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the leading (leftmost) ones."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amps, b.amps))


def probabilities(s: StateVector) -> Distribution:
    """Exact outcome distribution over every basis string."""
    probs = np.abs(s.amps) ** 2
    return Distribution("exact", probs / probs.sum())


def marginal_probs(s: StateVector, qubits) -> np.ndarray:
    """Exact marginal over ``qubits`` (ascending index order), as an array."""
    n = s.num_qubits
    qubits = sorted(qubits)
    probs = (np.abs(s.amps) ** 2).reshape([2] * n)
    keep = set(qubits)
    drop = tuple(q for q in range(n) if q not in keep)
    if drop:
        probs = probs.sum(axis=drop)
    return probs.reshape(-1)


def measure(s: StateVector, qubits, rng: np.random.Generator) -> MeasurementRecord:
    """Measure ``qubits`` in the computational basis, collapsing the state."""
    n = s.num_qubits
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("measured qubits must be distinct")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("measured qubit out of range")
    qubits = sorted(qubits)
    k = len(qubits)

    marg = marginal_probs(s, qubits)
    total = marg.sum()
    if total <= 0:
        raise RuntimeError("all outcomes have zero probability; state invariant broken")
    outcome_index = int(rng.choice(1 << k, p=marg / total))
    prob = float(marg[outcome_index])

    outcome = [(q, (outcome_index >> (k - 1 - j)) & 1) for j, q in enumerate(qubits)]
    post = np.zeros_like(s.amps)
    _subspace(post, n, (), outcome)[...] = _subspace(s.amps, n, (), outcome)
    post = post / np.linalg.norm(post)

    return MeasurementRecord(
        measured_qubits=tuple(qubits),
        outcome=_bitstring(outcome_index, k),
        probability=prob,
        post_state=StateVector(n, post),
    )


def schmidt_rank(s: StateVector, left_qubits, tol: float = 1e-8) -> int:
    """Rank of the bipartite coefficient matrix; 1 iff the cut is a product."""
    n = s.num_qubits
    left = sorted(set(left_qubits))
    if not left or len(left) >= n:
        raise ValueError("left_qubits must be a proper nonempty subset")
    right = [q for q in range(n) if q not in left]
    tensor = s.amps.reshape([2] * n)
    matrix = np.transpose(tensor, left + right).reshape(1 << len(left), -1)
    return int(np.linalg.matrix_rank(matrix, tol=tol))


def bloch_angles(s: StateVector, tol: float = 1e-9) -> tuple:
    """Spherical angles (theta, phi) of a single-qubit state, global phase dropped."""
    if s.num_qubits != 1:
        raise ValueError("bloch_angles is defined for single-qubit states")
    alpha, beta = s.amps
    r0 = min(abs(alpha), 1.0)
    theta = 2.0 * np.arccos(r0)
    if abs(beta) < tol or np.sin(theta / 2) < tol:
        return float(theta), 0.0
    if abs(alpha) < tol:
        return float(np.pi), 0.0
    phi = float(np.mod(np.angle(beta) - np.angle(alpha), 2 * np.pi))
    return float(theta), phi
