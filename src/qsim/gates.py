"""Gate matrices and their in-place application to state vectors, by structure.

Controls carry a polarity: ``(qubit, 1)`` activates on |1> (filled circle),
``(qubit, 0)`` on |0> (empty circle). Multi-target gates map bit j of the
gate's own index space to ``targets[j]``, most significant first.

Every matrix is classified once as diagonal, a 0/1 permutation or dense, and
``apply_kernel`` picks the kernel from that kind: a diagonal multiplies only
its non-unit slices, a permutation exchanges slices, a dense 1-qubit matrix
updates the two half-views, and a dense k-qubit matrix is one (batched) matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import StateVector, _subspace

UNITARY_ATOL = 1e-10

_SQ2 = 1.0 / np.sqrt(2.0)
# multiply-adds per product of a block tile: a product OpenBLAS runs on
# several threads can stall 8 ms waking them (seen at 16x16 @ 16x256 and up
# on a 2-vCPU host), while a batch of small products runs on the caller's thread
_GEMM_SIZE = 1 << 14


def classify(matrix: np.ndarray) -> str:
    """Kernel kind of a unitary: "diag", "perm" (every entry exactly 0 or 1) or "dense"."""
    if np.count_nonzero(matrix) == np.count_nonzero(matrix.diagonal()):
        return "diag"
    if np.count_nonzero((matrix == 0) | (matrix == 1)) == matrix.size:
        return "perm"
    return "dense"


def is_unitary(m, tol: float = UNITARY_ATOL) -> bool:
    """Max-norm check of m†m = I."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("unitarity is defined for square matrices")
    delta = m.conj().T @ m - np.eye(m.shape[0])
    return bool(np.max(np.abs(delta)) <= tol)


@dataclass(frozen=True)
class Gate:
    """Named unitary block acting on ``arity`` qubits."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        dim = matrix.shape[0]
        if matrix.ndim != 2 or matrix.shape != (dim, dim) or dim & (dim - 1) or dim < 2:
            raise ValueError("gate matrix must be square with power-of-two dimension")
        if not is_unitary(matrix):
            raise ValueError(f"gate {self.name!r} is not unitary")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_kind", classify(matrix))

    @property
    def arity(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1


@dataclass(frozen=True)
class GateApplication:
    """A gate bound to target qubits plus polarity-tagged control qubits."""

    gate: Gate
    targets: tuple
    controls: tuple = ()

    def __post_init__(self):
        targets = tuple(self.targets)
        controls = tuple((int(q), int(v)) for q, v in self.controls)
        if len(targets) != self.gate.arity:
            raise ValueError(f"gate {self.gate.name!r} wants {self.gate.arity} targets")
        touched = list(targets) + [q for q, _ in controls]
        if len(set(touched)) != len(touched):
            raise ValueError("target and control qubits must be pairwise disjoint")
        if any(v not in (0, 1) for _, v in controls):
            raise ValueError("control polarity must be 0 or 1")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)

    def qubits(self):
        return list(self.targets) + [q for q, _ in self.controls]


_STANDARD = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
    "S": np.array([[1, 0], [0, 1j]]),
    "Sdg": np.array([[1, 0], [0, -1j]]),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]]),
    "Tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]]),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def standard_gate(name: str) -> Gate:
    """One of I, X, Y, Z, H, S, Sdg, T, Tdg, SWAP."""
    try:
        matrix = _STANDARD[name]
    except KeyError:
        raise ValueError(f"unknown standard gate {name!r}") from None
    return Gate(name, np.asarray(matrix, dtype=complex))


def u_gate(theta: float, phi: float, lam: float) -> Gate:
    """General single-qubit gate U(theta, phi, lambda)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    matrix = np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (lam + phi)) * c]]
    )
    return Gate("U", matrix)


def rx(theta: float) -> Gate:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return Gate("Rx", np.array([[c, -1j * s], [-1j * s, c]]))


def ry(theta: float) -> Gate:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return Gate("Ry", np.array([[c, -s], [s, c]]))


def rz(phi: float) -> Gate:
    # carries the e^{-i phi/2} prefactor of the printed matrix
    return Gate("Rz", np.array([[np.exp(-1j * phi / 2), 0], [0, np.exp(1j * phi / 2)]]))


def rk_phase(k: int) -> Gate:
    """Diagonal phase gate diag(1, e^{2 pi i / 2^k}); R1=Z, R2=S, R3=T."""
    if k < 0:
        raise ValueError("phase index must be nonnegative")
    return Gate(f"R{k}", np.array([[1, 0], [0, np.exp(2j * np.pi / (1 << k))]]))


def dagger(g: Gate) -> Gate:
    return Gate(g.name + "dg", g.matrix.conj().T)


def apply_kernel(amps: np.ndarray, num_qubits: int, kind: str, matrix, targets, controls=()) -> None:
    """In-place application of ``matrix``, of structure ``kind``, to ``targets`` under ``controls``.

    ``amps`` may carry extra trailing axes (e.g. a batch of columns); only the
    leading ``num_qubits`` binary axes are touched. Amplitudes whose control
    bits do not match are left bit-identical.
    """
    k = len(targets)
    lo = targets[0]
    if kind == "dense" and k > 1 and not controls and tuple(targets) == tuple(range(lo, lo + k)):
        # adjacent targets: the (before, block, after) view needs no moveaxis copy;
        # its columns are cut into tiles so that every product stays small
        view = amps.reshape(1 << lo, 1 << k, -1)
        cols = math.gcd(view.shape[2], _GEMM_SIZE >> 2 * k)
        tiles = view.reshape(1 << lo, 1 << k, -1, cols).swapaxes(1, 2)
        tiles[...] = np.matmul(matrix, tiles)
        return
    # the extra unit axis keeps every slice an array, even one amplitude
    moved = _subspace(amps[..., None], num_qubits, targets, controls)
    if kind == "diag":
        for index, d in zip(np.ndindex(*[2] * k), np.diagonal(matrix)):
            if d != 1:
                moved[index] *= d
    elif kind == "perm":
        slices = list(np.ndindex(*[2] * k))  # slice i of moved holds gate index i
        source = np.argmax(matrix, axis=1)  # row i takes the slice at source[i]
        done = set()
        for start in range(1 << k):
            if start in done or source[start] == start:
                continue
            cycle = [start]
            while source[cycle[-1]] != start:
                cycle.append(int(source[cycle[-1]]))
            done.update(cycle)
            first = moved[slices[start]].copy()
            for dst, src in zip(cycle, cycle[1:]):
                moved[slices[dst]] = moved[slices[src]]
            moved[slices[cycle[-1]]] = first
    elif k == 1:
        (m00, m01), (m10, m11) = matrix
        a, b = moved[0], moved[1]
        # m00*a + m01*b and m10*a + m11*b, with the products in that order
        new_a = a * m00
        term = b * m01
        new_a += term
        np.multiply(a, m10, out=term)
        b *= m11
        b += term
        a[...] = new_a
    else:
        flat = moved.reshape(1 << k, -1)
        moved[...] = (matrix @ flat).reshape(moved.shape)


def apply_to_array(amps: np.ndarray, num_qubits: int, app: GateApplication) -> None:
    """In-place application of ``app`` to ``amps`` by the kernel of its gate's kind."""
    for q in app.qubits():
        if q < 0 or q >= num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits}-qubit state")
    apply_kernel(amps, num_qubits, app.gate._kind, app.gate.matrix, app.targets, app.controls)


def apply(s, app: GateApplication):
    """Apply a controlled gate, returning a fresh state vector."""
    amps = s.amps.copy()
    apply_to_array(amps, s.num_qubits, app)
    return StateVector(s.num_qubits, amps)
