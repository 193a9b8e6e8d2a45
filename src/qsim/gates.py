"""Gate matrices, circuit operators, and their in-place application to state vectors.

Controls carry a polarity: ``(qubit, 1)`` activates on |1> (filled circle),
``(qubit, 0)`` on |0> (empty circle). Multi-target gates map bit j of the
gate's own index space to ``targets[j]``, most significant first.

An operator has ``arity``, ``name``, ``power(e)``, a kernel kind ``_kind`` and
a kernel operand ``_operand``: a ``Gate`` (its matrix), a PermutationOracle
(its mapping, kind "map") or counting's step (itself, kind "call").
``apply_kernel`` is the one code path that changes amplitudes. A matrix is
classified once: a diagonal multiplies only its non-unit slices, a 0/1
permutation exchanges slices, a dense 1-qubit matrix updates the two
half-views, and a dense k-qubit matrix is a batch of small matmuls (real
ones on the float view of the amplitudes when the matrix is real).

A "map" has two branches. On the last k < n qubits, the targets are the
contiguous trailing axis of the control-selected view, so the kernel gathers
along it by the inverse mapping, built per call at 2**k entries. On all n
qubits, or on targets elsewhere, it scatters the moved block by the mapping
itself, so no 2**n inverse is ever allocated.
"""

from __future__ import annotations

import functools
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
# amplitudes per chunk of a "map" gather: whole-view temporaries of 2^19 amplitudes
# cost fresh pages on every call, and this size was the fastest at n = 20
_GATHER_SIZE = 1 << 14
# widest tiled gate: only products of at most 16 rows stalled, and from 32 rows on one product beat tiles
_TILED_QUBITS = 4


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
        object.__setattr__(self, "_operand", matrix)

    @property
    def arity(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1

    def power(self, e: int) -> "Gate":
        return Gate(f"{self.name}^{e}", np.linalg.matrix_power(self.matrix, e))


@dataclass(frozen=True)
class GateApplication:
    """An operator (gate, permutation oracle or step) bound to targets plus polarity-tagged controls."""

    gate: Gate
    targets: tuple
    controls: tuple = ()

    def __post_init__(self):
        targets = tuple(self.targets)
        controls = tuple((int(q), int(v)) for q, v in self.controls)
        if len(targets) != self.gate.arity:
            name, arity = self.gate.name, self.gate.arity
            raise ValueError(f"gate {name!r} wants {arity} targets ({name} width {arity})")
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


@functools.lru_cache(maxsize=None)
def rk_phase(k: int) -> Gate:
    """Diagonal phase gate diag(1, e^{2 pi i / 2^k}); R1=Z, R2=S, R3=T.

    Built and checked once per k: a Gate is frozen and its matrix read-only, so it can be shared.
    """
    if k < 0:
        raise ValueError("phase index must be nonnegative")
    return Gate(f"R{k}", np.array([[1, 0], [0, np.exp(2j * np.pi / (1 << k))]]))


def dagger(g: Gate) -> Gate:
    return Gate(g.name + "dg", g.matrix.conj().T)


def inverse_permutation(mapping: np.ndarray) -> np.ndarray:
    """The mapping that undoes ``mapping``, a permutation of range(len(mapping)), by one scatter."""
    inverse = np.empty_like(mapping)
    inverse[mapping] = np.arange(len(mapping))
    return inverse


def _tile_length(length: int, k: int) -> int:
    """Columns (or rows) per tile of a k-qubit block product: all ``length`` of them if k > _TILED_QUBITS."""
    return length if k > _TILED_QUBITS else math.gcd(length, _GEMM_SIZE >> 2 * k)


def _tiles(block: np.ndarray, k: int) -> np.ndarray:
    """``(..., 2**k, cols)`` column tiles of a ``(..., 2**k, columns)`` block."""
    cols = _tile_length(block.shape[-1], k)
    return block.reshape(*block.shape[:-1], -1, cols).swapaxes(-3, -2)


def apply_kernel(amps: np.ndarray, num_qubits: int, kind: str, operand, targets, controls=()) -> None:
    """In-place application of ``operand``, of kernel ``kind``, to ``targets`` under ``controls``.

    ``amps`` may carry extra trailing axes (e.g. a batch of columns); only the
    leading ``num_qubits`` binary axes are touched. Amplitudes whose control
    bits do not match are left bit-identical.
    """
    k = len(targets)
    lo = targets[0]
    if kind == "dense" and k > 1 and not controls and tuple(targets) == tuple(range(lo, lo + k)):
        # adjacent targets: the (before, block, after) view needs no moveaxis copy
        block = amps.reshape(1 << lo, 1 << k, -1)
        if block.shape[-1] == 1:
            # a trailing block: its columns would be vectors, so tiles of rows are right-multiplied
            rows = block.reshape(-1, _tile_length(1 << lo, k), 1 << k)
            rows[...] = np.matmul(rows, operand.T)
            return
        if operand.dtype == np.float64:
            # a real product takes the real and imaginary parts as separate columns
            block = block.view(np.float64)
        tiles = _tiles(block, k)
        tiles[...] = np.matmul(operand, tiles)
        return
    trailing = tuple(targets) == tuple(range(num_qubits - k, num_qubits))
    if kind == "call" and not trailing:
        raise ValueError(f"a {operand.name} step acts on the last {k} qubits, not on {tuple(targets)}")
    if kind == "call" or (kind == "map" and trailing and k < num_qubits):
        # the trailing k qubits stay one contiguous axis of the control-selected (..., 2**k, batch) view
        index = [slice(None)] * (num_qubits - k)
        for q, v in controls:
            index[q] = v
        view = amps.reshape([2] * (num_qubits - k) + [1 << k, -1])[(*index, ...)]
        if kind == "call":
            operand(np.moveaxis(view, -1, -2))
            return
        # a gather by the inverse moves the same amplitudes as the scatter below, one
        # chunk of leading axes at a time, so its temporaries stay small and warm; on
        # the same chunks a scatter by the mapping took 2-3x as long at n = 20
        inverse = inverse_permutation(operand)
        lead = min(view.ndim - 2, max(0, (view.size // _GATHER_SIZE).bit_length() - 1))
        for chunk_index in np.ndindex(view.shape[:lead]):
            chunk = view[chunk_index]
            chunk[...] = np.take(chunk, inverse, axis=-2)
        return
    # the extra unit axis keeps every slice an array, even one amplitude
    moved = _subspace(amps[..., None], num_qubits, targets, controls)
    if kind == "map":
        # full-width or non-trailing targets: scatter, which needs no inverse of the mapping
        block = moved.reshape(len(operand), -1)
        out = np.empty_like(block)
        out[operand] = block
        moved[...] = out.reshape(moved.shape)
    elif kind == "diag":
        for index, d in zip(np.ndindex(*[2] * k), np.diagonal(operand)):
            if d != 1:
                moved[index] *= d
    elif kind == "perm":
        slices = list(np.ndindex(*[2] * k))  # slice i of moved holds gate index i
        source = np.argmax(operand, axis=1)  # row i takes the slice at source[i]
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
        (m00, m01), (m10, m11) = operand
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
        tiles = _tiles(moved.reshape(1 << k, -1), k)
        moved[...] = np.matmul(operand, tiles).swapaxes(0, 1).reshape(moved.shape)


def apply_to_array(amps: np.ndarray, num_qubits: int, app: GateApplication) -> None:
    """In-place application of ``app`` to ``amps`` by the kernel of its operator's kind."""
    for q in app.qubits():
        if q < 0 or q >= num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits}-qubit state")
    apply_kernel(amps, num_qubits, app.gate._kind, app.gate._operand, app.targets, app.controls)


def apply(s, app: GateApplication):
    """Apply a controlled gate, returning a fresh state vector."""
    amps = s.amps.copy()
    apply_to_array(amps, s.num_qubits, app)
    return StateVector(s.num_qubits, amps)
