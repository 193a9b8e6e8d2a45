"""Gate matrices, circuit operators, and their in-place application to state vectors.

Controls carry a polarity: ``(qubit, 1)`` activates on |1> (filled circle),
``(qubit, 0)`` on |0> (empty circle). Multi-target gates map bit j of the
gate's own index space to ``targets[j]``, most significant first.

An operator has ``arity``, ``name``, ``power(e)``, a kernel kind ``_kind`` and
a kernel operand ``_operand``: a ``Gate`` (its matrix), a PermutationOracle
(its mapping, kind "map"), an XorOracle (its value table, kind "xor") or
counting's step (itself, kind "call"). Operators and ops compare by identity.
A whole Fourier transform on adjacent qubits, which ``simulate`` runs in place
of its cached gates, is kind "fft": its operand names the ``np.fft`` function,
applied in place along the register's axis with the unitary norm.
``apply_kernel`` is the one code path that changes amplitudes. A matrix is
classified once: a diagonal multiplies only its non-unit slices, a 0/1
permutation exchanges slices, and a dense k-qubit matrix is a batch of small
matmuls (real ones on the float view of the amplitudes when the matrix is
real). A "run" is a sequence of 1-qubit dense or diagonal kernels on one
target, such as a Fourier stage (an H and its controlled-phase cascade): one
walk over cache-sized chunks applies every kernel of the run to each chunk
before moving on. A lone dense 1-qubit matrix is a run of one.

A "map" has two branches. On the last k < n qubits, the targets are the
contiguous trailing axis of the control-selected view, so the kernel gathers
along it by the inverse mapping, built per call at 2**k entries. On all n
qubits, or on targets elsewhere, it scatters the moved block by the mapping
itself, so no 2**n inverse is ever allocated.

An "xor" kernel (|x>|y> -> |x>|y xor values[x]>, its own inverse) gathers
each chunk of rows x on the trailing qubits by y xor values[x], and runs the
"map" scatter on its full mapping on targets elsewhere.
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
# amplitudes per chunk of a "map" gather or a "run" sweep: whole-view temporaries of
# 2^19 amplitudes cost fresh pages on every call, and this size was the fastest at n = 20
_CHUNK_SIZE = 1 << 14
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def xor_mapping(values: np.ndarray, n_out: int) -> np.ndarray:
    """The permutation |x>|y> -> |x>|y xor values[x]> of basis indices, y on the last ``n_out`` bits."""
    mapping = (np.arange(len(values))[:, None] << n_out) | (np.arange(1 << n_out) ^ values[:, None])
    return mapping.reshape(-1)


def _xor_gather(view: np.ndarray, values: np.ndarray) -> None:
    """In-place |x>|y> -> |x>|y xor values[x]> on a ``(..., 2**m, 2**n_out, batch)`` view: each
    contiguous chunk of rows x is gathered into one small buffer and written back through the view."""
    y_size, batch = view.shape[-2:]
    rows = min(len(values), max(1, _CHUNK_SIZE // (y_size * batch)))
    y, offsets = np.arange(y_size), np.arange(rows)[:, None] * y_size
    source = np.empty((rows, y_size), dtype=np.int64)
    buf = np.empty((rows * y_size, batch), dtype=view.dtype)
    for x in range(0, len(values), rows):
        np.bitwise_xor(y, values[x : x + rows, None], out=source)
        source |= offsets
        for lead in np.ndindex(view.shape[:-3]):
            chunk = view[(*lead, slice(x, x + rows))]
            # "clip" lets take write into ``out`` unbuffered; every index is in range
            np.take(chunk.reshape(-1, batch), source.reshape(-1), axis=0, out=buf, mode="clip")
            chunk[...] = buf.reshape(chunk.shape)


def _tile_length(length: int, k: int) -> int:
    """Columns (or rows) per tile of a k-qubit block product: all ``length`` of them if k > _TILED_QUBITS."""
    return length if k > _TILED_QUBITS else math.gcd(length, _GEMM_SIZE >> 2 * k)


def _tiles(block: np.ndarray, k: int) -> np.ndarray:
    """``(..., 2**k, cols)`` column tiles of a ``(..., 2**k, columns)`` block."""
    cols = _tile_length(block.shape[-1], k)
    return block.reshape(*block.shape[:-1], -1, cols).swapaxes(-3, -2)


def _sweep(amps: np.ndarray, num_qubits: int, target: int, steps) -> None:
    """In-place application of a run: 1-qubit ``(kind, operand, controls)`` steps on ``target``, in order.

    The ``inner`` qubits (the ``r`` just above the target, then the bottom
    ``free``) vary inside a chunk of about ``_CHUNK_SIZE`` amplitudes; the other
    qubits number the chunks. Each chunk's touched halves are copied into one
    small buffer, every step runs on it, and it is copied back; a state of one
    chunk is its own buffer. A control on an outer qubit keeps or skips a step
    per chunk; one on an inner qubit selects a strided slice of the buffer. A
    step touches only the amplitudes it selects, with the ufuncs of its lone
    kernel, so the result is bit-identical to running the kernels one by one.
    (A contiguous multiply by a ``[1, d]`` pattern ran Fourier stages 3-20 %
    faster, but a factor of exactly 1 can flip the sign of a zero part.)
    """
    n, t = num_qubits, target
    below, batch = n - 1 - t, amps.size >> n
    free = min(below, max(0, (_CHUNK_SIZE // 2 // batch).bit_length() - 1))
    cols = batch << free
    r = 0 if free < below else min(t, max(0, (_CHUNK_SIZE // 2 // cols).bit_length() - 1))
    view = amps.reshape(1 << t - r, 1 << r, 2, 1 << below - free, cols)
    single = view.shape[0] == view.shape[3] == 1
    # the dense steps' two temporaries and the buffer are one allocation: two fresh
    # ones faulted in their pages again on every call (a lone kernel at n = 15: +70 %)
    space = np.empty((2 if single else 4, 1 << r, cols), dtype=amps.dtype)
    buf = view[0, :, :, 0].swapaxes(0, 1) if single else space[2:]
    inner = [*range(t - r, t), *range(n - free, n)]
    outer = [q for q in range(n) if q != t and q not in inner]
    tensor = buf.reshape(2, *[2] * len(inner), batch)
    scratch = space[:2].reshape(2, -1)
    plans, halves = [], set()
    for kind, operand, controls in steps:
        index, mask, want = [slice(None)] * len(inner), 0, 0
        for q, v in controls:
            if q in inner:
                index[inner.index(q)] = v
            else:
                bit = 1 << len(outer) - 1 - outer.index(q)
                mask, want = mask | bit, want | bit * v
        if kind == "diag":
            for h, d in enumerate(np.diagonal(operand)):
                if d != 1:
                    x = _merged(tensor[(h, *index)])
                    plans.append((mask, want, functools.partial(np.multiply, x, d, out=x)))
                    halves.add(h)
        else:
            a, b = _merged(tensor[(0, *index)]), _merged(tensor[(1, *index)])
            terms = scratch[:, : a.size].reshape(2, *a.shape)
            plans.append((mask, want, functools.partial(_dense_step, a, b, operand, *terms)))
            halves.update((0, 1))
    half = slice(min(halves, default=0), max(halves, default=0) + 1)
    for chunk_number, (hi, j) in enumerate(np.ndindex(view.shape[0], view.shape[3])):
        todo = [step for mask, want, step in plans if chunk_number & mask == want]
        if todo:
            chunk = view[hi, :, :, j].swapaxes(0, 1)
            if not single:
                buf[half] = chunk[half]
            for step in todo:
                step()
            if not single:
                chunk[half] = buf[half]


def _merged(x: np.ndarray) -> np.ndarray:
    """The view ``x`` with adjacent axes merged wherever its strides allow: NumPy's
    ufuncs took half again as long on a 14-axis strided view as on the same 1-axis one."""
    shape, strides = [], []
    for size, stride in zip(x.shape, x.strides):
        if shape and strides[-1] == stride * size:
            shape[-1] *= size
            strides[-1] = stride
        elif size > 1 or not shape:
            shape.append(size)
            strides.append(stride)
    return x.reshape(shape)


def _dense_step(a, b, operand, new_a, term) -> None:
    """m00*a + m01*b into ``a`` and m10*a + m11*b into ``b``, by the ufuncs of the lone kernel:
    NumPy rounds a one-element complex product made in place differently from one made into another array."""
    (m00, m01), (m10, m11) = operand
    np.multiply(a, m00, out=new_a)
    np.multiply(b, m01, out=term)
    new_a += term
    np.multiply(a, m10, out=term)
    b *= m11
    b += term
    a[...] = new_a


def apply_kernel(amps: np.ndarray, num_qubits: int, kind: str, operand, targets, controls=()) -> None:
    """In-place application of ``operand``, of kernel ``kind``, to ``targets`` under ``controls``.

    ``amps`` may carry extra trailing axes (e.g. a batch of columns); only the
    leading ``num_qubits`` binary axes are touched. Amplitudes whose control
    bits do not match are left bit-identical. A "run" is a sequence of
    ``(kind, operand, controls)`` 1-qubit steps on one target; a lone dense
    1-qubit kernel runs as a run of one.
    """
    k = len(targets)
    lo = targets[0]
    if kind == "fft":
        # the register's index is the middle axis; since NumPy 2.0 the transform can write in place
        view = amps.reshape(1 << lo, 1 << k, -1)
        getattr(np.fft, operand)(view, axis=1, norm="ortho", out=view)
        return
    if kind == "run" or (kind == "dense" and k == 1):
        _sweep(amps, num_qubits, lo, operand if kind == "run" else ((kind, operand, controls),))
        return
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
    if kind == "xor" and not trailing:
        kind, operand = "map", xor_mapping(operand, k - (len(operand).bit_length() - 1))
    if kind in ("call", "xor") or (kind == "map" and trailing and k < num_qubits):
        # the trailing k qubits stay one contiguous axis of the control-selected (..., 2**k, batch) view
        index = [slice(None)] * (num_qubits - k)
        for q, v in controls:
            index[q] = v
        view = amps.reshape([2] * (num_qubits - k) + [1 << k, -1])[(*index, ...)]
        if kind == "xor":
            _xor_gather(view.reshape(*view.shape[:-2], len(operand), -1, view.shape[-1]), operand)
            return
        if kind == "call":
            operand(np.moveaxis(view, -1, -2))
            return
        # a gather by the inverse moves the same amplitudes as the scatter below, one
        # chunk of leading axes at a time, so its temporaries stay small and warm; on
        # the same chunks a scatter by the mapping took 2-3x as long at n = 20
        inverse = inverse_permutation(operand)
        lead = min(view.ndim - 2, max(0, (view.size // _CHUNK_SIZE).bit_length() - 1))
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
