"""Circuit IR, exact simulation, shot sampling, and unitary extraction.

Circuits are unitary op sequences; measurements, if declared, are terminal.
An op binds an operator to its qubits: a gate, a permutation or XOR oracle or a
step that applies itself in place (see ``gates``). A driver that measures one
register before transforming another reads it out with
``algorithms.common.conditional_readout``, which transforms only the block
conditional on the drawn value. ``simulate`` and ``unitary_of`` run a circuit
through one fusion pass: runs of uncontrolled 1-qubit gates become one product
per qubit, emitted as blocks of up to ``BLOCK_QUBITS`` adjacent qubits, and
every kernel is chosen by operator structure (``gates.apply_kernel``). The
pass memoizes its products and flushes within one call, so a body repeated t
times (Grover's iterate) is fused once per call, not t times. From
|0...0>, ``simulate`` builds the product state of the leading kernels directly.
``_run`` then joins each sequence of consecutive 1-qubit dense or diagonal
kernels on one target into one "run", swept over the state chunk by chunk.

Before fusion, ``simulate`` runs each exact occurrence of a registered op tuple
(the same objects in the same order) as the one op registered for it: a Fourier
transform the library built runs as one in-place FFT, one rebuilt from fresh ops
gate by gate. ``unitary_of`` runs the gates as written, as ``qsim qft-check`` checks them.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os

import numpy as np

from .gates import Gate, GateApplication, apply_kernel, classify, dagger, standard_gate
from .qstate import Distribution, StateVector, marginal_probs

DEFAULT_MAX_QUBITS = 20
UNITARY_MAX_QUBITS = 12
MAX_SHOTS = 10**7
BLOCK_QUBITS = 4  # widest fused block: a 16x16 matmul per pass over the amplitudes

_X = standard_gate("X")
_H = standard_gate("H")
_Z = standard_gate("Z")
_SWAP = standard_gate("SWAP")


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the desk-scale qubit or shot caps."""


def max_qubits() -> int:
    return int(os.environ.get("QSIM_MAX_QUBITS", DEFAULT_MAX_QUBITS))


def require_qubits(n: int) -> None:
    """Refuse an n-qubit state above the cap; call before allocating 2**n amplitudes."""
    if n > max_qubits():
        raise ResourceLimitError(f"{n} qubits exceeds the cap {max_qubits()}")


class Circuit:
    """Ordered operator applications on ``num_qubits`` wires."""

    def __init__(self, num_qubits: int, ops=None, measurements=None):
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.ops: list[GateApplication] = []
        self.measurements: list[int] | None = None
        for op in ops or ():
            self.append_op(op)
        if measurements is not None:
            self.measure(measurements)

    def append_op(self, op: GateApplication) -> "Circuit":
        if self.measurements is not None:
            raise ValueError("measurements are terminal; no gates may follow them")
        if any(q >= self.num_qubits or q < 0 for q in op.qubits()):
            raise ValueError("gate touches a qubit outside the circuit")
        self.ops.append(op)
        return self

    def append(self, gate: Gate, targets, controls=()) -> "Circuit":
        return self.append_op(GateApplication(gate, tuple(targets), tuple(controls)))

    def h(self, q: int) -> "Circuit":
        return self.append(_H, (q,))

    def x(self, q: int) -> "Circuit":
        return self.append(_X, (q,))

    def z(self, q: int) -> "Circuit":
        return self.append(_Z, (q,))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(_X, (target,), ((control, 1),))

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.append(_X, (target,), ((c1, 1), (c2, 1)))

    def mcx(self, controls, target: int) -> "Circuit":
        """Multi-controlled X; ``controls`` are (qubit, polarity) pairs."""
        return self.append(_X, (target,), tuple(controls))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(_SWAP, (a, b))

    def extend(self, other: "Circuit") -> "Circuit":
        if other.num_qubits > self.num_qubits or self.measurements is not None:
            for op in other.ops:
                self.append_op(op)
        else:
            # other's ops were range-checked against its width, which is no wider
            self.ops.extend(other.ops)
        return self

    def measure(self, qubits) -> "Circuit":
        qubits = sorted(qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError("measured qubits must be distinct")
        if any(q < 0 or q >= self.num_qubits for q in qubits):
            raise ValueError("measured qubit out of range")
        self.measurements = qubits
        return self

    def inverse_ops(self) -> list:
        """Applications of the dagger circuit: daggered gates, inverted oracles and steps."""
        out = []
        for op in reversed(self.ops):
            gate = op.gate
            if gate._kind in ("map", "xor", "call"):
                gate = gate.power(-1)
            elif not np.array_equal(gate.matrix.conj().T, gate.matrix):
                gate = dagger(gate)
            out.append(GateApplication(gate, op.targets, op.controls))
        return out


# id of each registered tuple's first op -> (the tuple, the op that replaces it)
_REGISTERED: dict = {}


def register_transform(ops: tuple, op) -> None:
    """Let ``simulate`` run each exact occurrence of ``ops`` as ``op``; ``ops`` must live for good
    (a cached tuple), so the id of its first op is never reused."""
    _REGISTERED[id(ops[0])] = ops, op


def _recognized(ops):
    """``ops`` with each exact occurrence of a registered tuple replaced by its one op."""
    i = 0
    while i < len(ops):
        seq, op = _REGISTERED.get(id(ops[i]), ((ops[i],), ops[i]))
        if len(seq) > len(ops) - i or not all(map(operator.is_, ops[i : i + len(seq)], seq)):
            seq, op = (ops[i],), ops[i]
        yield op
        i += len(seq)


def _flush(pending: dict, memo: dict) -> list:
    """Kernels for the pending 1-qubit products, which then are cleared.

    A diagonal or permutation product gets its own kernel; dense products on
    adjacent qubits are kron'd into blocks of up to BLOCK_QUBITS qubits. The
    list is memoized by the identity of each qubit's product.
    """
    key = tuple((q, id(pending[q])) for q in sorted(pending))
    if key not in memo:
        kernels, run = [], []
        for q in sorted(pending):
            matrix = pending[q]
            kind = classify(matrix)
            if kind != "dense":
                kernels.append((kind, matrix, (q,), ()))
                continue
            if run and (q != run[-1] + 1 or len(run) == BLOCK_QUBITS):
                kernels.append(_block(run, pending))
                run = []
            run.append(q)
        if run:
            kernels.append(_block(run, pending))
        # the memo holds the products, so no id in its key is reused while it lives
        memo[key] = list(pending.values()), kernels
    pending.clear()
    return memo[key][1]


def _block(qubits, pending):
    """One dense kernel for adjacent qubits; qubits[0] is the block index's top bit."""
    matrix = pending[qubits[0]]
    for q in qubits[1:]:
        dim = 2 * len(matrix)
        matrix = (matrix[:, None, :, None] * pending[q][None, :, None, :]).reshape(dim, dim)
    if not matrix.imag.any():
        # a real block (of H, X and Z, say) is applied to the amplitudes' float view at half the flops
        matrix = matrix.real.copy()
    return "dense", matrix, tuple(qubits), ()


def _kernels(ops):
    """The fusion pass: ``(kind, operand, targets, controls)`` kernel calls equal to ``ops``.

    Each qubit's uncontrolled 1-qubit gates are multiplied into one pending
    product. An op touching a qubit with a pending product first emits every
    pending product; an op on other qubits commutes with them. The fused
    matrices are plain arrays, so no unitarity check runs on them. Oracles and
    steps are never fused.

    Within one call, each product is memoized by the identity of its two
    factors and each flush's kernel list by the identity of the products it
    emits. A repeated body (Grover's iterate, say) is thus multiplied, classified
    and kron'd once, and its later copies yield the same kernel objects. The
    memos keep their keys' arrays alive and are dropped when the call ends.
    """
    pending, products, flushes = {}, {}, {}
    for op in ops:
        if isinstance(op.gate, Gate) and len(op.targets) == 1 and not op.controls:
            q, g = op.targets[0], op.gate.matrix
            if q not in pending:
                pending[q] = g
                continue
            key = (id(g), id(pending[q]))
            if key not in products:
                # an elementwise product, not BLAS: no fused multiply-add leaves a
                # residue where H.X.H cancels to the exactly diagonal Z
                products[key] = g, pending[q], (g[:, :, None] * pending[q][None, :, :]).sum(axis=1)
            pending[q] = products[key][2]
            continue
        if any(q in pending for q in op.qubits()):
            yield from _flush(pending, flushes)
        yield op.gate._kind, op.gate._operand, op.targets, op.controls
    yield from _flush(pending, flushes)


def _runs(kernels):
    """The kernels, with two or more consecutive 1-qubit dense or diagonal kernels on one
    target (an H and its controlled-phase cascade, say) joined into one "run"."""

    def run_target(kernel):
        # a fresh object() equals no other key, so any other kernel stays alone
        return kernel[2] if len(kernel[2]) == 1 and kernel[0] in ("dense", "diag") else object()

    for targets, group in itertools.groupby(kernels, run_target):
        group = list(group)
        steps = tuple((kind, operand, controls) for kind, operand, _, controls in group)
        yield group[0] if len(group) == 1 else ("run", steps, targets, ())


def _run(amps: np.ndarray, num_qubits: int, kernels) -> None:
    for kernel in _runs(kernels):
        apply_kernel(amps, num_qubits, *kernel)


def _prefix_state(num_qubits: int, kernels):
    """The state the leading product kernels make from |0...0>, and the kernels after them.

    The prefix is the leading uncontrolled dense, diagonal or permutation
    kernels on adjacent ascending qubits that no earlier kernel touched. Each
    acts on |0...0> of its own qubits, so it leaves its operand's first column
    there. ``_flush`` yields diagonal and permutation kernels before a pending
    dense run, so the columns are collected by qubit, not in kernel order.
    """
    columns, touched = {}, set()
    for kernel in kernels:
        kind, operand, targets, controls = kernel
        lo, k = targets[0], len(targets)
        fresh = targets == tuple(range(lo, lo + k)) and not touched.intersection(targets)
        if kind not in ("dense", "diag", "perm") or controls or not fresh:
            kernels = itertools.chain([kernel], kernels)
            break
        columns[lo] = operand[:, 0].reshape([2] * k)
        touched.update(targets)
    amps = np.zeros(1 << num_qubits, dtype=complex)
    index = [slice(None) if q in touched else 0 for q in range(num_qubits)]
    # the touched qubits' axes, every other qubit fixed at |0>; the trailing Ellipsis keeps a view
    view = amps.reshape([2] * num_qubits)[(*index, ...)]
    # two half products, then one outer product written into the state: growing it a
    # qubit at a time faults in a fresh array at every step (22 ms at n = 20)
    factors = [columns[lo] for lo in sorted(columns)]
    half = len(factors) // 2
    left = functools.reduce(np.multiply.outer, factors[:half], np.ones(()))
    right = functools.reduce(np.multiply.outer, factors[half:], np.ones(()))
    np.multiply.outer(left, right, out=view)
    return amps, kernels


def simulate(c: Circuit, initial: StateVector | None = None) -> StateVector:
    """The circuit's ops applied to ``initial`` (default |0...0>); measurements are ignored.

    From |0...0>, the leading kernels that put each of their qubits in a product
    state are not run: their state is built directly (``_prefix_state``). Each
    registered transform in the ops runs as its one op (``_recognized``).
    """
    require_qubits(c.num_qubits)
    kernels = _kernels(_recognized(c.ops))
    if initial is None:
        amps, kernels = _prefix_state(c.num_qubits, kernels)
    elif initial.num_qubits != c.num_qubits:
        raise ValueError("initial state size does not match the circuit")
    else:
        amps = initial.amps.copy()
    _run(amps, c.num_qubits, kernels)
    return StateVector(c.num_qubits, amps)


def run(c: Circuit, shots: int, seed: int) -> Distribution:
    """Sample the declared measurement ``shots`` times, deterministically in seed."""
    if not c.measurements:
        raise ValueError("circuit declares no measurements")
    if shots < 1:
        raise ValueError("at least one shot is required")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(f"{shots} shots exceeds the cap {MAX_SHOTS}")
    probs = marginal_probs(simulate(c), c.measurements)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return Distribution("sampled", counts, shots=shots)


def unitary_of(c: Circuit) -> np.ndarray:
    """Materialize the circuit's composite operator, column by basis column, from its gates as
    written: no transform is recognized, so ``qsim qft-check`` checks the QFT's decomposition."""
    if c.num_qubits > UNITARY_MAX_QUBITS:
        raise ResourceLimitError(
            f"unitary extraction is capped at {UNITARY_MAX_QUBITS} qubits"
        )
    dim = 1 << c.num_qubits
    matrix = np.eye(dim, dtype=complex)
    _run(matrix, c.num_qubits, _kernels(c.ops))
    return matrix


def equiv_up_to_phase(a, b, tol: float = 1e-10) -> bool:
    """True iff a = gamma * b for some unit scalar gamma, within max-norm tol."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("shapes differ")
    pivot = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[pivot]) == 0:
        return bool(np.max(np.abs(a)) <= tol)
    gamma = a[pivot] / b[pivot]
    mag = abs(gamma)
    if mag == 0:
        return False
    gamma /= mag
    return bool(np.max(np.abs(a - gamma * b)) <= tol)


def circuit_text(c: Circuit) -> str:
    """Debug dump, one op per line: ``GATE targets=[..] controls=[(q,+|-)..]``."""
    lines = []
    for op in c.ops:
        controls = ",".join(f"({q},{'+' if v else '-'})" for q, v in op.controls)
        targets = ",".join(str(t) for t in op.targets)
        lines.append(f"{op.gate.name} targets=[{targets}] controls=[{controls}]")
    return "\n".join(lines)
