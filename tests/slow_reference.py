"""Reference kernels, kept only as test oracles.

``reference_apply_permutation`` and ``reference_measure`` are the original
whole-vector implementations: every basis index is decoded bit by bit into a
2**n int64 array. They are slow but easy to check by hand; the library's
strided versions must agree with them exactly. ``reference_apply_to_array``
is the one-matmul gate kernel that ran every gate before kernels were chosen
by gate structure and fused; ``reference_run`` applies a circuit's ops one
at a time with it, and a permutation oracle's with ``reference_apply_permutation``.
``reference_kernels`` applies fused kernels one at a time, each 1-qubit dense one
by ``reference_one_qubit_dense``, the half-view kernel that ran them before
runs were swept in chunks; the chunk walker must match it bit for bit.
``reference_fusion`` is the fusion pass without its per-call memo: every
product, classification and block is computed afresh, so the memoized pass
must emit the same kernel stream.
``reference_xor_oracle`` builds an XOR oracle as the full 2**(m+n) permutation
it was before XOR oracles kept only their value table, and
``reference_inverse_qft_circuit`` and ``reference_inverse_qft_registers`` rebuild
the inverse transform on every call, from fresh ops that ``simulate`` runs gate
by gate, not as one FFT;
``reference_modexp_values`` and ``reference_dlog_values`` are the value tables'
original per-element loops.
"""

import numpy as np

from qsim.algorithms.qft import qft_circuit
from qsim.circuit import BLOCK_QUBITS, Circuit
from qsim.gates import Gate, apply_kernel, classify
from qsim.numtheory import mod_pow
from qsim.oracles import PermutationOracle, XorOracle
from qsim.qstate import MeasurementRecord, StateVector, _subspace, marginal_probs


def reference_apply_to_array(amps: np.ndarray, num_qubits: int, app) -> None:
    """In-place: the gate matrix times the control-selected block, targets moved to the front."""
    moved = _subspace(amps, num_qubits, app.targets, app.controls)
    flat = moved.reshape(1 << len(app.targets), -1)
    moved[...] = (app.gate.matrix @ flat).reshape(moved.shape)


def reference_run(amps: np.ndarray, circuit) -> np.ndarray:
    """A copy of ``amps`` (trailing batch axes allowed) after the circuit's ops, op by op."""
    n = circuit.num_qubits
    out = np.array(amps, dtype=complex)
    for op in circuit.ops:
        if isinstance(op.gate, (PermutationOracle, XorOracle)):
            oracle = op.gate
            if isinstance(oracle, XorOracle):
                oracle = reference_xor_oracle(oracle.values, oracle.n_out)
            columns = out.reshape(1 << n, -1).T
            moved = [reference_apply_permutation(StateVector(n, col.copy()), oracle, op.targets, op.controls) for col in columns]
            out = np.stack([s.amps for s in moved], axis=1).reshape(out.shape)
        else:
            reference_apply_to_array(out, n, op)
    return out


def reference_one_qubit_dense(amps: np.ndarray, num_qubits: int, operand, target: int, controls=()) -> None:
    """In-place: the two half-views of the control-selected block, with full-size temporaries."""
    moved = _subspace(amps[..., None], num_qubits, (target,), controls)
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


def reference_kernels(amps: np.ndarray, num_qubits: int, kernels) -> np.ndarray:
    """A copy of ``amps`` after ``(kind, operand, targets, controls)`` kernels, one at a time."""
    out = np.array(amps, dtype=complex)
    for kind, operand, targets, controls in kernels:
        if kind == "dense" and len(targets) == 1:
            reference_one_qubit_dense(out, num_qubits, operand, targets[0], controls)
        else:
            apply_kernel(out, num_qubits, kind, operand, targets, controls)
    return out


def _reference_block(qubits, pending):
    matrix = pending[qubits[0]]
    for q in qubits[1:]:
        dim = 2 * len(matrix)
        matrix = (matrix[:, None, :, None] * pending[q][None, :, None, :]).reshape(dim, dim)
    if not matrix.imag.any():
        matrix = matrix.real.copy()
    return "dense", matrix, tuple(qubits), ()


def _reference_flush(pending: dict):
    run = []
    for q in sorted(pending):
        matrix = pending[q]
        kind = classify(matrix)
        if kind != "dense":
            yield kind, matrix, (q,), ()
            continue
        if run and (q != run[-1] + 1 or len(run) == BLOCK_QUBITS):
            yield _reference_block(run, pending)
            run = []
        run.append(q)
    if run:
        yield _reference_block(run, pending)
    pending.clear()


def reference_fusion(ops):
    """``(kind, operand, targets, controls)`` kernels for ``ops``, each product fused afresh."""
    pending = {}
    for op in ops:
        if isinstance(op.gate, Gate) and len(op.targets) == 1 and not op.controls:
            q = op.targets[0]
            g = op.gate.matrix
            pending[q] = (g[:, :, None] * pending[q][None, :, :]).sum(axis=1) if q in pending else g
            continue
        if any(q in pending for q in op.qubits()):
            yield from _reference_flush(pending)
        yield op.gate._kind, op.gate._operand, op.targets, op.controls
    yield from _reference_flush(pending)


def reference_xor_oracle(values: np.ndarray, n_out: int) -> PermutationOracle:
    """|x>|y> -> |x>|y xor values[x]> as a checked 2**(m+n_out) permutation, y on the last n_out qubits."""
    mapping = (np.arange(len(values))[:, None] << n_out) | (np.arange(1 << n_out) ^ values[:, None])
    return PermutationOracle(len(values).bit_length() - 1 + n_out, mapping.reshape(-1))


def reference_inverse_qft_circuit(n: int) -> Circuit:
    """The inverse transform, its daggered gates built and checked afresh."""
    c = Circuit(n)
    for op in qft_circuit(n).inverse_ops():
        c.append_op(op)
    return c


def reference_inverse_qft_registers(m: int, width: int, starts) -> Circuit:
    """Each register's inverse transform, every op built afresh, so ``simulate`` runs it gate by gate."""
    c = Circuit(width)
    for start in starts:
        for op in reference_inverse_qft_circuit(m).ops:
            c.append(op.gate, [t + start for t in op.targets], [(q + start, v) for q, v in op.controls])
    return c


def reference_modexp_values(a: int, modulus: int, q: int) -> np.ndarray:
    """a**l mod modulus for l < q, one multiplication per entry."""
    powers = np.empty(q, dtype=np.int64)
    value = 1
    for ell in range(q):
        powers[ell] = value
        value = (value * a) % modulus
    return powers


def reference_dlog_values(modulus: int, a: int, b: int, m: int) -> np.ndarray:
    """a**x b**y mod modulus at index (x << m) | y, two mod_pow calls per entry."""
    values = np.empty(1 << (2 * m), dtype=np.int64)
    for x in range(1 << m):
        ax = mod_pow(a, x, modulus)
        for y in range(1 << m):
            values[(x << m) | y] = ax * mod_pow(b, y, modulus) % modulus
    return values


def reference_apply_permutation(s: StateVector, oracle, targets=None, controls=()) -> StateVector:
    n = s.num_qubits
    k = oracle.total_qubits
    targets = list(range(k)) if targets is None else list(targets)

    idx = np.arange(1 << n)
    y = np.zeros(1 << n, dtype=np.int64)
    for j, t in enumerate(targets):
        y |= ((idx >> (n - 1 - t)) & 1) << (k - 1 - j)
    mapped = oracle.mapping[y]
    new_idx = idx
    for j, t in enumerate(targets):
        bit = np.int64(1) << (n - 1 - t)
        new_idx = (new_idx & ~bit) | (((mapped >> (k - 1 - j)) & 1) << (n - 1 - t))

    sel = np.ones(1 << n, dtype=bool)
    for q, v in controls:
        sel &= ((idx >> (n - 1 - q)) & 1) == v

    amps = s.amps.copy()
    amps[new_idx[sel]] = s.amps[sel]
    return StateVector(n, amps)


def reference_measure(s: StateVector, qubits, rng: np.random.Generator) -> MeasurementRecord:
    n = s.num_qubits
    qubits = sorted(qubits)
    k = len(qubits)

    marg = marginal_probs(s, qubits)
    outcome_index = int(rng.choice(1 << k, p=marg / marg.sum()))
    prob = float(marg[outcome_index])

    indices = np.arange(1 << n)
    mask = np.ones(1 << n, dtype=bool)
    for j, q in enumerate(qubits):
        want = (outcome_index >> (k - 1 - j)) & 1
        mask &= ((indices >> (n - 1 - q)) & 1) == want
    post = np.where(mask, s.amps, 0.0)
    post = post / np.linalg.norm(post)

    return MeasurementRecord(
        measured_qubits=tuple(qubits),
        outcome=format(outcome_index, f"0{k}b"),
        probability=prob,
        post_state=StateVector(n, post),
    )


def reference_grover_step(marked, n: int) -> np.ndarray:
    """The counting step (2|s><s| - I) O as a dense 2**n x 2**n matrix."""
    size = 1 << n
    signs = np.ones(size)
    for bits in marked:
        signs[int(bits, 2)] = -1.0
    return (2.0 / size * np.ones((size, size)) - np.eye(size)) * signs[None, :]


def reference_counting_law(marked, n: int, m: int) -> np.ndarray:
    """Counting-register law from the dense Grover step and repeated squaring.

    Counting-register value k carries U**k on the uniform work state, built
    from the powers U**(2**j) for the set bits of k, and the inverse transform
    is ``np.fft.fft``.
    """
    size, count = 1 << n, 1 << m
    power = reference_grover_step(marked, n)

    rows = np.full((count, size), 1.0 / np.sqrt(count * size), dtype=complex)
    has_bit = (np.arange(count)[:, None] >> np.arange(m)) & 1 == 1
    for j in range(m):
        rows[has_bit[:, j]] = rows[has_bit[:, j]] @ power.T
        if j + 1 < m:
            power = power @ power
    spectrum = np.fft.fft(rows, axis=0) / np.sqrt(count)
    return (np.abs(spectrum) ** 2).sum(axis=1)
