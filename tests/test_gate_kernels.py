"""Structure-chosen kernels and the fusion pass against the one-matmul reference.

Every kernel kind is checked alone, and random circuits, with runs of 1-qubit
gates on adjacent qubits so that fused blocks form and controlled permutation
oracles between them, must give the same states and unitaries as applying the
ops one at a time with the reference kernels.
"""

import collections

import numpy as np
import pytest
import qsim.circuit
import qsim.gates
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.algorithms.grover import grover_circuit
from qsim.algorithms.qpe import _GroverStep
from qsim.circuit import Circuit, _kernels, simulate, unitary_of
from qsim.gates import _GEMM_SIZE, _TILED_QUBITS, Gate, GateApplication, apply_kernel, rk_phase, rx, ry, rz, standard_gate, u_gate
from qsim.oracles import PermutationOracle
from qsim.qstate import StateVector

from conftest import random_state
from slow_reference import reference_apply_to_array, reference_grover_step, reference_run

TOL = 1e-12

_NAMED = ["I", "X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg"]


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


KIND_CASES = [
    ("diag", standard_gate("Z")),
    ("diag", standard_gate("T")),
    ("diag", rk_phase(5)),
    ("diag", rz(0.7)),
    ("diag", standard_gate("I")),
    ("diag", Gate("CCZ-like", np.diag([1, 1j, -1, np.exp(0.3j)]))),
    ("perm", standard_gate("X")),
    ("perm", standard_gate("SWAP")),
    ("perm", Gate("cycle3", np.roll(np.eye(8), 3, axis=0))),
    # a phased permutation: entries +-i, so it must stay dense
    ("dense", standard_gate("Y")),
    ("dense", standard_gate("H")),
    ("dense", u_gate(0.4, 1.3, -2.1)),
    ("dense", rx(1.1)),
    ("dense", Gate("U4", _random_unitary(4, np.random.default_rng(1)))),
    ("dense", Gate("U8", _random_unitary(8, np.random.default_rng(2)))),
]


@pytest.mark.parametrize("kind,gate", KIND_CASES, ids=[g.name for _, g in KIND_CASES])
def test_each_kernel_kind_matches_reference(kind, gate, rng):
    assert gate._kind == kind
    n = 6
    for _ in range(40):
        qubits = [int(q) for q in rng.permutation(n)]
        k = gate.arity
        # adjacent ascending targets take the block view; others the moved view
        targets = tuple(range(qubits[0] % (n - k + 1), qubits[0] % (n - k + 1) + k))
        if rng.integers(2):
            targets = tuple(qubits[:k])
        rest = [q for q in qubits if q not in targets]
        controls = tuple((q, int(rng.integers(2))) for q in rest[: int(rng.integers(0, 3))])
        app = GateApplication(gate, targets, controls)
        psi = random_state(n, rng).amps
        batch = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
        for amps in (psi, batch):
            fast, slow = amps.copy(), amps.copy()
            apply_kernel(fast, n, gate._kind, gate._operand, app.targets, app.controls)
            reference_apply_to_array(slow, n, app)
            if kind == "perm":
                assert np.array_equal(fast, slow)
            else:
                assert np.max(np.abs(fast - slow)) <= TOL


def test_uncontrolled_amplitudes_stay_bit_identical(rng):
    psi = random_state(5, rng).amps
    for gate in (standard_gate("H"), standard_gate("X"), standard_gate("T"), standard_gate("Y")):
        out = psi.copy()
        apply_kernel(out, 5, gate._kind, gate._operand, (2,), ((0, 1), (4, 0)))
        untouched = np.ones((2,) * 5, dtype=bool)
        untouched[1, :, :, :, 0] = False
        assert np.array_equal(out[untouched.reshape(-1)], psi[untouched.reshape(-1)])


def _one_qubit_gate(draw):
    name = draw(st.sampled_from(_NAMED + ["U", "Rk", "Rz", "Rx"]))
    angle = draw(st.floats(-np.pi, np.pi))
    if name == "U":
        return u_gate(angle, 0.5 * angle + 0.1, -angle)
    if name == "Rk":
        return rk_phase(draw(st.integers(0, 8)))
    if name == "Rz":
        return rz(angle)
    if name == "Rx":
        return rx(angle)
    return standard_gate(name)


@st.composite
def circuits(draw, max_qubits=8):
    n = draw(st.integers(1, max_qubits))
    c = Circuit(n)
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.booleans()):
            # a run of uncontrolled 1-qubit gates on adjacent qubits
            lo = draw(st.integers(0, n - 1))
            for q in range(lo, min(n, lo + draw(st.integers(1, 6)))):
                c.append(_one_qubit_gate(draw), (q,))
            continue
        pick = draw(st.integers(0, 5))
        if pick == 0 and n > 1:
            gate = standard_gate("SWAP")
        elif pick == 1:
            k = draw(st.integers(1, min(n, 3)))
            gate = PermutationOracle(k, np.array(draw(st.permutations(range(1 << k)))))
        else:
            gate = _one_qubit_gate(draw)
        qubits = draw(st.permutations(range(n)))
        targets = tuple(qubits[: gate.arity])
        spare = qubits[gate.arity :]
        controls = tuple((q, draw(st.integers(0, 1))) for q in spare[: draw(st.integers(0, len(spare)))])
        c.append(gate, targets, controls)
    return c


@settings(max_examples=250, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_fused_simulation_matches_op_by_op_reference(c, seed):
    psi = random_state(c.num_qubits, np.random.default_rng(seed))
    fast = simulate(c, psi).amps
    slow = reference_run(psi.amps, c)
    assert np.max(np.abs(fast - slow)) <= TOL
    # from |0...0>, any leading run of 1-qubit gates is built as a product state
    zero = np.zeros(1 << c.num_qubits)
    zero[0] = 1.0
    assert np.max(np.abs(simulate(c).amps - reference_run(zero, c))) <= TOL


def test_product_prefix_runs_no_kernel(monkeypatch):
    """Counted, not timed: an H layer from |0...0> is a product state, built without a kernel."""
    calls = []
    monkeypatch.setattr(qsim.circuit, "apply_kernel", lambda *args: calls.append(args))
    n = 16
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    amps = simulate(c).amps
    assert calls == []
    assert np.max(np.abs(amps - 2 ** (-n / 2))) <= TOL


@settings(max_examples=100, deadline=None)
@given(circuits(max_qubits=6))
def test_fused_unitary_matches_op_by_op_reference(c):
    eye = np.eye(1 << c.num_qubits, dtype=complex)
    assert np.max(np.abs(unitary_of(c) - reference_run(eye, c))) <= TOL


@settings(max_examples=100, deadline=None)
@given(circuits(max_qubits=6))
def test_circuit_times_its_inverse_is_identity(c):
    inverse = Circuit(c.num_qubits, c.inverse_ops())
    eye = np.eye(1 << c.num_qubits)
    assert np.max(np.abs(unitary_of(c) @ unitary_of(inverse) - eye)) <= TOL


@pytest.mark.parametrize("targets, controls", [((7, 2), ()), ((3, 4, 5), ((0, 1),)), ((9, 0, 4, 6), ((2, 0), (13, 1)))])
def test_dense_products_stay_small(monkeypatch, targets, controls):
    """Counted, not timed: one large product stalls OpenBLAS's thread pool."""
    gate = Gate("U", _random_unitary(1 << len(targets), np.random.default_rng(3)))
    app = GateApplication(gate, targets, controls)
    psi = random_state(14, np.random.default_rng(4)).amps
    slow = psi.copy()
    reference_apply_to_array(slow, 14, app)
    sizes, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b: sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1]) or matmul(a, b))
    apply_kernel(psi, 14, gate._kind, gate._operand, targets, controls)
    assert sizes and max(sizes) <= _GEMM_SIZE
    assert np.max(np.abs(psi - slow)) <= TOL


@pytest.mark.parametrize("k", [_TILED_QUBITS + 1, 7, 8])
@pytest.mark.parametrize("adjacent", [True, False])
def test_wide_dense_gates_stay_one_product(monkeypatch, k, adjacent):
    """Past ``_TILED_QUBITS`` a tile would shrink toward a matrix-vector product, so none is cut."""
    n = 10
    targets = tuple(range(1, 1 + k)) if adjacent else tuple(range(n - 1, n - 1 - k, -1))
    app = GateApplication(Gate("U", _random_unitary(1 << k, np.random.default_rng(k))), targets)
    psi = random_state(n, np.random.default_rng(5)).amps
    slow = psi.copy()
    reference_apply_to_array(slow, n, app)
    columns, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b: columns.append(b.shape[-1]) or matmul(a, b))
    apply_kernel(psi, n, app.gate._kind, app.gate._operand, targets)
    assert columns == [1 << (n - 1 - k) if adjacent else 1 << (n - k)]
    assert np.max(np.abs(psi - slow)) <= TOL


def _block_circuit(n, lo, k, real):
    """1-qubit gates whose products on qubits lo..lo+k-1 fuse into one block.

    X.H and Ry are not symmetric, so neither is their kron: a block applied
    transposed gives a different state. One u_gate makes the block complex.
    """
    c = Circuit(n)
    for j, q in enumerate(range(lo, lo + k)):
        c.h(q)
        if j % 2:
            c.append(ry(0.3 + j), (q,))
        else:
            c.x(q)
    if not real:
        c.append(u_gate(0.4, 1.3, -2.1), (lo + k - 1,))
    return c


# a block is "trailing" when it ends on the last qubit: its after axis is 1,
# so it runs as tiles of rows; at n >= 10 the row count reaches a full tile
BLOCK_CASES = [
    (n, k, real, trailing)
    for n in (10, 11, 12, 13)
    for k in (2, 3, 4)
    for real in (True, False)
    for trailing in (True, False)
]


@pytest.mark.parametrize("n,k,real,trailing", BLOCK_CASES)
def test_block_kernels_match_reference(n, k, real, trailing):
    lo = n - k if trailing else 1
    c = _block_circuit(n, lo, k, real)
    (kernel,) = _kernels(c.ops)
    kind, operand, targets, _ = kernel
    assert (kind, targets) == ("dense", tuple(range(lo, lo + k)))
    assert operand.dtype == (np.float64 if real else np.complex128)
    psi = random_state(n, np.random.default_rng(n * k))
    assert np.max(np.abs(simulate(c, psi).amps - reference_run(psi.amps, c))) <= TOL
    if n == 10:
        # unitary_of's batch axis makes even a trailing block's after axis wider than 1;
        # columns are independent, so the slow reference runs on every 17th only
        columns = np.eye(1 << n, dtype=complex)[:, ::17]
        assert np.max(np.abs(unitary_of(c)[:, ::17] - reference_run(columns, c))) <= TOL


@pytest.mark.parametrize("n", [10, 13])
def test_wide_trailing_gate_matches_reference(n):
    k = _TILED_QUBITS + 1
    c = Circuit(n).append(Gate("U", _random_unitary(1 << k, np.random.default_rng(n))), range(n - k, n))
    psi = random_state(n, np.random.default_rng(7))
    assert np.max(np.abs(simulate(c, psi).amps - reference_run(psi.amps, c))) <= TOL


def test_real_blocks_are_applied_as_real_products(monkeypatch):
    """Counted, not timed: an H layer issues float64 blocks, and a block holding an S stays complex."""
    seen, apply_kernel = [], qsim.circuit.apply_kernel

    def spy(amps, n, kind, operand, targets, controls=()):
        seen.append((targets, operand.dtype))
        apply_kernel(amps, n, kind, operand, targets, controls)

    monkeypatch.setattr(qsim.circuit, "apply_kernel", spy)
    c = Circuit(12)
    for q in range(12):
        c.h(q)
    blocks = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    # from |0...0> the layer would be built as a product state, so start elsewhere
    psi = random_state(12, np.random.default_rng(8))
    simulate(c, psi)
    assert seen == [(b, np.float64) for b in blocks]
    seen.clear()
    simulate(c.append(standard_gate("S"), (5,)), psi)
    assert seen == [(blocks[0], np.float64), (blocks[1], np.complex128), (blocks[2], np.float64)]


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_controlled_step_unitary_is_the_dense_block(k):
    marked = ["010", "111"]
    c = Circuit(5).append(_GroverStep(3, marked).power(k), (2, 3, 4), ((0, 1), (1, 0)))
    want = np.eye(32, dtype=complex)
    want[16:24, 16:24] = np.linalg.matrix_power(reference_grover_step(marked, 3), k)
    assert np.max(np.abs(unitary_of(c) - want)) <= TOL


@pytest.mark.parametrize("k", [1, 2, 5])
def test_controlled_step_inverse_undoes_it(k):
    c = Circuit(5).append(_GroverStep(3, ["010", "111"]).power(k), (2, 3, 4), ((0, 1), (1, 0)))
    c.h(1)
    inverse = Circuit(5, c.inverse_ops())
    assert [op.gate.name for op in inverse.ops] == ["H", f"G^{-k}"]
    assert np.max(np.abs(unitary_of(c) @ unitary_of(inverse) - np.eye(32))) <= TOL


def test_step_off_the_trailing_qubits_is_refused():
    c = Circuit(5).append(_GroverStep(3, ["010"]), (0, 1, 2))
    with pytest.raises(ValueError, match="last 3 qubits"):
        simulate(c)


def test_single_qubit_products_take_the_cheaper_kernels():
    c = Circuit(3).h(1).x(1).h(1).x(2).h(2).h(2).h(0).append(standard_gate("X"), (0,), ((1, 1),))
    kernels = [(kind, targets) for kind, _, targets, _ in _kernels(c.ops)]
    # H.X.H on qubit 1 is exactly Z; H.H.X on qubit 2 is X times 2*(1/sqrt 2)**2,
    # which rounds below 1, so that product stays dense
    assert ("diag", (1,)) in kernels
    assert ("dense", (2,)) in kernels
    assert ("dense", (0,)) in kernels
    assert kernels[-1] == ("perm", (0,))
    psi = random_state(3, np.random.default_rng(5))
    assert np.max(np.abs(simulate(c, psi).amps - reference_run(psi.amps, c))) <= TOL


def test_adjacent_dense_products_fuse_into_blocks_of_at_most_four():
    c = Circuit(10)
    for q in range(10):
        c.h(q)
    c.cx(0, 9)
    widths = [len(targets) for kind, _, targets, _ in _kernels(c.ops) if kind == "dense"]
    assert widths == [4, 4, 2]
    psi = random_state(10, np.random.default_rng(6))
    assert np.max(np.abs(simulate(c, psi).amps - reference_run(psi.amps, c))) <= TOL


@pytest.mark.parametrize("marked", ["0110100110010110", "0110100110010111", "0" * 16])
def test_one_grover_iteration_compiles_to_few_kernels(marked):
    """Counted, not timed: fusion that silently stops shows here as 40+ kernels."""
    one, two = grover_circuit([marked], 16, 1), grover_circuit([marked], 16, 2)
    ops = len(two.ops) - len(one.ops)
    kernels = len(list(_kernels(two.ops))) - len(list(_kernels(one.ops)))
    assert ops >= 40
    assert kernels <= 12


@pytest.mark.parametrize("variant", ["economical", "standard"])
def test_grover_fusion_work_does_not_grow_with_iterations(monkeypatch, variant):
    """Counted, not timed: the iterate is classified and kron'd once per call, whatever t is."""
    counts = collections.Counter()
    for name in ("_block", "classify"):
        original = getattr(qsim.circuit, name)
        monkeypatch.setattr(qsim.circuit, name, lambda *a, name=name, original=original: counts.update([name]) or original(*a))

    def work(t):
        counts.clear()
        list(_kernels(grover_circuit(["0110100110010110"], 16, t, variant).ops))
        return dict(counts)

    assert work(2) == work(20)
    assert work(2)["_block"] > 0 and work(2)["classify"] > 0


def test_fused_blocks_skip_the_unitarity_check(monkeypatch):
    c = Circuit(8)
    for q in range(8):
        c.h(q)
    c.cx(0, 7)
    calls = []
    original = qsim.gates.is_unitary
    monkeypatch.setattr(qsim.gates, "is_unitary", lambda *a, **k: calls.append(a) or original(*a, **k))
    out = simulate(c)
    assert calls == []
    assert isinstance(out, StateVector)
