import numpy as np
import pytest

from qsim.gates import (
    Gate,
    GateApplication,
    apply,
    dagger,
    is_unitary,
    rk_phase,
    rx,
    ry,
    rz,
    standard_gate,
    u_gate,
)
from qsim.qstate import basis_state, probabilities

from conftest import random_state

H = standard_gate("H")
X = standard_gate("X")
Z = standard_gate("Z")
SWAP = standard_gate("SWAP")


def test_standard_gates_are_unitary():
    for name in ("I", "X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg", "SWAP"):
        assert is_unitary(standard_gate(name).matrix, 1e-10)


def test_unknown_gate_name():
    with pytest.raises(ValueError):
        standard_gate("CNOT")


def test_h_on_zero_gives_plus():
    out = apply(basis_state(1, 0), GateApplication(H, (0,)))
    assert np.allclose(out.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_x_is_not():
    for j in (0, 1):
        out = apply(basis_state(1, j), GateApplication(X, (0,)))
        assert np.allclose(out.amps, basis_state(1, j ^ 1).amps)


def test_swap_example():
    out = apply(basis_state(2, 0b01), GateApplication(SWAP, (0, 1)))
    assert np.allclose(out.amps, basis_state(2, 0b10).amps)


def test_u_gate_reproduces_h():
    assert np.max(np.abs(u_gate(np.pi / 2, 0, np.pi).matrix - H.matrix)) <= 1e-12


def test_u_gate_quarter_probability():
    out = apply(basis_state(1, 0), GateApplication(u_gate(2 * np.pi / 3, 0, 0), (0,)))
    dist = probabilities(out)
    assert dist.prob("0") == pytest.approx(0.25)
    assert dist.prob("1") == pytest.approx(0.75)


def test_rz_zero_is_identity():
    assert np.allclose(rz(0.0).matrix, np.eye(2))


def test_rotations_match_u_gate():
    theta = 1.234
    assert np.allclose(rx(theta).matrix, u_gate(theta, -np.pi / 2, np.pi / 2).matrix)
    assert np.allclose(ry(theta).matrix, u_gate(theta, 0, 0).matrix)


def test_rk_phase_ladder():
    assert np.max(np.abs(rk_phase(0).matrix - np.eye(2))) <= 1e-12
    assert np.max(np.abs(rk_phase(1).matrix - Z.matrix)) <= 1e-12
    assert np.max(np.abs(rk_phase(2).matrix - standard_gate("S").matrix)) <= 1e-12
    assert np.max(np.abs(rk_phase(3).matrix - standard_gate("T").matrix)) <= 1e-12
    for k in range(6):
        squared = rk_phase(k + 1).matrix @ rk_phase(k + 1).matrix
        assert np.max(np.abs(squared - rk_phase(k).matrix)) <= 1e-12


def test_cnot_builds_bell_pair():
    plus0 = apply(basis_state(2, 0), GateApplication(H, (0,)))
    bell = apply(plus0, GateApplication(X, (1,), ((0, 1),)))
    assert np.allclose(bell.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_negative_control():
    for ell in (0, 1):
        out = apply(basis_state(2, ell), GateApplication(X, (1,), ((0, 0),)))
        assert np.allclose(out.amps, basis_state(2, ell ^ 1).amps)


def test_toffoli():
    out = apply(basis_state(3, 0b110), GateApplication(X, (2,), ((0, 1), (1, 1))))
    assert np.allclose(out.amps, basis_state(3, 0b111).amps)
    out = apply(basis_state(3, 0b100), GateApplication(X, (2,), ((0, 1), (1, 1))))
    assert np.allclose(out.amps, basis_state(3, 0b100).amps)


def test_is_unitary_rejects_scaling():
    assert not is_unitary(np.diag([1.0, 2.0]), 1e-10)
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


def test_gate_constructor_rejects_nonunitary():
    with pytest.raises(ValueError):
        Gate("bad", np.array([[1, 0], [0, 2]], dtype=complex))


def test_overlapping_targets_and_controls():
    with pytest.raises(ValueError):
        GateApplication(X, (0,), ((0, 1),))
    with pytest.raises(ValueError):
        GateApplication(SWAP, (1, 1))


def test_apply_preserves_norm_on_random_pairs(rng):
    gates = [H, X, Z, SWAP, standard_gate("S"), standard_gate("T"), u_gate(0.3, 1.1, -0.4)]
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        psi = random_state(n, rng)
        gate = gates[int(rng.integers(len(gates)))]
        if gate.arity > n:
            gate = H
        qubits = rng.permutation(n)
        targets = tuple(int(q) for q in qubits[: gate.arity])
        spare = [int(q) for q in qubits[gate.arity :]]
        controls = tuple((q, int(rng.integers(2))) for q in spare[: int(rng.integers(0, len(spare) + 1))])
        out = apply(psi, GateApplication(gate, targets, controls))
        assert abs(out.norm() - 1.0) <= 1e-10


def test_unsatisfied_controls_leave_amplitudes_bit_identical(rng):
    psi = random_state(3, rng)
    # control demands qubit 0 = 1, but we only populate the 0-branch
    amps = psi.amps.copy()
    amps[4:] = 0
    amps /= np.linalg.norm(amps)
    from qsim.qstate import StateVector

    pinned = StateVector(3, amps)
    out = apply(pinned, GateApplication(H, (1,), ((0, 1),)))
    assert np.array_equal(out.amps, pinned.amps)


def test_conjugation_identities():
    assert np.max(np.abs(H.matrix @ X.matrix @ H.matrix - Z.matrix)) <= 1e-12

    eye = np.eye(2)
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    ih = np.kron(eye, H.matrix)
    assert np.max(np.abs(ih @ cnot @ ih - cz)) <= 1e-12

    hh = np.kron(H.matrix, H.matrix)
    cnot_flipped = np.zeros((4, 4), dtype=complex)
    cnot_flipped[0, 0] = cnot_flipped[2, 2] = cnot_flipped[1, 3] = cnot_flipped[3, 1] = 1
    assert np.max(np.abs(hh @ cnot @ hh - cnot_flipped)) <= 1e-12


def test_dagger():
    t = standard_gate("T")
    assert np.allclose(dagger(t).matrix, standard_gate("Tdg").matrix)


def test_ops_and_operators_compare_and_hash_by_identity():
    """Equal but distinct ops are different ops; comparing or hashing one never reads its arrays."""
    from qsim.oracles import PermutationOracle, XorOracle

    a, b = GateApplication(standard_gate("H"), (0,)), GateApplication(standard_gate("H"), (0,))
    assert a != b and a == a and len({a, b, a}) == 2
    # the same gate on the same qubit, twice: still two ops
    assert GateApplication(H, (0,), ((1, 1),)) != GateApplication(H, (0,), ((1, 1),))
    assert standard_gate("H") != standard_gate("H")
    assert PermutationOracle(1, [1, 0]) != PermutationOracle(1, [1, 0])
    assert XorOracle([0, 1], 1) != XorOracle([0, 1], 1)
    oracle = XorOracle([0, 1], 1)
    assert len({H, oracle, PermutationOracle(1, [1, 0]), oracle}) == 3
