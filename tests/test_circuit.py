import numpy as np
import pytest

from qsim.circuit import (
    Circuit,
    ResourceLimitError,
    circuit_text,
    equiv_up_to_phase,
    run,
    simulate,
    unitary_of,
)
from qsim.gates import is_unitary, standard_gate
from qsim.oracles import PermutationOracle
from qsim.qstate import basis_state, probabilities

def bell_circuit():
    c = Circuit(2)
    c.h(0)
    c.cx(0, 1)
    return c


def test_simulate_h():
    c = Circuit(1).h(0)
    assert np.allclose(simulate(c).amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_simulate_bell():
    assert np.allclose(simulate(bell_circuit()).amps, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_hxh_is_z_up_to_phase():
    c = Circuit(1)
    c.h(0)
    c.x(0)
    c.h(0)
    for ell in (0, 1):
        out = simulate(c, basis_state(1, ell))
        expected = basis_state(1, ell).amps * (-1) ** ell
        assert equiv_up_to_phase(out.amps, expected, 1e-12)


def test_simulate_rejects_mismatched_initial():
    with pytest.raises(ValueError):
        simulate(bell_circuit(), basis_state(3, 0))


def test_measurements_are_terminal():
    c = bell_circuit().measure([0, 1])
    with pytest.raises(ValueError):
        c.h(0)


def test_extend_refuses_ops_after_a_measurement():
    c = Circuit(3).measure([0])
    with pytest.raises(ValueError, match="terminal"):
        c.extend(bell_circuit())
    with pytest.raises(ValueError, match="terminal"):
        c.extend(Circuit(4).h(0))
    assert c.ops == []


def test_extend_checks_each_op_of_a_wider_circuit():
    c = Circuit(3).extend(Circuit(5).h(0).cx(1, 2))  # wider, but every op fits
    assert [op.qubits() for op in c.ops] == [[0], [2, 1]]
    with pytest.raises(ValueError, match="outside the circuit"):
        c.extend(Circuit(5).cx(0, 4))


def test_extend_by_a_no_wider_circuit_appends_its_ops_in_order():
    body = bell_circuit()
    c = Circuit(3).x(2).extend(body).extend(body)
    assert c.ops[1:] == body.ops + body.ops


def test_run_bell_counts():
    shots = 100_000
    dist = run(bell_circuit().measure([0, 1]), shots, seed=11)
    assert dist.shots == shots
    assert set(dist.entries) == {"00", "11"}
    sigma = 3 * np.sqrt(shots * 0.25)
    assert abs(dist.entries["00"] - shots / 2) <= sigma
    assert abs(dist.entries["11"] - shots / 2) <= sigma


def test_run_x_always_one():
    c = Circuit(1).x(0).measure([0])
    dist = run(c, 500, seed=1)
    assert dist.entries == {"1": 500}


def test_run_is_deterministic_in_seed():
    c = bell_circuit().measure([0, 1])
    assert run(c, 4096, seed=7).entries == run(c, 4096, seed=7).entries
    assert run(c, 4096, seed=7).entries != run(c, 4096, seed=8).entries


def test_run_requires_measurements():
    with pytest.raises(ValueError):
        run(bell_circuit(), 10, seed=0)


def test_run_shot_cap():
    with pytest.raises(ResourceLimitError):
        run(bell_circuit().measure([0]), 10**7 + 1, seed=0)


def test_run_frequencies_converge_to_exact():
    from qsim.algorithms.deutsch import bv_circuit, dj_circuit
    from qsim.algorithms.grover import grover_circuit
    from qsim.oracles import TruthTable, synth_bit_oracle, synth_bv_oracle

    shots = 100_000
    dj_oracle = synth_bit_oracle(TruthTable.from_function(3, 1, lambda x: x[1]))
    circuits = [
        bell_circuit().measure([0, 1]),
        Circuit(3).h(0).h(1).h(2).measure([0, 1, 2]),
        Circuit(2).h(0).cx(0, 1).h(0).measure([0, 1]),
        grover_circuit(["101"], 3, 1),
        dj_circuit(dj_oracle, 3),
        bv_circuit(synth_bv_oracle("101"), 3, economical=True),
    ]
    for c in circuits:
        exact_state = simulate(c)
        from qsim.qstate import marginal_probs

        probs = marginal_probs(exact_state, c.measurements)
        width = len(c.measurements)
        exact = {format(i, f"0{width}b"): p for i, p in enumerate(probs)}
        sampled = run(c, shots, seed=3)
        tv = 0.5 * sum(
            abs(exact.get(k, 0.0) - sampled.entries.get(k, 0) / shots)
            for k in set(exact) | set(sampled.entries)
        )
        assert tv <= 0.01


def test_unitary_of_cnot_block_matrix():
    c = Circuit(2).cx(0, 1)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[2, 3] = expected[3, 2] = 1
    assert np.allclose(unitary_of(c), expected)


def test_unitary_of_empty_circuit():
    assert np.allclose(unitary_of(Circuit(3)), np.eye(8))


def test_swap_via_three_cnots():
    c = Circuit(2)
    c.cx(0, 1)
    c.append(standard_gate("X"), (0,), ((1, 1),))
    c.cx(0, 1)
    assert np.max(np.abs(unitary_of(c) - standard_gate("SWAP").matrix)) <= 1e-12


def test_unitary_of_is_unitary(rng):
    for _ in range(10):
        c = Circuit(4)
        for _ in range(12):
            q = int(rng.integers(4))
            c.h(q) if rng.integers(2) else c.cx(q, (q + 1) % 4)
        assert is_unitary(unitary_of(c), 1e-9)


def test_composition_reverse_order():
    c1 = Circuit(2).h(0)
    c2 = Circuit(2).cx(0, 1)
    both = Circuit(2).h(0).cx(0, 1)
    assert np.max(np.abs(unitary_of(both) - unitary_of(c2) @ unitary_of(c1))) <= 1e-10


def test_unitary_cap():
    with pytest.raises(ResourceLimitError):
        unitary_of(Circuit(13))


def test_qubit_cap_env_override(monkeypatch):
    monkeypatch.setenv("QSIM_MAX_QUBITS", "3")
    with pytest.raises(ResourceLimitError):
        simulate(Circuit(4))
    monkeypatch.delenv("QSIM_MAX_QUBITS")
    simulate(Circuit(4))


def test_equiv_up_to_phase():
    z = standard_gate("Z").matrix
    assert equiv_up_to_phase(-z, z, 1e-12)
    assert not equiv_up_to_phase(standard_gate("H").matrix, standard_gate("X").matrix, 1e-6)
    phase = np.exp(0.42j)
    assert equiv_up_to_phase(phase * z, z, 1e-12)


def test_equiv_economical_deutsch_operator():
    # H diag(1,-1) H = X up to sign for a balanced 1-bit function
    h = standard_gate("H").matrix
    for signs in ([1, -1], [-1, 1]):
        op = h @ np.diag(signs).astype(complex) @ h
        assert equiv_up_to_phase(op, standard_gate("X").matrix, 1e-12)


def test_circuit_text():
    c = Circuit(3)
    c.h(0)
    c.mcx(((0, 1), (1, 0)), 2)
    c.append(PermutationOracle(2, np.array([1, 2, 3, 0])), (2, 1), ((0, 1),))
    text = circuit_text(c)
    assert text.splitlines() == [
        "H targets=[0] controls=[]",
        "X targets=[2] controls=[(0,+),(1,-)]",
        "oracle targets=[2,1] controls=[(0,+)]",
    ]
