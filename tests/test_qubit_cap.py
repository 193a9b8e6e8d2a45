"""The qubit cap holds on every path, before any 2**n allocation.

Each case sets a small ``QSIM_MAX_QUBITS`` and replaces the first expensive
step after the check with a tripwire, so the test shows both that the request
is refused and that nothing was built first.
"""

from importlib import import_module

import numpy as np
import pytest

from qsim import algorithms as alg
from qsim import cli
from qsim.circuit import Circuit, ResourceLimitError, require_qubits, simulate
from qsim.gates import GateApplication, rk_phase
from qsim.oracles import (
    And,
    Or,
    PermutationOracle,
    TruthTable,
    Var,
    Xor,
    expr_phase_oracle,
    expr_to_circuit,
    modexp_oracle,
    modmul_oracle,
    xor_permutation_oracle,
)
from qsim.qstate import basis_state, kron

# the package re-exports drivers under their module names, so fetch the modules
common_mod, grover_mod, qpe_mod, shor_mod = (
    import_module(f"qsim.algorithms.{name}") for name in ("common", "grover", "qpe", "shor")
)
oracles_mod, qstate_mod = import_module("qsim.oracles"), import_module("qsim.qstate")


def cap(monkeypatch, n):
    monkeypatch.setenv("QSIM_MAX_QUBITS", str(n))


def tripwire(monkeypatch, module, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran past the qubit cap")

    monkeypatch.setattr(module, name, fail)


def test_require_qubits_at_and_over_the_cap(monkeypatch):
    cap(monkeypatch, 5)
    require_qubits(5)
    with pytest.raises(ResourceLimitError, match="6 qubits exceeds the cap 5"):
        require_qubits(6)


def test_shor_round_refused_before_the_oracle(monkeypatch):
    cap(monkeypatch, 12)
    tripwire(monkeypatch, shor_mod, "modexp_oracle")
    with pytest.raises(ResourceLimitError):
        alg.shor_quantum_part(2, 21)
    with pytest.raises(ResourceLimitError):
        alg.shor_factor(21, base=2)


def test_shor_round_at_the_cap_runs(monkeypatch):
    cap(monkeypatch, 14)
    answer = alg.shor_quantum_part(2, 21).answer
    assert answer["m"] + answer["n"] == 14


def test_modexp_oracle(monkeypatch):
    cap(monkeypatch, 13)
    with pytest.raises(ResourceLimitError):
        modexp_oracle(2, 21, 512)


def test_dlog_function_oracle(monkeypatch):
    cap(monkeypatch, 13)
    with pytest.raises(ResourceLimitError):
        shor_mod._dlog_function_oracle(34, 27, 3, 4, 6)
    with pytest.raises(ResourceLimitError):
        alg.shor_dlog_pow2(34, 27, 3)


def test_apply_permutation(monkeypatch):
    cap(monkeypatch, 4)
    flip = PermutationOracle(1, np.array([1, 0]))
    with pytest.raises(ResourceLimitError):
        simulate(Circuit(5, [GateApplication(flip, (0,))]), basis_state(5, 0))


def test_counting_refused_before_the_dense_step(monkeypatch):
    cap(monkeypatch, 4)
    tripwire(monkeypatch, qpe_mod, "_GroverStep")
    with pytest.raises(ResourceLimitError):
        alg.quantum_counting(["01"], 2, m=3)


def test_phase_estimation_routes(monkeypatch):
    cap(monkeypatch, 11)
    tripwire(monkeypatch, qpe_mod, "kron")
    tripwire(monkeypatch, qpe_mod, "modmul_oracle")
    with pytest.raises(ResourceLimitError):
        alg.qpe_order_finding(7, 15)
    with pytest.raises(ResourceLimitError):
        alg.qpe_dlog(34, 27, 3, 4)
    with pytest.raises(ResourceLimitError):
        alg.qpe(rk_phase(3), basis_state(1, 1), 11)


@pytest.mark.parametrize("variant, width", [("economical", 4), ("standard", 5)])
def test_grover_refused_before_any_circuit(monkeypatch, variant, width):
    cap(monkeypatch, width - 1)
    tripwire(monkeypatch, grover_mod, "grover_circuit")
    with pytest.raises(ResourceLimitError):
        alg.grover(["0110"], 4, variant=variant)


def test_grover_degenerate_draw_is_capped(monkeypatch):
    cap(monkeypatch, 3)
    with pytest.raises(ResourceLimitError):
        alg.grover(["0000", "0001", "0010", "0011", "0100", "0101", "0110", "0111", "1000"], 4)


@pytest.mark.parametrize(
    "expr, n_vars, ancillas",
    [
        (Var(2), 3, 0),  # a bare variable compiles to no ancilla
        (And(Var(0), Var(1)), 2, 1),
        (And(Or(Var(0), Var(1)), Xor(Var(2), Var(3))), 4, 3),  # OR, XOR and AND ancillas
    ],
    ids=["no-ancilla", "one-ancilla", "three-ancillas"],
)
def test_sat_refused_before_the_search_circuit(monkeypatch, expr, n_vars, ancillas):
    """The search runs on the variable qubits alone, but the cap counts the compiled ancillas."""
    assert expr_to_circuit(expr, n_vars=n_vars)[2] == ancillas
    width = n_vars + ancillas
    cap(monkeypatch, width)
    alg.sat_solve(expr, n_vars, seed=1)  # at the cap it runs
    cap(monkeypatch, width - 1)
    tripwire(monkeypatch, grover_mod, "diffusion_ops")
    with pytest.raises(ResourceLimitError, match=f"{width} qubits exceeds the cap {width - 1}"):
        alg.sat_solve(expr, n_vars)


def test_simon_refused_before_the_state(monkeypatch):
    table = TruthTable.from_function(3, 3, lambda x: format(min(int(x, 2), int(x, 2) ^ 0b110), "03b"))
    run = lambda: alg.simon(xor_permutation_oracle(table), 3, lambda x: table.rows[int(x, 2)])
    tripwire(monkeypatch, common_mod, "simulate")  # the round's state is built there
    cap(monkeypatch, 6)
    with pytest.raises(AssertionError, match="ran past"):  # at the cap the tripwire is reached
        run()
    cap(monkeypatch, 5)
    with pytest.raises(ResourceLimitError):
        run()


def test_basis_state(monkeypatch):
    cap(monkeypatch, 4)
    assert basis_state(4, 3).num_qubits == 4
    tripwire(monkeypatch, qstate_mod, "StateVector")
    with pytest.raises(ResourceLimitError, match="10 qubits exceeds the cap 4"):
        basis_state(10, 3)


def test_kron(monkeypatch):
    cap(monkeypatch, 4)
    a, b = basis_state(3, 1), basis_state(3, 5)
    assert kron(basis_state(2, 1), basis_state(2, 2)).num_qubits == 4
    tripwire(monkeypatch, qstate_mod, "StateVector")
    with pytest.raises(ResourceLimitError, match="6 qubits exceeds the cap 4"):
        kron(a, b)


def test_modmul_oracle(monkeypatch):
    cap(monkeypatch, 4)
    assert modmul_oracle(2, 15).arity == 4
    tripwire(monkeypatch, oracles_mod, "PermutationOracle")
    with pytest.raises(ResourceLimitError, match="10 qubits exceeds the cap 4"):
        modmul_oracle(2, 1001)


def test_expr_phase_oracle(monkeypatch):
    cap(monkeypatch, 4)
    expr_phase_oracle(Var(0), 4)
    tripwire(monkeypatch, oracles_mod, "_bitstring")  # the first of the 2**n rows
    with pytest.raises(ResourceLimitError, match="10 qubits exceeds the cap 4"):
        expr_phase_oracle(Var(0), 10)


def test_simon_hidden_string_refused_before_the_table(monkeypatch, capsys):
    cap(monkeypatch, 9)
    tripwire(monkeypatch, TruthTable, "from_function")
    assert cli.main(["simon", "--s", "10101"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 10 qubits exceeds the cap 9\n")


@pytest.mark.parametrize(
    "call, width",
    [
        (lambda: alg.shor_dlog_pow2(2147483647, 7, 49), 33),  # the narrowest circuit: m = 1
        (lambda: alg.qpe_dlog(2147483647, 7, 49, 5), 41),
    ],
    ids=["shor_dlog_pow2", "qpe_dlog"],
)
def test_dlog_refused_before_the_order_search(monkeypatch, call, width):
    cap(monkeypatch, 20)
    tripwire(monkeypatch, shor_mod, "mult_order")
    tripwire(monkeypatch, qpe_mod, "mult_order")
    with pytest.raises(ResourceLimitError, match=f"{width} qubits exceeds the cap 20"):
        call()


def test_dlog_of_a_unit_base_needs_no_circuit(monkeypatch):
    cap(monkeypatch, 20)
    tripwire(monkeypatch, common_mod, "simulate")  # the round's state is built there
    with pytest.raises(AssertionError, match="ran past"):  # a base of order 4 builds the circuit
        alg.shor_dlog_pow2(17, 4, 16)
    assert alg.shor_dlog_pow2(2147483647, 1, 1).answer == {"s": 1, "r1": 0, "r2": 0, "r": 1}


def test_dlog_cli_refused_before_the_order_search(monkeypatch, capsys):
    cap(monkeypatch, 20)
    tripwire(monkeypatch, shor_mod, "mult_order")
    assert cli.main(["dlog", "--N", "2147483647", "--a", "7", "--b", "49"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 33 qubits exceeds the cap 20\n")
