"""XOR oracles kept as their value table, and the inverse transform built once per width.

The ``"xor"`` kernel must move amplitudes exactly as the index-arithmetic
reference moves them under the full permutation (``reference_xor_oracle``),
on the trailing qubits (a chunked gather) and elsewhere (the ``"map"``
scatter). The drivers must give the raw bits of the full-permutation oracles.
With an inverse transform rebuilt on every call, which runs gate by gate
instead of as the FFT, they must give the same answers and laws to 1e-12.
"""

import functools
import importlib

import numpy as np
import pytest
import qsim.algorithms.qft
import qsim.algorithms.shor
import qsim.gates
import qsim.oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import algorithms as alg
from qsim.algorithms.qft import inverse_qft_circuit, inverse_qft_registers
from qsim.algorithms.shor import _dlog_function_oracle
from qsim.circuit import Circuit, simulate, unitary_of
from qsim.gates import Gate
from qsim.oracles import PermutationOracle, TruthTable, XorOracle, modexp_oracle, xor_permutation_oracle

from conftest import random_state
from slow_reference import (
    reference_apply_permutation,
    reference_dlog_values,
    reference_inverse_qft_circuit,
    reference_inverse_qft_registers,
    reference_modexp_values,
    reference_run,
    reference_xor_oracle,
)


def _same_bits(fast, slow):
    return fast.dtype == slow.dtype and np.array_equal(fast.view(np.uint64), slow.view(np.uint64))


@st.composite
def xor_cases(draw, max_qubits=8):
    """An n-qubit state, an XOR oracle of width k <= n, and its targets and controls.

    Half the cases put the oracle on the trailing k qubits; the rest on k
    qubits in any order (the ``"map"`` fallback, or trailing by chance)."""
    n = draw(st.integers(1, max_qubits))
    k = draw(st.integers(1, n))
    m = draw(st.integers(0, k))
    values = np.array(draw(st.lists(st.integers(0, (1 << k - m) - 1), min_size=1 << m, max_size=1 << m)), dtype=np.int64)
    if draw(st.booleans()):
        targets = tuple(range(n - k, n))
        rest = list(range(n - k))
    else:
        order = draw(st.permutations(range(n)))
        targets, rest = tuple(order[:k]), list(order[k:])
    n_controls = draw(st.integers(0, len(rest)))
    controls = tuple((q, draw(st.integers(0, 1))) for q in rest[:n_controls])
    s = random_state(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return s, XorOracle(values, k - m), targets, controls


@settings(max_examples=200, deadline=None)
@given(xor_cases())
def test_xor_kernel_matches_the_reference_exactly(case):
    s, oracle, targets, controls = case
    c = Circuit(s.num_qubits).append(oracle, targets, controls)
    slow = reference_apply_permutation(s, reference_xor_oracle(oracle.values, oracle.n_out), targets, controls)
    assert _same_bits(simulate(c, s).amps, slow.amps)


@settings(max_examples=40, deadline=None)
@given(xor_cases(max_qubits=7))
def test_xor_kernel_on_a_batch_of_columns(case):
    """unitary_of runs every basis column at once on the view's batch axis."""
    s, oracle, targets, controls = case
    c = Circuit(s.num_qubits).append(oracle, targets, controls)
    assert _same_bits(unitary_of(c), reference_run(np.eye(1 << s.num_qubits, dtype=complex), c))


# (n, m, n_out, controls): several chunks of rows, several leading axes, or both
CHUNKED_CASES = [
    (16, 10, 6, ()),  # full width: four chunks of 256 rows
    (16, 9, 6, ()),  # one free leading qubit, two chunks each
    (16, 9, 6, ((0, 0),)),
    (16, 8, 4, ((1, 1), (3, 0))),  # two free leading qubits under two controls
    (16, 4, 11, ((0, 1),)),  # chunks of 8 rows of 2**11 amplitudes
]


@pytest.mark.parametrize("n,m,n_out,controls", CHUNKED_CASES)
def test_xor_gather_walks_chunks_exactly(monkeypatch, n, m, n_out, controls):
    """Trailing targets never build the 2**(m + n_out) mapping; the result has the reference's bits."""
    rng = np.random.default_rng(n * m + n_out)
    oracle = XorOracle(rng.integers(0, 1 << n_out, size=1 << m), n_out)
    targets = tuple(range(n - m - n_out, n))
    built, real = [], qsim.gates.xor_mapping
    monkeypatch.setattr(qsim.gates, "xor_mapping", lambda *a: built.append(a[1]) or real(*a))
    psi = random_state(n, rng)
    fast = simulate(Circuit(n).append(oracle, targets, controls), psi)
    slow = reference_apply_permutation(psi, reference_xor_oracle(oracle.values, n_out), targets, controls)
    assert built == [] and _same_bits(fast.amps, slow.amps)


def test_xor_on_other_targets_runs_the_map_scatter(monkeypatch):
    oracle = XorOracle(np.array([3, 0, 1, 1]), 2)
    built, real = [], qsim.gates.xor_mapping
    monkeypatch.setattr(qsim.gates, "xor_mapping", lambda *a: built.append(a[1]) or real(*a))
    psi = random_state(6, np.random.default_rng(6))
    fast = simulate(Circuit(6).append(oracle, (5, 0, 3, 2), ((1, 0),)), psi)
    slow = reference_apply_permutation(psi, reference_xor_oracle(oracle.values, 2), (5, 0, 3, 2), ((1, 0),))
    assert built == [2] and _same_bits(fast.amps, slow.amps)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_mapping_has_the_bytes_of_the_full_permutation(m, n_out, seed):
    values = np.random.default_rng(seed).integers(0, 1 << n_out, size=1 << m)
    oracle = XorOracle(values, n_out)
    reference = reference_xor_oracle(values, n_out)
    assert oracle.total_qubits == oracle.arity == reference.total_qubits
    assert oracle.mapping.dtype == reference.mapping.dtype
    assert oracle.mapping.tobytes() == reference.mapping.tobytes()
    assert oracle.is_involution() and reference.is_involution()


def test_power_follows_parity_and_the_inverse_is_the_oracle():
    oracle = XorOracle(np.array([1, 2, 3, 0]), 2)
    for e in (1, 3, -1, -3):
        assert oracle.power(e) is oracle
    for e in (0, 2, -2):
        identity = oracle.power(e)
        assert identity.n_out == 2 and np.array_equal(identity.mapping, np.arange(16))
    c = Circuit(5).h(0).append(oracle, (1, 2, 3, 4), ((0, 1),))
    inverse = c.inverse_ops()
    assert inverse[0].gate is oracle and inverse[0].targets == (1, 2, 3, 4) and inverse[0].controls == ((0, 1),)
    psi = random_state(5, np.random.default_rng(5))
    assert np.allclose(simulate(Circuit(5, c.ops + inverse), psi).amps, psi.amps, atol=1e-12)


@pytest.mark.parametrize(
    "values, n_out, message",
    [
        ([0, 4], 2, r"\[0, 2\*\*2\)"),  # equal to 2**n_out
        ([9, 1, 0, 2], 3, r"\[0, 2\*\*3\)"),
        ([0, -1], 2, r"\[0, 2\*\*2\)"),
        ([0, 1, 2], 2, "power of 2"),
        ([], 2, "power of 2"),
    ],
)
def test_values_outside_the_output_register_are_refused(values, n_out, message):
    with pytest.raises(ValueError, match=message):
        XorOracle(np.array(values, dtype=np.int64), n_out)


@pytest.mark.parametrize("a, modulus, q", [(2, 21, 512), (13, 21, 512), (2, 85, 8192), (7, 15, 256), (4, 9, 128), (22, 21, 64)])
def test_modexp_values_equal_the_loop(a, modulus, q):
    oracle = modexp_oracle(a, modulus, q)
    assert np.array_equal(oracle.values, reference_modexp_values(a, modulus, q))
    assert oracle.values.dtype == np.int64


@pytest.mark.parametrize("modulus, a, b, m", [(34, 27, 3, 4), (97, 8, 8**11 % 97, 5), (17, 3, 3**5 % 17, 4), (17, 16, 1, 1)])
def test_dlog_values_equal_the_double_loop(modulus, a, b, m):
    n = (modulus - 1).bit_length()
    oracle = _dlog_function_oracle(modulus, a, b, m, n)
    assert np.array_equal(oracle.values, reference_dlog_values(modulus, a, b, m))
    assert oracle.values.dtype == np.int64 and oracle.total_qubits == 2 * m + n


PAPER_TABLE = TruthTable(3, 3, ("000", "001", "010", "100", "010", "100", "000", "001"))
FOUR_BIT_TABLE = TruthTable.from_function(4, 4, lambda x: min(int(x, 2), int(x, 2) ^ 0b1011))

DRIVERS = [
    pytest.param(functools.partial(alg.shor_quantum_part, 2, 21, seed=5), id="shor_quantum_part-21"),
    pytest.param(functools.partial(alg.shor_quantum_part, 7, 33, seed=2), id="shor_quantum_part-33"),
    pytest.param(functools.partial(alg.qpe_order_finding, 2, 21, seed=5), id="qpe_order_finding-21"),
    pytest.param(functools.partial(alg.shor_factor, 21, seed=3), id="shor_factor-21"),
    pytest.param(functools.partial(alg.shor_factor, 33, seed=1, base=5), id="shor_factor-33"),
    pytest.param(functools.partial(alg.shor_dlog_pow2, 34, 27, 3, seed=4), id="shor_dlog_pow2-34"),
    pytest.param(functools.partial(alg.shor_dlog_pow2, 17, 3, 3**5 % 17, seed=1), id="shor_dlog_pow2-17"),
    pytest.param(functools.partial(alg.qpe_dlog, 34, 27, 3, 4, seed=4), id="qpe_dlog-34"),
    pytest.param(functools.partial(alg.simon, xor_permutation_oracle(PAPER_TABLE), 3, lambda x: PAPER_TABLE.rows[int(x, 2)], seed=6), id="simon-3"),
    pytest.param(
        functools.partial(alg.simon, xor_permutation_oracle(FOUR_BIT_TABLE), 4, lambda x: FOUR_BIT_TABLE.rows[int(x, 2)], seed=2),
        id="simon-4",
    ),
]


def _same_results(fast, slow):
    return fast.answer == slow.answer and fast.rounds_used == slow.rounds_used and fast.success == slow.success


@pytest.mark.parametrize("driver", DRIVERS)
def test_drivers_match_full_permutations_bit_for_bit(monkeypatch, driver):
    fast = driver()
    for module in (qsim.oracles, qsim.algorithms.shor):
        monkeypatch.setattr(module, "_xor_oracle", reference_xor_oracle)
    slow = driver()
    assert _same_results(fast, slow)
    assert _same_bits(fast.exact_distribution.values, slow.exact_distribution.values)


@pytest.mark.parametrize("driver", DRIVERS)
def test_drivers_match_a_rebuilt_transform(monkeypatch, driver):
    """A transform rebuilt from fresh ops runs gate by gate, not as the FFT: the same answers, laws to 1e-12."""
    fast = driver()
    for module in (qsim.algorithms.qft, qsim.algorithms.shor):
        monkeypatch.setattr(module, "inverse_qft_circuit", reference_inverse_qft_circuit)
    # the package's ``qpe`` function hides the module of that name
    for module in (qsim.algorithms.shor, importlib.import_module("qsim.algorithms.qpe")):
        monkeypatch.setattr(module, "inverse_qft_registers", reference_inverse_qft_registers)
    slow = driver()
    assert _same_results(fast, slow)
    assert np.max(np.abs(fast.exact_distribution.values - slow.exact_distribution.values)) <= 1e-12


def test_a_shor_round_builds_no_permutation(monkeypatch):
    built, real = [], PermutationOracle.__post_init__
    monkeypatch.setattr(PermutationOracle, "__post_init__", lambda self: built.append(self) or real(self))
    alg.shor_quantum_part(2, 21, seed=1)
    assert built == []


def _same_ops(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_the_inverse_transform_is_built_once_per_width(monkeypatch):
    first = inverse_qft_circuit(13)
    built, real = [], Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda self: built.append(self.name) or real(self))
    second = inverse_qft_circuit(13)
    assert built == []
    assert second is not first and _same_ops(second.ops, first.ops)
    assert [op.gate.name for op in second.ops] == [op.gate.name for op in reference_inverse_qft_circuit(13).ops]


def test_a_returned_inverse_transform_can_be_extended_without_changing_the_next(rng):
    c = inverse_qft_circuit(5)
    before = list(c.ops)
    c.h(0).swap(1, 2)
    c.ops.reverse()
    assert _same_ops(inverse_qft_circuit(5).ops, before)
    psi = random_state(5, rng)
    fast, slow = simulate(inverse_qft_circuit(5), psi).amps, simulate(reference_inverse_qft_circuit(5), psi).amps
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_an_empty_inverse_transform_is_refused():
    with pytest.raises(ValueError):
        inverse_qft_circuit(0)
    # a register that starts past qubit 0 is built on its own, not shifted from a checked one
    for starts in ((2,), ()):
        with pytest.raises(ValueError):
            inverse_qft_registers(0, 4, starts)
