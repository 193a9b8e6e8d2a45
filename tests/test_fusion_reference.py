"""The memoized fusion pass against ``slow_reference.reference_fusion``.

``circuit._kernels`` memoizes products and flushes by object identity within
one call. It must emit the reference's kernel stream exactly: same kinds,
targets and controls, and operands with the same dtype and bytes. The Grover
and SAT drivers, whose iterate repeats the same op objects, must give laws and
answers with the same raw bits under either pass.
"""

import functools
import importlib

import numpy as np
import pytest
import qsim.circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import algorithms as alg
from qsim.algorithms.qft import inverse_qft_circuit, qft_circuit
from qsim.circuit import Circuit, _kernels
from qsim.oracles import And, Not, Or, Var

from slow_reference import reference_fusion
from test_gate_kernels import _one_qubit_gate, circuits

GROVER_CASES = [
    (["1011010"], 7, "economical"),
    (["0000000", "0110101", "1011010", "1100011", "1111111"], 7, "economical"),
    (["101101"], 6, "standard"),
    (["000000", "010101", "101101", "110011", "111111"], 6, "standard"),
]
# the package exports the function ``grover`` under the module's name
GROVER_MODULE = importlib.import_module("qsim.algorithms.grover")
# one model, 111101, of 6 variables: a first guess of one model runs 6 iterates of 18 ops
SAT = And(
    Or(Not(Var(0)), Var(2)), Or(Var(3), Var(0)), Or(Var(4), Var(5)), Or(Not(Var(5)), Var(3)),
    Or(Var(1), Not(Var(0))), Or(Not(Var(3)), Var(0)), Or(Not(Var(4)), Not(Var(1))),
)


def _stream(kernels):
    return [
        (kind, targets, controls, operand.dtype, operand.tobytes()) if isinstance(operand, np.ndarray) else (kind, targets, controls, operand)
        for kind, operand, targets, controls in kernels
    ]


def _same_stream(c: Circuit) -> bool:
    return _stream(_kernels(c.ops)) == _stream(reference_fusion(c.ops))


DRIVERS = [
    *(
        pytest.param(functools.partial(alg.grover, marked, n, variant=variant, seed=7), id=f"grover-{variant}-M{len(marked)}")
        for marked, n, variant in GROVER_CASES
    ),
    pytest.param(functools.partial(alg.sat_solve, SAT, 6, m_known=1, seed=3), id="sat-known"),
    pytest.param(functools.partial(alg.sat_solve, SAT, 6, seed=3), id="sat-doubling"),
]


@pytest.mark.parametrize("driver", DRIVERS)
def test_driver_circuits_fuse_to_the_reference_stream(monkeypatch, driver):
    seen = []
    real = GROVER_MODULE.simulate
    monkeypatch.setattr(GROVER_MODULE, "simulate", lambda c: seen.append(c) or real(c))
    driver()
    assert seen and all(len(c.ops) > 40 for c in seen)
    assert all(_same_stream(c) for c in seen)


@pytest.mark.parametrize("driver", DRIVERS)
def test_driver_laws_match_the_reference_pass_bit_for_bit(monkeypatch, driver):
    fast = driver()
    monkeypatch.setattr(qsim.circuit, "_kernels", reference_fusion)
    slow = driver()
    assert fast.answer == slow.answer and fast.rounds_used == slow.rounds_used
    assert np.array_equal(fast.exact_distribution.values.view(np.uint64), slow.exact_distribution.values.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_fourier_transforms_fuse_to_the_reference_stream(n):
    assert _same_stream(qft_circuit(n))
    assert _same_stream(inverse_qft_circuit(n))


@st.composite
def repeated_circuits(draw):
    """A random body appended 1-4 times, with an optional 1-qubit gate between copies."""
    body = draw(circuits())
    n = body.num_qubits
    c = Circuit(n)
    for _ in range(draw(st.integers(1, 4))):
        c.extend(body)
        if draw(st.booleans()):
            c.append(_one_qubit_gate(draw), (draw(st.integers(0, n - 1)),))
    return c


@settings(max_examples=150, deadline=None)
@given(repeated_circuits())
def test_repeated_random_bodies_fuse_to_the_reference_stream(c):
    assert _same_stream(c)
