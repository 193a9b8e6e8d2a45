"""Every Fourier transform the library builds runs as one FFT, against slow references.

``simulate`` runs each cached transform (``qft_circuit``,
``inverse_qft_circuit``, ``inverse_qft_registers``) as one in-place
``np.fft`` pass. It must agree to 1e-12 with the gates as written, run by
``unitary_of`` or the chunk walker, and with the directly built DFT matrix,
which does not use pocketfft. A transform that is not the library's own tuple
of ops (rebuilt, edited or cut short) must keep the gate path.
"""

import numpy as np
import pytest

import qsim.circuit
from qsim import algorithms as alg
from qsim.algorithms.qft import inverse_qft_circuit, inverse_qft_registers, qft_circuit
from qsim.circuit import Circuit, _kernels, _run, simulate, unitary_of
from qsim.gates import GateApplication, apply_kernel
from qsim.qstate import StateVector, basis_state

from conftest import random_state

TOL = 1e-12


def dft_matrix(n):
    """The transform's matrix, built directly; each exponent xy is reduced mod 2**n first, since
    omega ** (xy) loses digits at large xy (1.4e-12 at n = 10 from ``test_qft_qpe.dft_matrix``)."""
    dim = 1 << n
    x = np.arange(dim)
    return np.exp(2j * np.pi * (np.outer(x, x) % dim) / dim) / np.sqrt(dim)


def _sparse_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < 0.5] = 0
    amps[0] += 1
    return StateVector(n, amps / np.linalg.norm(amps))


def _gates(c, amps):
    """The chunk walker on the circuit's gates as written, from a copy of ``amps``."""
    out = amps.copy()
    _run(out, c.num_qubits, _kernels(c.ops))
    return out


def _fresh(ops):
    """The same gates on the same qubits, as new op objects."""
    return [GateApplication(op.gate, op.targets, op.controls) for op in ops]


@pytest.fixture
def kinds(monkeypatch):
    """The kernel kinds ``simulate`` issues, in order."""
    seen = []

    def spy(amps, num_qubits, kind, *args):
        seen.append(kind)
        apply_kernel(amps, num_qubits, kind, *args)

    monkeypatch.setattr(qsim.circuit, "apply_kernel", spy)
    return seen


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("sparse", [False, True])
def test_transform_matches_its_gates_and_the_dft_matrix(n, inverse, sparse):
    rng = np.random.default_rng(100 * n + 10 * inverse + sparse)
    psi = _sparse_state(n, rng) if sparse else random_state(n, rng)
    c = inverse_qft_circuit(n) if inverse else qft_circuit(n)
    out = simulate(c, psi).amps
    direct = dft_matrix(n).conj().T if inverse else dft_matrix(n)
    assert np.max(np.abs(out - unitary_of(c) @ psi.amps)) <= TOL
    assert np.max(np.abs(out - direct @ psi.amps)) <= TOL


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("inverse", [False, True])
def test_wide_transform_matches_the_walker_on_its_gates(n, inverse):
    psi = random_state(n, np.random.default_rng(n))
    c = inverse_qft_circuit(n) if inverse else qft_circuit(n)
    assert np.max(np.abs(simulate(c, psi).amps - _gates(c, psi.amps))) <= TOL


@pytest.mark.parametrize("m, work", [(2, 1), (3, 2), (4, 3)])
def test_register_transforms_inside_a_wider_state(m, work):
    """Registers at qubits 0 and m, followed by untouched work qubits."""
    width = 2 * m + work
    c = inverse_qft_registers(m, width, (0, m))
    psi = random_state(width, np.random.default_rng(m))
    out = simulate(c, psi).amps
    assert np.max(np.abs(out - unitary_of(c) @ psi.amps)) <= TOL
    # the same as each register's inverse DFT, with the work qubits as a batch axis
    direct = dft_matrix(m).conj().T
    expected = np.einsum("ai,bj,ijw->abw", direct, direct, psi.amps.reshape(1 << m, 1 << m, -1))
    assert np.max(np.abs(out - expected.reshape(-1))) <= TOL


def test_a_twenty_qubit_transform_is_one_fft(kinds):
    simulate(qft_circuit(20), basis_state(20, 0xB5A3D))
    assert kinds == ["fft"]


def test_a_one_qubit_transform_stays_its_h(kinds):
    """A 1-qubit transform is one H, left to the fusion pass, which joins it with its neighbours."""
    c = Circuit(1).x(0)
    c.extend(qft_circuit(1))
    simulate(c, random_state(1, np.random.default_rng(1)))
    assert kinds == ["dense"]


@pytest.mark.parametrize(
    "driver, registers",
    [
        (lambda: alg.shor_quantum_part(2, 85, seed=1), 1),
        (lambda: alg.qpe_order_finding(2, 21, seed=5), 1),
        (lambda: alg.qpe_dlog(34, 27, 3, 4, seed=4), 2),
        (lambda: alg.quantum_counting(["01", "10"], 2, m=6, seed=0), 1),
    ],
    ids=["shor_quantum_part", "qpe_order_finding", "qpe_dlog", "quantum_counting"],
)
def test_each_counting_register_is_one_fft(kinds, driver, registers):
    driver()
    assert kinds.count("fft") == registers


def _dropped_phase(n):
    ops = list(qft_circuit(n).ops)
    del ops[1]  # the first controlled phase on qubit 0
    return ops


@pytest.mark.parametrize(
    "edit",
    [
        lambda n: _fresh(qft_circuit(n).ops),
        _dropped_phase,
        lambda n: list(qft_circuit(n).ops[:-1]),
    ],
    ids=["rebuilt", "dropped-phase", "prefix"],
)
@pytest.mark.parametrize("n", [2, 5])
def test_a_changed_transform_keeps_the_gate_path(kinds, edit, n):
    c = Circuit(n, edit(n))
    psi = random_state(n, np.random.default_rng(n))
    out = simulate(c, psi).amps
    assert "fft" not in kinds
    assert np.max(np.abs(out - unitary_of(c) @ psi.amps)) <= TOL


def test_a_transform_inside_a_longer_circuit(kinds):
    n = 6
    c = Circuit(n).h(0).cx(0, 3)
    c.extend(qft_circuit(4))
    c.extend(inverse_qft_registers(3, n, (3,)))
    c.x(5).h(2)
    psi = random_state(n, np.random.default_rng(7))
    out = simulate(c, psi).amps
    assert kinds.count("fft") == 2
    assert np.max(np.abs(out - unitary_of(c) @ psi.amps)) <= TOL
