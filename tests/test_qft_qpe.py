import math

import numpy as np
import pytest

from qsim import algorithms as alg
from qsim.circuit import equiv_up_to_phase, unitary_of
from qsim.gates import Gate, rk_phase
from qsim.numtheory import mult_order
from qsim.oracles import modmul_oracle
from qsim.qstate import StateVector, basis_state


def dft_matrix(n: int) -> np.ndarray:
    """Direct construction of the transform matrix, independent of the circuit."""
    dim = 1 << n
    omega = np.exp(2j * np.pi / dim)
    return omega ** np.outer(np.arange(dim), np.arange(dim)) / np.sqrt(dim)


def test_single_qubit_transform_is_hadamard():
    c = alg.qft_circuit(1)
    assert len(c.ops) == 1 and c.ops[0].gate.name == "H"


@pytest.mark.parametrize("n", range(1, 9))
def test_transform_unitary_matches_direct_matrix(n):
    assert np.max(np.abs(unitary_of(alg.qft_circuit(n)) - dft_matrix(n))) <= 1e-10


@pytest.mark.parametrize("n", range(1, 17))
def test_gate_count_formula(n):
    assert len(alg.qft_circuit(n).ops) == n * (n + 1) // 2 + n // 2


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_transform(n):
    forward = unitary_of(alg.qft_circuit(n))
    backward = unitary_of(alg.inverse_qft_circuit(n))
    assert np.max(np.abs(backward @ forward - np.eye(1 << n))) <= 1e-10
    assert np.max(np.abs(backward - dft_matrix(n).conj().T)) <= 1e-10


def controlled_rk_matrix(k: int) -> np.ndarray:
    matrix = np.eye(4, dtype=complex)
    matrix[3, 3] = np.exp(2j * np.pi / (1 << k))
    return matrix


@pytest.mark.parametrize("k", range(1, 11))
def test_crk_decomposition(k):
    decomposed = unitary_of(alg.crk_decomposition(k))
    assert equiv_up_to_phase(decomposed, controlled_rk_matrix(k), 1e-12)


def test_crk_action_on_basis_states():
    c = alg.crk_decomposition(3)
    for x in range(3):
        out = unitary_of(c)[:, x]
        assert abs(out[x] - 1) <= 1e-12
    out = unitary_of(c)[:, 3]
    assert abs(out[3] - np.exp(2j * np.pi / 8)) <= 1e-12


def test_crk_structure():
    c = alg.crk_decomposition(4)
    assert sum(1 for op in c.ops if op.controls) == 2  # the two CNOTs
    assert sum(1 for op in c.ops if not op.controls) == 3


# --- phase estimation ------------------------------------------------------


def test_qpe_on_t_gate():
    res = alg.qpe(rk_phase(3), basis_state(1, 1), 3, seed=0)
    assert res.answer == 1  # 001 in binary, phase 1/8
    assert res.exact_distribution.prob("001") == pytest.approx(1.0, abs=1e-9)


def test_qpe_identity_any_eigenstate():
    res = alg.qpe(rk_phase(0), basis_state(1, 1), 4, seed=0)
    assert res.answer == 0
    assert res.exact_distribution.prob("0000") == pytest.approx(1.0, abs=1e-9)


def test_qpe_on_order_one_eigenvector():
    powers = sorted({pow(2, k, 21) for k in range(6)})
    amps = np.zeros(32, dtype=complex)
    amps[powers] = 1 / math.sqrt(6)
    res = alg.qpe(modmul_oracle(2, 21), StateVector(5, amps), 4, seed=0)
    assert res.answer == 0
    assert res.exact_distribution.prob("0000") == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("m", range(1, 9))
def test_qpe_dyadic_exactness(m):
    for j in range(1 << m):
        phase = 2 * np.pi * j / (1 << m)
        u = Gate("phase", np.diag([1.0, np.exp(1j * phase)]).astype(complex))
        res = alg.qpe(u, basis_state(1, 1), m, seed=0)
        assert res.answer == j
        assert res.exact_distribution.prob(format(j, f"0{m}b")) == pytest.approx(
            1.0, abs=1e-9
        )


def test_qpe_rejects_an_operator_of_the_wrong_width():
    with pytest.raises(ValueError, match="oracle width"):
        alg.qpe(modmul_oracle(2, 3), basis_state(3, 1), 2)
    with pytest.raises(ValueError, match="wants 1 targets"):
        alg.qpe(rk_phase(2), basis_state(2, 1), 2)


@pytest.mark.parametrize(
    "run",
    [
        lambda m: alg.qpe(rk_phase(3), basis_state(1, 1), m),
        lambda m: alg.qpe_dlog(34, 27, 3, m),
        lambda m: alg.quantum_counting(["01"], 2, m=m),
    ],
    ids=["qpe", "qpe_dlog", "quantum_counting"],
)
@pytest.mark.parametrize("m", [0, -1])
def test_phase_estimation_refuses_an_empty_counting_register(run, m):
    with pytest.raises(ValueError, match="the counting register needs at least one qubit"):
        run(m)


# --- order finding via phase estimation ------------------------------------


@pytest.mark.parametrize("modulus,a", [(21, 2), (15, 7)])
def test_qpe_order_matches_direct_route(modulus, a):
    via_qpe = alg.qpe_order_finding(a, modulus, seed=9)
    direct = alg.shor_quantum_part(a, modulus, seed=9)
    assert via_qpe.answer["z"] == direct.answer["z"]
    for bits, p in direct.exact_distribution.entries.items():
        assert abs(p - via_qpe.exact_distribution.prob(bits)) <= 1e-9


def test_qpe_order_peaks_for_21():
    res = alg.qpe_order_finding(2, 21, seed=3)
    m = res.answer["m"]
    probs = [res.exact_distribution.prob(format(ell, f"0{m}b")) for ell in range(512)]
    maxima = [
        ell
        for ell in range(512)
        if probs[ell] > (probs[ell - 1] if ell else -1)
        and probs[ell] > (probs[ell + 1] if ell < 511 else -1)
    ]
    assert maxima == [0, 85, 171, 256, 341, 427]


def test_qpe_order_power_of_two_is_exact():
    res = alg.qpe_order_finding(4, 15, seed=0)
    q, m = res.answer["q"], res.answer["m"]
    r = mult_order(4, 15)
    assert r == 2 and q == 256
    expected = {format(k * q // r, f"0{m}b") for k in range(r)}
    assert res.exact_distribution.support(tol=1e-12) == expected


# --- discrete log via phase estimation --------------------------------------


def test_qpe_dlog_matches_pipeline_distribution():
    via_qpe = alg.qpe_dlog(34, 27, 3, 4, seed=1)
    pipeline = alg.shor_dlog_pow2(34, 27, 3, seed=1)
    for bits, p in pipeline.exact_distribution.entries.items():
        assert abs(p - via_qpe.exact_distribution.prob(bits)) <= 1e-9


def test_qpe_dlog_recovery_rate():
    hits = 0
    for seed in range(40):
        res = alg.qpe_dlog(34, 27, 3, 4, seed=seed)
        if res.answer["s"] is not None:
            hits += 1
            assert res.answer["s"] == 11
    assert 10 <= hits <= 30  # success probability is exactly 1/2


def test_qpe_dlog_marginals_uniform():
    res = alg.qpe_dlog(34, 27, 3, 4, seed=0)
    first, second = {}, {}
    for bits, p in res.exact_distribution.entries.items():
        first[bits[:4]] = first.get(bits[:4], 0.0) + p
        second[bits[4:]] = second.get(bits[4:], 0.0) + p
    assert all(abs(v - 1 / 16) <= 1e-9 for v in first.values())
    assert all(abs(v - 1 / 16) <= 1e-9 for v in second.values())


def test_qpe_dlog_base_as_target():
    res = alg.qpe_dlog(34, 27, 27, 4, seed=5)
    if res.answer["s"] is not None:
        assert res.answer["s"] == 1


# --- quantum counting -------------------------------------------------------


def test_counting_exact_dyadic_case():
    res = alg.quantum_counting(["00", "11"], 2, m=2, seed=0)
    assert res.answer["estimate"] == pytest.approx(2.0, abs=1e-9)


def test_counting_edge_cases():
    res = alg.quantum_counting([], 2, m=2, seed=0)
    assert res.answer["estimate"] == pytest.approx(0.0, abs=1e-12)
    everything = [format(x, "02b") for x in range(4)]
    res = alg.quantum_counting(everything, 2, m=2, seed=0)
    assert res.answer["estimate"] == pytest.approx(4.0, abs=1e-9)


def test_counting_default_register_size():
    res = alg.quantum_counting(["0011"], 4, seed=0)
    assert len(next(iter(res.exact_distribution.entries))) == 3  # ceil(4/2)+1


@pytest.mark.parametrize("marked", [["1"], ["0111"], ["0a"], ["01", "1"]])
def test_counting_rejects_strings_that_are_not_n_bit(marked):
    with pytest.raises(ValueError, match="is not a bit string of length 2$"):
        alg.quantum_counting(marked, 2, m=2)
