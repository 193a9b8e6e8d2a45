"""Phase estimation and its applications: order finding, discrete logarithm,
and quantum counting.

Controlled powers U**(2**j) are produced by repeated squaring of the
permutation mapping or of the dense matrix, never by 2**j sequential
applications.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..gates import Gate, GateApplication, apply
from ..numtheory import mod_pow, mult_order
from ..oracles import PermutationOracle, apply_permutation, modmul_oracle
from ..qstate import StateVector, basis_state, kron
from .common import AlgorithmResult, readout
from .qft import inverse_qft_registers
from .shor import order_finding_readout, shor_registers


def _controlled_power_layer(state: StateVector, u, m: int, work_qubits) -> StateVector:
    """Apply C(U^(2^j)) for j = 0..m-1, control m-1-j, onto the work register."""
    if isinstance(u, PermutationOracle):
        powered = u
        for j in range(m):
            state = apply_permutation(
                state, powered, targets=work_qubits, controls=((m - 1 - j, 1),)
            )
            if j + 1 < m:
                powered = powered.power(2)
        return state
    if isinstance(u, Gate):
        matrix = u.matrix
        for j in range(m):
            gate = Gate(f"{u.name}^{1 << j}", matrix)
            state = apply(state, GateApplication(gate, tuple(work_qubits), ((m - 1 - j, 1),)))
            if j + 1 < m:
                matrix = matrix @ matrix
        return state
    raise TypeError("controlled powers need a PermutationOracle or a Gate")


def _qpe_state(u, eigenstate: StateVector, m: int) -> StateVector:
    """Counting register through the kickback cascade and inverse transform."""
    work = eigenstate.num_qubits
    require_qubits(m + work)
    first = basis_state(m, 0)
    c = Circuit(m)
    for q in range(m):
        c.h(q)
    first = simulate(c, first)
    state = kron(first, eigenstate)
    state = _controlled_power_layer(state, u, m, list(range(m, m + work)))
    return simulate(inverse_qft_registers(m, m + work, (0,)), state)


def qpe(u, eigenstate: StateVector, m: int, seed: int = 0) -> AlgorithmResult:
    """Estimate the eigenphase of u on ``eigenstate`` with m fractional bits."""
    if m < 1:
        raise ValueError("the counting register needs at least one qubit")
    state = _qpe_state(u, eigenstate, m)
    dist, bits = readout(state, range(m), np.random.default_rng(seed))
    return AlgorithmResult(answer=int(bits, 2), exact_distribution=dist)


def qpe_order_finding(a: int, modulus: int, seed: int = 0) -> AlgorithmResult:
    """Order finding via phase estimation; same contract as shor_quantum_part.

    The work register is measured before the inverse transform (the two
    commute), with the RNG consumed in the same order as the direct route, so
    equal seeds yield the same conditional distribution over read-outs.
    """
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    _, m, n = shor_registers(modulus)
    require_qubits(m + n)
    rng = np.random.default_rng(seed)

    first = basis_state(m, 0)
    c = Circuit(m)
    for qq in range(m):
        c.h(qq)
    first = simulate(c, first)
    state = kron(first, basis_state(n, 1))
    state = _controlled_power_layer(state, modmul_oracle(a, modulus), m, list(range(m, m + n)))
    return order_finding_readout(state, a, modulus, rng)


def qpe_dlog(modulus: int, a: int, b: int, m: int, seed: int = 0) -> AlgorithmResult:
    """Two counting registers against multiply-by-a and multiply-by-b.

    The classical read-out recovers the logarithm only when the order of a is
    a power of 2 and m matches it; otherwise the joint law is the answer.
    """
    r = mult_order(a, modulus)
    if b % modulus not in {mod_pow(a, e, modulus) for e in range(r)}:
        raise ValueError(f"{b} is not a power of {a} modulo {modulus}")
    n = max((modulus - 1).bit_length(), 1)
    width = 2 * m + n
    require_qubits(width)
    rng = np.random.default_rng(seed)

    c = Circuit(width)
    for qq in range(2 * m):
        c.h(qq)
    state = simulate(c, kron(basis_state(2 * m, 0), basis_state(n, 1)))
    work = list(range(2 * m, width))

    ua = modmul_oracle(a, modulus)
    powered = ua
    for j in range(m):
        state = apply_permutation(state, powered, targets=work, controls=((m - 1 - j, 1),))
        powered = powered.power(2)
    ub = modmul_oracle(b, modulus)
    powered = ub
    for j in range(m):
        state = apply_permutation(state, powered, targets=work, controls=((2 * m - 1 - j, 1),))
        powered = powered.power(2)

    state = simulate(inverse_qft_registers(m, width, (0, m)), state)

    dist, joint = readout(state, range(2 * m), rng)
    phi1, phi2 = int(joint[:m], 2), int(joint[m:], 2)
    s = None
    if r & (r - 1) == 0 and (1 << m) == r and math.gcd(phi1, r) == 1:
        s = phi2 * pow(phi1, -1, r) % r
    answer = {"phi1": phi1, "phi2": phi2, "s": s, "r": r}
    return AlgorithmResult(answer=answer, exact_distribution=dist, success=s is not None)


def _grover_step_matrix(n: int, marked) -> np.ndarray:
    """Dense matrix of one amplification step: phase oracle then reflection."""
    big_n = 1 << n
    oracle_diag = np.ones(big_n)
    for bits in marked:
        oracle_diag[int(bits, 2)] = -1.0
    reflection = 2.0 / big_n * np.ones((big_n, big_n)) - np.eye(big_n)
    return reflection * oracle_diag[None, :]


def quantum_counting(marked, n: int, m: int | None = None, seed: int = 0) -> AlgorithmResult:
    """Estimate the marked-set size as N sin^2(pi * read-out / 2^m)."""
    if m is None:
        m = math.ceil(n / 2) + 1
    marked = sorted(set(marked))
    big_n = 1 << n
    if len(marked) > big_n:
        raise ValueError("marked set larger than the domain")
    require_qubits(m + n)
    step = Gate("GUf", _grover_step_matrix(n, marked))

    uniform = StateVector(n, np.full(big_n, 1.0 / math.sqrt(big_n), dtype=complex))
    state = _qpe_state(step, uniform, m)
    dist, bits = readout(state, range(m), np.random.default_rng(seed))
    phi_tilde = int(bits, 2)
    estimate = big_n * math.sin(math.pi * phi_tilde / (1 << m)) ** 2
    return AlgorithmResult(
        answer={"estimate": estimate, "phi_tilde": phi_tilde},
        exact_distribution=dist,
    )
