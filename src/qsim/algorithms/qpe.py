"""Phase estimation and its applications: order finding, discrete logarithm,
and quantum counting.

Controlled powers U**(2**j) come from repeated squaring of a permutation
mapping or a gate matrix, or, for a step given as a callable (the Grover
iterate of counting), from the callable applying U**k in place for k = 2**j.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..gates import Gate, GateApplication, apply_to_array
from ..numtheory import mod_pow, mult_order
from ..oracles import PermutationOracle, _permute_array, modmul_oracle
from ..qstate import StateVector, basis_state, kron
from .common import AlgorithmResult, readout
from .qft import inverse_qft_registers
from .shor import order_finding_readout, shor_registers


def _controlled_power_layer(state: StateVector, us, m: int) -> StateVector:
    """For the i-th operator U of ``us``, apply C(U^(2^j)) with control i*m+m-1-j, j < m.

    U acts on the w-qubit work register after the len(us) counting registers.
    A PermutationOracle or Gate is squared for each power; a step callable
    ``u(x, k)`` applies U^k in place to the control-selected ``(..., 2**w)``
    view x. One copy of the amplitudes is updated.
    """
    n = state.num_qubits
    work = tuple(range(len(us) * m, n))
    amps = state.amps.copy()
    for i, u in enumerate(us):
        controls = [i * m + m - 1 - j for j in range(m)]
        if isinstance(u, PermutationOracle):
            mapping = u.mapping
            for j, control in enumerate(controls):
                if j:
                    mapping = mapping[mapping]
                _permute_array(amps, n, mapping, work, ((control, 1),))
        elif isinstance(u, Gate):
            matrix = u.matrix
            for j, control in enumerate(controls):
                if j:
                    matrix = matrix @ matrix
                gate = Gate(f"{u.name}^{1 << j}", matrix)
                apply_to_array(amps, n, GateApplication(gate, work, ((control, 1),)))
        elif callable(u):
            for j, control in enumerate(controls):
                u(amps.reshape(1 << control, 2, -1, 1 << len(work))[:, 1], 1 << j)
        else:
            raise TypeError("controlled powers need a PermutationOracle, a Gate or a step callable")
    return StateVector(n, amps)


def _kickback_state(us, eigenstate: StateVector, m: int) -> StateVector:
    """One uniform m-qubit counting register per operator, then the controlled powers."""
    width = len(us) * m
    require_qubits(width + eigenstate.num_qubits)
    c = Circuit(width)
    for q in range(width):
        c.h(q)
    state = kron(simulate(c, basis_state(width, 0)), eigenstate)
    return _controlled_power_layer(state, us, m)


def _qpe_state(us, eigenstate: StateVector, m: int) -> StateVector:
    """Counting registers through the kickback cascade and inverse transform."""
    state = _kickback_state(us, eigenstate, m)
    return simulate(inverse_qft_registers(m, state.num_qubits, range(0, len(us) * m, m)), state)


def qpe(u, eigenstate: StateVector, m: int, seed: int = 0) -> AlgorithmResult:
    """Estimate the eigenphase of u on ``eigenstate`` with m fractional bits."""
    if m < 1:
        raise ValueError("the counting register needs at least one qubit")
    state = _qpe_state((u,), eigenstate, m)
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
    require_qubits(m + n)  # before the work-register oracle, too
    rng = np.random.default_rng(seed)
    state = _kickback_state((modmul_oracle(a, modulus),), basis_state(n, 1), m)
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
    require_qubits(2 * m + n)  # before the work-register oracles, too
    rng = np.random.default_rng(seed)
    state = _qpe_state((modmul_oracle(a, modulus), modmul_oracle(b, modulus)), basis_state(n, 1), m)
    dist, joint = readout(state, range(2 * m), rng)
    phi1, phi2 = int(joint[:m], 2), int(joint[m:], 2)
    s = None
    if r & (r - 1) == 0 and (1 << m) == r and math.gcd(phi1, r) == 1:
        s = phi2 * pow(phi1, -1, r) % r
    answer = {"phi1": phi1, "phi2": phi2, "s": s, "r": r}
    return AlgorithmResult(answer=answer, exact_distribution=dist, success=s is not None)


def _grover_step(n: int, marked):
    """The counting step G = (2|s><s| - I) O as ``step(x, k)``: x <- G^k x in place along the last axis.

    This is the iterate whose eigenphases on the uniform state are +-theta.
    ``grover.diffusion_ops`` reflects with the opposite sign; under a control
    that -1 is a relative phase and would move the estimate from M to N - M.
    G^k costs one pass for every k: G rotates span{|good>, |bad>}, the uniform
    superpositions of the M marked and the N - M unmarked strings, by
    theta = 2 asin(sqrt(M/N)); it leaves the rest of the marked block alone and
    negates the rest of the unmarked block.
    """
    size = 1 << n
    good = np.zeros(size)
    for bits in marked:
        good[int(bits, 2)] = 1.0
    count = len(marked)
    theta = 2.0 * math.asin(math.sqrt(count / size))
    # Rows: the unit vectors |good> and |bad> (a zero row when that block is empty).
    basis = np.stack([good / math.sqrt(max(count, 1)), (1.0 - good) / math.sqrt(max(size - count, 1))])
    flip = 2.0 * good - 1.0

    def step(x: np.ndarray, k: int) -> None:
        coeffs = x.reshape(-1, size) @ basis.T
        cos, sin = math.cos(k * theta), math.sin(k * theta)
        turned = coeffs @ np.array([[cos, -sin], [sin, cos]])
        if k % 2:
            x *= flip
            coeffs[:, 1] *= -1.0
        x += ((turned - coeffs) @ basis).reshape(x.shape)

    return step


def quantum_counting(marked, n: int, m: int | None = None, seed: int = 0) -> AlgorithmResult:
    """Estimate the marked-set size as N sin^2(pi * read-out / 2^m)."""
    if m is None:
        m = math.ceil(n / 2) + 1
    marked = sorted(set(marked))
    for bits in marked:
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"marked string {bits!r} is not an {n}-bit string")
    require_qubits(m + n)
    step = _grover_step(n, marked)

    big_n = 1 << n
    uniform = StateVector(n, np.full(big_n, 1.0 / math.sqrt(big_n), dtype=complex))
    state = _qpe_state((step,), uniform, m)
    dist, bits = readout(state, range(m), np.random.default_rng(seed))
    phi_tilde = int(bits, 2)
    estimate = big_n * math.sin(math.pi * phi_tilde / (1 << m)) ** 2
    return AlgorithmResult(
        answer={"estimate": estimate, "phi_tilde": phi_tilde},
        exact_distribution=dist,
    )
