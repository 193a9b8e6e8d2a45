"""Factoring by order finding: quantum period extraction, continued-fraction
recovery, and the Las Vegas / Monte Carlo classical drivers."""

from __future__ import annotations

import math

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..numtheory import (
    best_order_candidate,
    is_perfect_power,
    is_prime,
    mod_inverse,
    mod_pow,
    mult_order,
)
from ..oracles import (
    PermutationOracle,
    _xor_oracle,
    apply_permutation,
    modexp_oracle,
    smallest_power_of_two_above,
)
from ..qstate import Distribution, StateVector, measure
from .common import AlgorithmResult, readout
from .qft import inverse_qft_circuit, inverse_qft_registers


def shor_registers(modulus: int):
    """(q, m, n): exponent-register dimension and both register widths."""
    q = smallest_power_of_two_above(modulus * modulus)
    m = q.bit_length() - 1
    n = max((modulus - 1).bit_length(), 1)
    return q, m, n


def _uniform_exponent_state(m: int, n: int) -> StateVector:
    require_qubits(m + n)
    amps = np.zeros(1 << (m + n), dtype=complex)
    amps[:: 1 << n][: 1 << m] = 1.0 / math.sqrt(1 << m)
    return StateVector(m + n, amps)


def shor_quantum_part(a: int, modulus: int, seed: int = 0) -> AlgorithmResult:
    """One quantum round of order finding.

    The returned distribution over the exponent register is exact and
    conditional on the measured work-register value z; the answer payload
    carries ell, z, q, m, n, and the column count c of z's residue class.
    """
    if modulus < 3 or modulus % 2 == 0 or is_prime(modulus):
        raise ValueError("modulus must be an odd composite")
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    q, m, n = shor_registers(modulus)
    rng = np.random.default_rng(seed)

    state = _uniform_exponent_state(m, n)
    state = apply_permutation(state, modexp_oracle(a, modulus, q))
    return order_finding_readout(state, a, modulus, rng)


def order_finding_readout(state: StateVector, a: int, modulus: int, rng) -> AlgorithmResult:
    """Measure the work register, inverse-transform the exponent register, read it out.

    The tail shared by shor_quantum_part and qpe_order_finding; ``rng`` draws
    the work value z first and the read-out second. z is drawn from the work
    register's marginal, as ``measure`` would, but the state is not collapsed:
    only the exponent register's block conditional on z, the amplitudes
    ``state.amps[z::2**n]``, is normalized and transformed.
    """
    q, m, n = shor_registers(modulus)
    _, work = readout(state, range(m, m + n), rng)
    z = int(work, 2)

    sub = state.amps[z :: 1 << n]
    first = simulate(inverse_qft_circuit(m), StateVector(m, sub / np.linalg.norm(sub)))

    dist, bits = readout(first, range(m), rng)
    # the powers a**e mod modulus repeat with period r, so z recurs every r exponents from its first
    r = mult_order(a, modulus)
    first_exponent = next(e for e in range(r) if mod_pow(a, e, modulus) == z)
    c = len(range(first_exponent, q, r))
    answer = {"ell": int(bits, 2), "z": z, "q": q, "m": m, "n": n, "c": c}
    return AlgorithmResult(answer=answer, exact_distribution=dist)


def fact3_screen(a: int, modulus: int) -> bool:
    """True iff the order of a is even and a**(r/2) is not -1 mod modulus."""
    r = mult_order(a, modulus)
    return r % 2 == 0 and mod_pow(a, r // 2, modulus) != modulus - 1


def _factor_from_round(a: int, modulus: int, q: int, ell: int):
    """Continued-fraction recovery followed by the gcd step; None on failure."""
    candidate = best_order_candidate(ell, q, modulus)
    if candidate is None or candidate % 2 != 0:
        return None
    p = math.gcd(mod_pow(a, candidate // 2, modulus) + 1, modulus)
    if 1 < p < modulus:
        return p
    return None


def shor_factor(
    modulus: int,
    mode: str = "las_vegas",
    seed: int = 0,
    max_rounds: int = 32,
    base: int | None = None,
) -> AlgorithmResult:
    """Find a nontrivial factor; even/prime-power/gcd shortcuts come first.

    Las Vegas loops until a factor appears or max_rounds quantum rounds are
    spent; Monte Carlo runs the pipeline once and may fail. ``base`` pins the
    exponentiation base instead of sampling it.
    """
    if modulus < 4:
        raise ValueError("there is nothing to factor below 4")
    if mode not in ("las_vegas", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    if modulus % 2 == 0:
        return AlgorithmResult(answer=2, rounds_used=0)
    power = is_perfect_power(modulus)
    if power and is_prime(power[0]):
        return AlgorithmResult(answer=power[0], rounds_used=0)
    if is_prime(modulus):
        raise ValueError(f"{modulus} is prime")

    if base is not None and not 1 < base < modulus:
        raise ValueError("base must lie strictly between 1 and the modulus")
    rng = np.random.default_rng(seed)
    rounds = 0
    last_dist: Distribution | None = None
    while rounds < max_rounds:
        a = base if base is not None else int(rng.integers(2, modulus))
        g = math.gcd(a, modulus)
        if g > 1:
            return AlgorithmResult(
                answer=g, exact_distribution=last_dist, rounds_used=rounds
            )
        while rounds < max_rounds:
            round_seed = int(rng.integers(1 << 63))
            outcome = shor_quantum_part(a, modulus, seed=round_seed)
            rounds += 1
            last_dist = outcome.exact_distribution
            ell, q = outcome.answer["ell"], outcome.answer["q"]
            if ell == 0:
                if mode == "monte_carlo":
                    return AlgorithmResult(
                        answer=None,
                        exact_distribution=last_dist,
                        rounds_used=rounds,
                        success=False,
                    )
                continue
            factor = _factor_from_round(a, modulus, q, ell)
            if factor is not None:
                return AlgorithmResult(
                    answer=factor, exact_distribution=last_dist, rounds_used=rounds
                )
            break  # pick a fresh base
        if mode == "monte_carlo":
            return AlgorithmResult(
                answer=None,
                exact_distribution=last_dist,
                rounds_used=rounds,
                success=False,
            )
    return AlgorithmResult(
        answer=None, exact_distribution=last_dist, rounds_used=rounds, success=False
    )


def _dlog_function_oracle(modulus: int, a: int, b: int, m: int, n: int) -> PermutationOracle:
    """Permutation |x>|y>|z> -> |x>|y>|z xor (a^x b^y mod modulus)>."""
    require_qubits(2 * m + n)
    values = np.empty(1 << (2 * m), dtype=np.int64)
    for x in range(1 << m):
        ax = mod_pow(a, x, modulus)
        for y in range(1 << m):
            values[(x << m) | y] = ax * mod_pow(b, y, modulus) % modulus
    return _xor_oracle(values, n)


def shor_dlog_pow2(modulus: int, a: int, b: int, seed: int = 0) -> AlgorithmResult:
    """Discrete logarithm of b to base a when the order of a is a power of 2.

    Succeeds iff the first read-out is coprime to the order; the payload then
    carries s with a**s = b mod modulus.
    """
    r = mult_order(a, modulus)
    if r & (r - 1):
        raise ValueError(f"the order of {a} is {r}, not a power of 2")
    if b % modulus not in {mod_pow(a, e, modulus) for e in range(r)}:
        raise ValueError(f"{b} is not a power of {a} modulo {modulus}")
    m = r.bit_length() - 1
    n = max((modulus - 1).bit_length(), 1)
    if m == 0:
        return AlgorithmResult(answer={"s": 1, "r1": 0, "r2": 0, "r": 1})
    rng = np.random.default_rng(seed)

    width = 2 * m + n
    oracle = _dlog_function_oracle(modulus, a, b, m, n)
    c = Circuit(width)
    for q in range(2 * m):
        c.h(q)
    c.append(oracle, range(width))
    record = measure(simulate(c), range(2 * m, width), rng)

    state = simulate(inverse_qft_registers(m, width, (0, m)), record.post_state)

    dist, joint = readout(state, range(2 * m), rng)
    r1, r2 = int(joint[:m], 2), int(joint[m:], 2)
    if math.gcd(r1, r) == 1:
        s = r2 * mod_inverse(r1, r) % r
        answer = {"s": s, "r1": r1, "r2": r2, "r": r}
        return AlgorithmResult(answer=answer, exact_distribution=dist)
    answer = {"s": None, "r1": r1, "r2": r2, "r": r}
    return AlgorithmResult(answer=answer, exact_distribution=dist, success=False)
