"""Factoring by order finding: quantum period extraction, continued-fraction
recovery, and the Las Vegas / Monte Carlo classical drivers."""

from __future__ import annotations

import math

import numpy as np

from ..circuit import require_qubits
from ..numtheory import (
    best_order_candidate,
    is_perfect_power,
    is_prime,
    mod_inverse,
    mod_pow,
    mult_order,
)
from ..oracles import XorOracle, _power_table, _xor_oracle, modexp_oracle, shor_registers
from .common import AlgorithmResult, ConditionalSampler, conditional_sampler, fourier_round
from .qft import inverse_qft_circuit, inverse_qft_registers


def shor_quantum_part(a: int, modulus: int, seed: int = 0) -> AlgorithmResult:
    """One quantum round of order finding: H on the exponent register, then the modexp oracle.

    The returned distribution over the exponent register is exact and
    conditional on the measured work-register value z; the answer payload
    carries ell, z, q, m, n, and the column count c of z's residue class.
    """
    if modulus < 3 or modulus % 2 == 0 or is_prime(modulus):
        raise ValueError("modulus must be an odd composite")
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    q, m, n = shor_registers(modulus)
    require_qubits(m + n)  # before the oracle and the 2**(m+n) state
    rng = np.random.default_rng(seed)
    state = fourier_round(modexp_oracle(a, modulus, q), m, n)
    return order_finding_readout(conditional_sampler(state, n, inverse_qft_circuit(m)), a, modulus, rng)


def order_finding_readout(sampler: ConditionalSampler, a: int, modulus: int, rng) -> AlgorithmResult:
    """Measure the work register, inverse-transform the exponent register, read it out.

    The tail shared by shor_quantum_part and qpe_order_finding; ``sampler``
    reads out the work register and then the exponent register's block
    conditional on its value z, and ``rng`` draws z first and the read-out
    second.
    """
    q, m, n = shor_registers(modulus)
    z, dist, bits = sampler.draw(rng)
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
    rounds, a, factor, dist = 0, None, None, None
    while rounds < max_rounds:
        if a is None:
            a = base if base is not None else int(rng.integers(2, modulus))
            if (g := math.gcd(a, modulus)) > 1:
                return AlgorithmResult(answer=g, exact_distribution=dist, rounds_used=rounds)
        outcome = shor_quantum_part(a, modulus, seed=int(rng.integers(1 << 63)))
        rounds += 1
        dist, ell = outcome.exact_distribution, outcome.answer["ell"]
        if ell:  # a read-out of 0 carries no information: Las Vegas runs the same base again
            factor = _factor_from_round(a, modulus, outcome.answer["q"], ell)
            a = None
        if factor is not None or mode == "monte_carlo":
            break
    return AlgorithmResult(answer=factor, exact_distribution=dist, rounds_used=rounds, success=factor is not None)


def _require_power(modulus: int, a: int, b: int, r: int) -> None:
    """Refuse b unless it is one of the r powers of a modulo ``modulus``."""
    if b % modulus not in {mod_pow(a, e, modulus) for e in range(r)}:
        raise ValueError(f"{b} is not a power of {a} modulo {modulus}")


def _dlog_from_readout(k1: int, k2: int, r: int) -> int | None:
    """The logarithm s = k2 * k1**-1 mod r from a joint read-out, or None when k1 has no inverse."""
    return k2 * mod_inverse(k1, r) % r if math.gcd(k1, r) == 1 else None


def _dlog_function_oracle(modulus: int, a: int, b: int, m: int, n: int) -> XorOracle:
    """Permutation |x>|y>|z> -> |x>|y>|z xor (a^x b^y mod modulus)>."""
    require_qubits(2 * m + n)
    # an outer product of two power tables: each product is below modulus**2
    values = _power_table(a, modulus, 1 << m)[:, None] * _power_table(b, modulus, 1 << m) % modulus
    return _xor_oracle(values.reshape(-1), n)


def shor_dlog_pow2(modulus: int, a: int, b: int, seed: int = 0) -> AlgorithmResult:
    """Discrete logarithm of b to base a when the order of a is a power of 2.

    Succeeds iff the first read-out is coprime to the order; the payload then
    carries s with a**s = b mod modulus.
    """
    _, _, n = shor_registers(modulus)
    if mod_pow(a, 1, modulus) != 1:  # a = 1 has order 1 and needs no circuit
        require_qubits(n + 2)  # the narrowest circuit, m = 1, before the order search
    r = mult_order(a, modulus)
    if r & (r - 1):
        raise ValueError(f"the order of {a} is {r}, not a power of 2")
    _require_power(modulus, a, b, r)
    m = r.bit_length() - 1
    if m == 0:
        return AlgorithmResult(answer={"s": 1, "r1": 0, "r2": 0, "r": 1})
    rng = np.random.default_rng(seed)
    state = fourier_round(_dlog_function_oracle(modulus, a, b, m, n), 2 * m, n)
    _, dist, joint = conditional_sampler(state, n, inverse_qft_registers(m, 2 * m, (0, m))).draw(rng)
    r1, r2 = int(joint[:m], 2), int(joint[m:], 2)
    s = _dlog_from_readout(r1, r2, r)
    answer = {"s": s, "r1": r1, "r2": r2, "r": r}
    return AlgorithmResult(answer=answer, exact_distribution=dist, success=s is not None)
