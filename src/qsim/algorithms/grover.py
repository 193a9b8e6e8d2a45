"""Amplitude-amplification drivers: search, unknown-count doubling, and SAT."""

from __future__ import annotations

import math

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..oracles import BooleanExpr, _row_controls, expr_phase_oracle, expr_to_circuit, require_bitstrings, synth_phase_oracle
from ..qstate import Distribution, _bitstring
from .common import AlgorithmResult, GroverGeometry, h_conjugated, h_layer, readout


def grover_geometry(n: int, num_marked: int) -> GroverGeometry:
    """Rotation angle, iteration count, and predicted success probability."""
    big_n = 1 << n
    if not 1 <= num_marked <= big_n:
        raise ValueError("marked count out of range")
    theta = 2.0 * math.asin(math.sqrt(num_marked / big_n))
    iterations = int(math.floor((math.pi / 4) * math.sqrt(big_n / num_marked)))
    predicted = math.sin((2 * iterations + 1) * theta / 2) ** 2
    return GroverGeometry(theta=theta, iterations=iterations, predicted_success=predicted)


def diffusion_ops(n: int) -> Circuit:
    """Reflection about the uniform state, up to a global phase: H, flip-at-zero, H."""
    return h_conjugated(synth_phase_oracle(n, ["0" * n]), n)


def grover_circuit(marked, n: int, iterations: int, variant: str = "economical") -> Circuit:
    """Iterated oracle/diffusion circuit; measurement on the search register.

    The iterate is built once and appended ``iterations`` times, so every
    iteration shares its op objects (which lets the fusion pass fuse it once).
    """
    marked = sorted(marked)
    if variant == "economical":
        c = h_layer(n, n)
        body = synth_phase_oracle(n, marked).extend(diffusion_ops(n))
    elif variant == "standard":
        require_bitstrings(marked, n)
        c, body = h_layer(n, n + 1), Circuit(n + 1)
        for bits in sorted(set(marked)):  # the DNF bit oracle: one MCX per marked row
            body.mcx(_row_controls(int(bits, 2), n), n)
        body.extend(h_conjugated(Circuit(n + 1).mcx(tuple((q, 0) for q in range(n)), n), n))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    for _ in range(iterations):
        c.extend(body)
    return c.measure(list(range(n)))


def grover(
    marked,
    n: int,
    variant: str = "economical",
    t_override: int | None = None,
    seed: int = 0,
) -> AlgorithmResult:
    """Search for a marked string; answer carries the sample and a degeneracy flag."""
    if n < 1:
        raise ValueError("a search register needs at least one qubit")
    require_qubits(n + 1 if variant == "standard" else n)
    marked = sorted(set(marked))
    require_bitstrings(marked, n)
    big_n = 1 << n
    rng = np.random.default_rng(seed)
    if t_override is None and len(marked) > big_n // 2:
        # the iteration formula degenerates; fall back to a flagged uniform draw
        x = _bitstring(int(rng.integers(big_n)), n)
        return AlgorithmResult(
            answer={"x": x, "degenerate": True},
            exact_distribution=Distribution("exact", np.full(big_n, 1.0 / big_n)),
        )
    if t_override is not None:
        iterations = t_override
    else:
        iterations = grover_geometry(n, max(len(marked), 1)).iterations if marked else 0
    c = grover_circuit(marked, n, iterations, variant)
    if variant == "standard":
        c = Circuit(n + 1).x(n).h(n).extend(c)  # the ancilla starts in |->
    final = simulate(c)
    dist, x = readout(final, range(n), rng)
    return AlgorithmResult(
        answer={"x": x, "degenerate": False},
        exact_distribution=dist,
        rounds_used=iterations,
    )


def _guessed_count_search(n: int, attempt, accept, guesses=None) -> AlgorithmResult:
    """Run ``attempt(iterations)`` for each guessed marked count until ``accept`` takes its answer.

    ``attempt`` returns (distribution, answer) after Grover's iteration count
    for the guess. The guesses double from 1 up to half the 2**n strings
    unless given; rounds_used is the number of attempts made.
    """
    if guesses is None:
        guesses = [1 << i for i in range(max(n, 1))]
    for attempts, guess in enumerate(guesses, 1):
        dist, answer = attempt(grover_geometry(n, guess).iterations)
        if accept(answer):
            return AlgorithmResult(answer=answer, exact_distribution=dist, rounds_used=attempts)
    return AlgorithmResult(answer=None, rounds_used=len(guesses), success=False)


def grover_unknown_m(oracle_probe, n: int, seed: int = 0) -> AlgorithmResult:
    """Doubling schedule over guessed marked counts, verifying each sample."""
    if n < 1:
        raise ValueError("a search register needs at least one qubit")
    require_qubits(n)  # before the 2**n probes
    big_n = 1 << n
    marked = [bits for bits in (_bitstring(x, n) for x in range(big_n)) if oracle_probe(bits)]
    rng = np.random.default_rng(seed)

    def attempt(iterations: int):
        result = grover(marked, n, t_override=iterations, seed=int(rng.integers(1 << 63)))
        return result.exact_distribution, result.answer

    return _guessed_count_search(n, attempt, lambda answer: oracle_probe(answer["x"]))


def sat_solve(
    e: BooleanExpr, n_vars: int, m_known: int | None = None, seed: int = 0
) -> AlgorithmResult:
    """Search for a satisfying assignment on the ``n_vars`` variable qubits alone: the compiled
    oracle restores its ancillas, so the formula's ``PhaseOracle`` suffices. The cap counts them."""
    if n_vars > 12:
        raise ValueError("SAT driver is capped at 12 variables")
    big_n = 1 << n_vars
    if m_known is not None and not 1 <= m_known <= big_n:
        raise ValueError(f"m_known must be between 1 and 2**n_vars = {big_n}, not {m_known}")
    require_qubits(expr_to_circuit(e, n_vars=n_vars)[0].num_qubits)  # ancillas included, known once compiled
    rng = np.random.default_rng(seed)
    oracle = expr_phase_oracle(e, n_vars)
    body = Circuit(n_vars).append(oracle, range(n_vars)).extend(diffusion_ops(n_vars))

    def attempt(iterations: int):
        c = h_layer(n_vars, n_vars)
        for _ in range(iterations):
            c.extend(body)
        return readout(simulate(c), range(n_vars), rng)

    guesses = None if m_known is None else [m_known]
    return _guessed_count_search(n_vars, attempt, lambda sample: e.evaluate(sample) == 1, guesses)
