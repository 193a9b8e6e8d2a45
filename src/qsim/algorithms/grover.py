"""Amplitude-amplification drivers: search, unknown-count doubling, and SAT."""

from __future__ import annotations

import math

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..oracles import BooleanExpr, TruthTable, expr_to_circuit, require_bitstrings
from ..oracles import synth_bit_oracle, synth_phase_oracle
from ..qstate import Distribution, _bitstring
from .common import AlgorithmResult, GroverGeometry, h_layer, readout


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
    c = h_layer(n, n)
    c.extend(synth_phase_oracle(n, ["0" * n]))
    for q in range(n):
        c.h(q)
    return c


def grover_circuit(marked, n: int, iterations: int, variant: str = "economical") -> Circuit:
    """Iterated oracle/diffusion circuit; measurement on the search register."""
    marked = sorted(marked)
    if variant == "economical":
        oracle = synth_phase_oracle(n, marked)
        c = h_layer(n, n)
        for _ in range(iterations):
            c.extend(oracle)
            c.extend(diffusion_ops(n))
        return c.measure(list(range(n)))
    if variant == "standard":
        marked_set = set(marked)
        table = TruthTable.from_function(n, 1, lambda x: "1" if x in marked_set else "0")
        oracle = synth_bit_oracle(table)
        c = h_layer(n, n + 1)
        for _ in range(iterations):
            c.extend(oracle)
            for q in range(n):
                c.h(q)
            c.mcx(tuple((q, 0) for q in range(n)), n)
            for q in range(n):
                c.h(q)
        return c.measure(list(range(n)))
    raise ValueError(f"unknown variant {variant!r}")


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


def grover_unknown_m(oracle_probe, n: int, seed: int = 0) -> AlgorithmResult:
    """Doubling schedule over guessed marked counts, verifying each sample."""
    if n < 1:
        raise ValueError("a search register needs at least one qubit")
    require_qubits(n)  # before the 2**n probes
    big_n = 1 << n
    marked = [bits for bits in (_bitstring(x, n) for x in range(big_n)) if oracle_probe(bits)]
    rng = np.random.default_rng(seed)
    attempts = 0
    guess = 1
    while guess <= big_n // 2:
        attempts += 1
        iterations = grover_geometry(n, guess).iterations
        result = grover(marked, n, t_override=iterations, seed=int(rng.integers(1 << 63)))
        x = result.answer["x"]
        if oracle_probe(x):
            return AlgorithmResult(
                answer={"x": x, "degenerate": False},
                exact_distribution=result.exact_distribution,
                rounds_used=attempts,
            )
        guess *= 2
    return AlgorithmResult(answer=None, rounds_used=attempts, success=False)


def _sat_oracle(e: BooleanExpr, n_vars: int):
    """Phase oracle from the expression compiler: compute, Z, uncompute."""
    fwd, result_qubit, n_anc = expr_to_circuit(e, uncompute=True, n_vars=n_vars)
    width = fwd.num_qubits
    c = Circuit(width)
    c.extend(fwd)
    c.z(result_qubit)
    for op in reversed(fwd.ops):
        c.append_op(op)  # X and multi-controlled X are self-inverse
    return c, width


def sat_solve(
    e: BooleanExpr, n_vars: int, m_known: int | None = None, seed: int = 0
) -> AlgorithmResult:
    """Search for a satisfying assignment using the compiled expression oracle."""
    if n_vars > 12:
        raise ValueError("SAT driver is capped at 12 variables")
    big_n = 1 << n_vars
    oracle, width = _sat_oracle(e, n_vars)
    require_qubits(width)  # ancillas included, so known only once the formula is compiled
    rng = np.random.default_rng(seed)

    def run_with(iterations: int):
        c = h_layer(n_vars, width)
        diff = diffusion_ops(n_vars)
        for _ in range(iterations):
            c.extend(oracle)
            c.extend(diff)
        return readout(simulate(c), range(n_vars), rng)

    guesses = (
        [m_known]
        if m_known is not None
        else [1 << i for i in range(n_vars) if (1 << i) <= big_n // 2] or [1]
    )
    attempts = 0
    for guess in guesses:
        attempts += 1
        iterations = grover_geometry(n_vars, guess).iterations
        dist, sample = run_with(iterations)
        if e.evaluate(sample) == 1:
            return AlgorithmResult(
                answer=sample, exact_distribution=dist, rounds_used=attempts
            )
    return AlgorithmResult(answer=None, rounds_used=attempts, success=False)
