"""Two-register hidden-string driver: quantum rounds plus GF(2) solve."""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..gf2 import BitMatrix, InsufficientRankError, rank, simon_postprocess
from ..oracles import PermutationOracle
from ..qstate import StateVector, basis_state, measure
from .common import AlgorithmResult, readout


def _post_oracle_state(oracle, n: int) -> StateVector:
    """Uniform first register through the oracle, second register |0...0>: one circuit."""
    require_qubits(2 * n)
    if isinstance(oracle, PermutationOracle):
        oracle = Circuit(oracle.total_qubits).append(oracle, range(oracle.total_qubits))
    if oracle.num_qubits != 2 * n:
        raise ValueError("oracle width must be 2n qubits")
    c = Circuit(2 * n)
    for q in range(n):
        c.h(q)
    return simulate(c.extend(oracle), basis_state(2 * n, 0))


def _hadamard_first_register(state: StateVector, n: int) -> StateVector:
    c = Circuit(2 * n)
    for q in range(n):
        c.h(q)
    return simulate(c, state)


def simon_round_distribution(oracle, n: int):
    """Exact first-register law of one quantum round (collapse-independent)."""
    state = _post_oracle_state(oracle, n)
    state = _hadamard_first_register(state, n)
    return readout(state, range(n), None)[0]


def simon_round(oracle, n: int, rng: np.random.Generator, _base: StateVector | None = None) -> str:
    """One quantum round: returns an n-bit string orthogonal to the hidden one."""
    state = _base if _base is not None else _post_oracle_state(oracle, n)
    record = measure(state, range(n, 2 * n), rng)
    state = _hadamard_first_register(record.post_state, n)
    return readout(state, range(n), rng)[1]


def simon_batch(oracle, n: int, rng: np.random.Generator):
    """n-1 quantum rounds; returns (equations, has_full_rank)."""
    base = _post_oracle_state(oracle, n)  # deterministic up to the collapse
    rows = [simon_round(oracle, n, rng, _base=base) for _ in range(n - 1)]
    # the width is n even when n = 1 leaves no rows to infer it from
    equations = BitMatrix(n, tuple(int(bits, 2) for bits in rows))
    return equations, rank(equations) == n - 1


def simon(
    oracle, n: int, f_probe, max_restarts: int = 32, seed: int = 0
) -> AlgorithmResult:
    """Full driver: batches of n-1 rounds until the GF(2) system determines s."""
    rng = np.random.default_rng(seed)
    dist = simon_round_distribution(oracle, n)
    rounds = 0
    for _ in range(max_restarts):
        equations, full_rank = simon_batch(oracle, n, rng)
        rounds += n - 1
        if not full_rank:
            continue
        try:
            s = simon_postprocess(equations, f_probe)
        except InsufficientRankError:
            continue
        return AlgorithmResult(
            answer=s, exact_distribution=dist, rounds_used=rounds, success=True
        )
    return AlgorithmResult(
        answer=None, exact_distribution=dist, rounds_used=rounds, success=False
    )
