"""Two-register hidden-string driver: quantum rounds plus GF(2) solve."""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..gf2 import BitMatrix, InsufficientRankError, rank, simon_postprocess
from ..qstate import StateVector
from .common import AlgorithmResult, conditional_readout, h_layer, readout


def _round_circuit(oracle, n: int) -> Circuit:
    """Uniform first register through the oracle, from |0...0>: one circuit."""
    require_qubits(2 * n)
    if not isinstance(oracle, Circuit):  # a permutation or XOR oracle
        oracle = Circuit(oracle.total_qubits).append(oracle, range(oracle.total_qubits))
    if oracle.num_qubits != 2 * n:
        raise ValueError("oracle width must be 2n qubits")
    return h_layer(n, 2 * n).extend(oracle)


def _round_law(state: StateVector, n: int):
    """Exact first-register law of a round, from its post-oracle state: H on the first register."""
    return readout(simulate(h_layer(n, 2 * n), state), range(n), None)[0]


def simon_round_distribution(oracle, n: int):
    """Exact first-register law of one quantum round (collapse-independent)."""
    return _round_law(simulate(_round_circuit(oracle, n)), n)


def simon_round(oracle, n: int, rng: np.random.Generator) -> str:
    """One quantum round: returns an n-bit string orthogonal to the hidden one.

    The second register is measured, then the first goes through H and is read out.
    """
    return conditional_readout(simulate(_round_circuit(oracle, n)), n, h_layer(n, n), rng)[2]


def _batch(state: StateVector, n: int, rng: np.random.Generator):
    """n-1 rounds read out of one post-oracle state; returns (equations, has_full_rank)."""
    transform = h_layer(n, n)
    rows = [conditional_readout(state, n, transform, rng)[2] for _ in range(n - 1)]
    # the width is n even when n = 1 leaves no rows to infer it from
    equations = BitMatrix(n, tuple(int(bits, 2) for bits in rows))
    return equations, rank(equations) == n - 1


def simon_batch(oracle, n: int, rng: np.random.Generator):
    """n-1 quantum rounds; returns (equations, has_full_rank)."""
    return _batch(simulate(_round_circuit(oracle, n)), n, rng)


def simon(
    oracle, n: int, f_probe, max_restarts: int = 32, seed: int = 0
) -> AlgorithmResult:
    """Full driver: batches of n-1 rounds until the GF(2) system determines s."""
    rng = np.random.default_rng(seed)
    state = simulate(_round_circuit(oracle, n))  # deterministic up to the read-out
    dist = _round_law(state, n)
    rounds = 0
    for _ in range(max_restarts):
        equations, full_rank = _batch(state, n, rng)
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
