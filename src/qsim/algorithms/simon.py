"""Two-register hidden-string driver: quantum rounds plus GF(2) solve."""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..gf2 import BitMatrix, rank, simon_postprocess
from ..qstate import StateVector
from .common import AlgorithmResult, conditional_sampler, fourier_round, h_layer, readout


def _round_state(oracle, n: int) -> StateVector:
    """Uniform first register through the oracle, from |0...0>: the round's post-oracle state."""
    require_qubits(2 * n)
    if (oracle.num_qubits if isinstance(oracle, Circuit) else oracle.total_qubits) != 2 * n:
        raise ValueError("oracle width must be 2n qubits")
    return fourier_round(oracle, n, n)


def _round_sampler(oracle, n: int):
    """Rounds drawn from one post-oracle state: the second register, then H on the first."""
    return conditional_sampler(_round_state(oracle, n), n, h_layer(n, n))


def _round_law(state: StateVector, n: int):
    """Exact first-register law of a round, from its post-oracle state: H on the first register."""
    return readout(simulate(h_layer(n, 2 * n), state), range(n), None)[0]


def simon_round_distribution(oracle, n: int):
    """Exact first-register law of one quantum round (collapse-independent)."""
    return _round_law(_round_state(oracle, n), n)


def simon_round(oracle, n: int, rng: np.random.Generator) -> str:
    """One quantum round: returns an n-bit string orthogonal to the hidden one.

    The second register is measured, then the first goes through H and is read out.
    """
    return _round_sampler(oracle, n).draw(rng)[2]


def _batch(sampler, n: int, rng: np.random.Generator):
    """n-1 rounds drawn from one post-oracle state; returns (equations, has_full_rank)."""
    rows = [sampler.draw(rng)[2] for _ in range(n - 1)]
    # the width is n even when n = 1 leaves no rows to infer it from
    equations = BitMatrix(n, tuple(int(bits, 2) for bits in rows))
    return equations, rank(equations) == n - 1


def simon_batch(oracle, n: int, rng: np.random.Generator):
    """n-1 quantum rounds; returns (equations, has_full_rank)."""
    return _batch(_round_sampler(oracle, n), n, rng)


def simon(
    oracle, n: int, f_probe, max_restarts: int = 32, seed: int = 0
) -> AlgorithmResult:
    """Full driver: batches of n-1 rounds until the GF(2) system determines s."""
    rng = np.random.default_rng(seed)
    sampler = _round_sampler(oracle, n)  # deterministic up to the read-out
    dist = _round_law(sampler.state, n)
    rounds = 0
    for _ in range(max_restarts):
        equations, full_rank = _batch(sampler, n, rng)
        rounds += n - 1
        if full_rank:
            s = simon_postprocess(equations, f_probe)
            return AlgorithmResult(answer=s, exact_distribution=dist, rounds_used=rounds, success=True)
    return AlgorithmResult(
        answer=None, exact_distribution=dist, rounds_used=rounds, success=False
    )
