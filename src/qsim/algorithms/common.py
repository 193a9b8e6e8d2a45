"""Shared result envelope and the register read-out every driver ends with."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qstate import Distribution, StateVector, _bitstring, marginal_probs


@dataclass
class AlgorithmResult:
    """Uniform driver result: answer payload plus the exact verification law."""

    answer: object
    exact_distribution: Distribution | None = None
    rounds_used: int = 1
    success: bool = True


@dataclass(frozen=True)
class GroverGeometry:
    """Rotation-angle view of amplitude amplification."""

    theta: float
    iterations: int
    predicted_success: float


def readout(state: StateVector, qubits, rng: np.random.Generator | None):
    """Exact marginal law of a register and one draw from it, without collapse.

    Returns (distribution, bitstring); the bitstring is None when ``rng`` is.
    """
    probs = marginal_probs(state, qubits)
    dist = Distribution("exact", probs / probs.sum())
    bits = None if rng is None else _bitstring(int(rng.choice(probs.size, p=dist.values)), dist.width)
    return dist, bits
