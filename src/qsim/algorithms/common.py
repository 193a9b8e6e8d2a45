"""Shared result envelope, the H layers, and the register read-outs every driver ends with."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit import Circuit, simulate
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


def h_layer(count: int, width: int) -> Circuit:
    """A ``width``-qubit circuit with H on each of its first ``count`` qubits."""
    c = Circuit(width)
    for q in range(count):
        c.h(q)
    return c


def h_conjugated(middle: Circuit, count: int) -> Circuit:
    """H on the first ``count`` qubits of ``middle``, then ``middle``, then the same H layer again."""
    layer = h_layer(count, middle.num_qubits)
    return Circuit(middle.num_qubits, [*layer.ops, *middle.ops, *layer.ops])


def readout(state: StateVector, qubits, rng: np.random.Generator | None):
    """Exact marginal law of a register and one draw from it, without collapse.

    Returns (distribution, bitstring); the bitstring is None when ``rng`` is.
    """
    probs = marginal_probs(state, qubits)
    dist = Distribution("exact", probs / probs.sum())
    bits = None if rng is None else _bitstring(int(rng.choice(probs.size, p=dist.values)), dist.width)
    return dist, bits


def conditional_readout(state: StateVector, k: int, transform: Circuit, rng: np.random.Generator):
    """Read out the last k qubits, then the leading register after ``transform``.

    The trailing value z is drawn with ``readout``, one draw from its
    marginal, but the state is not collapsed: only the leading register's
    block conditional on z, ``state.amps[z::2**k]``, is normalized,
    transformed and read out. Returns (z, distribution, bitstring).
    """
    n = state.num_qubits
    _, bits = readout(state, range(n - k, n), rng)
    z = int(bits, 2)
    block = state.amps[z :: 1 << k]
    lead = simulate(transform, StateVector(n - k, block / np.linalg.norm(block)))
    return (z, *readout(lead, range(n - k), rng))
