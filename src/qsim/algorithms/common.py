"""Shared result envelope, H layers, the one-query Fourier round, and the read-outs every driver ends with."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
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


def fourier_round(oracle, m: int, n: int) -> StateVector:
    """One query of a hidden-subgroup round, from |0...0>: H on the first m qubits, then ``oracle``.

    ``oracle`` is an operator on all m + n qubits or a Circuit; the cap is
    checked before anything is built.
    """
    require_qubits(m + n)
    c = h_layer(m, m + n)
    return simulate(c.extend(oracle) if isinstance(oracle, Circuit) else c.append(oracle, range(m + n)))


@dataclass(frozen=True, eq=False)
class ConditionalSampler:
    """Draws of a state's last k qubits, from their marginal computed once, then of its leading register.

    The state is not collapsed: only the leading register's block conditional
    on the drawn z, ``state.amps[z::2**k]``, is normalized, put through
    ``transform`` and read out.
    """

    state: StateVector
    k: int
    transform: Circuit
    marginal: Distribution

    def draw(self, rng: np.random.Generator):
        """(z, distribution, bitstring), with z drawn as ``readout`` draws it."""
        z = int(rng.choice(self.marginal.values.size, p=self.marginal.values))
        block = self.state.amps[z :: 1 << self.k]
        width = self.state.num_qubits - self.k
        lead = simulate(self.transform, StateVector(width, block / np.linalg.norm(block)))
        return (z, *readout(lead, range(width), rng))


def conditional_sampler(state: StateVector, k: int, transform: Circuit) -> ConditionalSampler:
    """A sampler of ``state``'s last k qubits and, conditional on them, its leading register after ``transform``."""
    n = state.num_qubits
    return ConditionalSampler(state, k, transform, readout(state, range(n - k, n), None)[0])
