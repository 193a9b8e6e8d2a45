"""Fourier-transform circuit synthesis and the controlled-phase decomposition."""

from __future__ import annotations

import functools

from ..circuit import Circuit
from ..gates import dagger, rk_phase


def qft_circuit(n: int) -> Circuit:
    """Fourier transform on n qubits: H and controlled R_k cascade plus swaps.

    Gate count is n(n+1)/2 + floor(n/2).
    """
    if n < 1:
        raise ValueError("at least one qubit is required")
    c = Circuit(n)
    for j in range(n):
        c.h(j)
        for k in range(2, n - j + 1):
            c.append(rk_phase(k), (j,), ((j + k - 1, 1),))
    for j in range(n // 2):
        c.swap(j, n - 1 - j)
    return c


@functools.lru_cache(maxsize=None)
def _inverse_qft_ops(n: int) -> tuple:
    """Built and checked once per n: its daggered Gates are frozen and read-only, so they can be shared."""
    return tuple(qft_circuit(n).inverse_ops())


def inverse_qft_circuit(n: int) -> Circuit:
    """Dagger of the transform: reversed ops with conjugated phases, in a fresh circuit."""
    c = Circuit(n)
    c.ops.extend(_inverse_qft_ops(n))  # range-checked against n qubits when built
    return c


def inverse_qft_registers(m: int, width: int, starts) -> Circuit:
    """Inverse transform of each m-qubit register starting at a qubit in ``starts``."""
    inverse = inverse_qft_circuit(m)
    c = Circuit(width)
    for start in starts:
        for op in inverse.ops:
            c.append(
                op.gate,
                tuple(t + start for t in op.targets),
                tuple((q + start, v) for q, v in op.controls),
            )
    return c


def crk_decomposition(k: int) -> Circuit:
    """Controlled R_k from two CNOTs and three R_{k+1}-family gates.

    Qubit 0 is the control, qubit 1 the target.
    """
    if k < 1:
        raise ValueError("decomposition is defined for k >= 1")
    half = rk_phase(k + 1)
    c = Circuit(2)
    c.append(half, (1,))
    c.cx(0, 1)
    c.append(dagger(half), (1,))
    c.cx(0, 1)
    c.append(half, (0,))
    return c
