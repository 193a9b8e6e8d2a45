"""Fourier-transform circuit synthesis and the controlled-phase decomposition."""

from __future__ import annotations

import functools

from ..circuit import Circuit, register_transform
from ..gates import GateApplication, dagger, rk_phase


class _Transform:
    """A whole transform on ``arity`` adjacent qubits, of kernel kind "fft": ``simulate`` runs it in
    place of the cached transform's gates. ``np.fft.ifft`` has the forward sign, e^{+2 pi i xy / 2^n}."""

    _kind = "fft"

    def __init__(self, n: int, inverse: bool):
        self.arity, self._operand = n, "fft" if inverse else "ifft"


@functools.lru_cache(maxsize=None)
def _transform_ops(n: int, start: int, inverse: bool) -> tuple:
    """The transform's (or its dagger's) ops on qubits start..start+n-1, built and checked once; its
    Gates are frozen and read-only, so they can be shared. From two qubits up, ``simulate`` runs this
    exact tuple as one FFT (a 1-qubit transform is one H, which the fusion pass joins)."""
    if inverse:
        ops = tuple(Circuit(start + n, _transform_ops(n, start, False)).inverse_ops())
    else:
        c, top = Circuit(start + n), start + n - 1
        for j in range(start, start + n):
            c.h(j)
            for k in range(2, top - j + 2):
                c.append(rk_phase(k), (j,), ((j + k - 1, 1),))
        for j in range(n // 2):
            c.swap(start + j, top - j)
        ops = tuple(c.ops)
    if n > 1:
        register_transform(ops, GateApplication(_Transform(n, inverse), range(start, start + n)))
    return ops


def qft_circuit(n: int) -> Circuit:
    """Fourier transform on n qubits: H and controlled R_k cascade plus swaps.

    Gate count is n(n+1)/2 + floor(n/2).
    """
    if n < 1:
        raise ValueError("at least one qubit is required")
    c = Circuit(n)
    c.ops.extend(_transform_ops(n, 0, False))  # range-checked against n qubits when built
    return c


def inverse_qft_circuit(n: int) -> Circuit:
    """Dagger of the transform: reversed ops with conjugated phases, in a fresh circuit."""
    c = Circuit(n)
    c.ops.extend(_transform_ops(n, 0, True))  # range-checked against n qubits when built
    return c


def inverse_qft_registers(m: int, width: int, starts) -> Circuit:
    """Inverse transform of each m-qubit register starting at a qubit in ``starts``."""
    if m < 1:
        raise ValueError("a circuit needs at least one qubit")
    return Circuit(width, [op for start in starts for op in _transform_ops(m, start, True)])


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
