"""Phase estimation and its applications: order finding, discrete logarithm,
and quantum counting.

Each driver runs one circuit from |0...0>: H on every counting qubit and the
work register's preparation (X for |1>, H for the uniform state), which
``simulate`` builds as a product state; then, for every operator U, the
controlled powers C(U**(2**j)) as circuit ops, each built with ``power(2)``
from the one before; then each counting register's inverse transform. Only
``qpe`` starts from a given state, its caller's eigenstate. U is any circuit
operator: a Gate, a PermutationOracle, or counting's Grover step, which
applies U**k in closed form.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from ..circuit import Circuit, require_qubits, simulate
from ..numtheory import mod_pow, mult_order
from ..oracles import modmul_oracle, require_bitstrings
from ..qstate import StateVector, kron
from .common import AlgorithmResult, h_layer, readout
from .qft import inverse_qft_registers
from .shor import order_finding_readout, shor_registers


def _qpe_circuit(us, m: int, n: int, transform: bool = True) -> Circuit:
    """Phase estimation after its registers are prepared, as one circuit.

    One m-qubit counting register per operator comes first, then the n-qubit
    work register. The circuit applies C(U^(2^j)) with control i*m+m-1-j,
    j < m, for the i-th operator U of ``us``, and then, with ``transform``,
    each counting register's inverse transform.
    """
    width = len(us) * m
    c = Circuit(width + n)
    work = tuple(range(width, width + n))
    for i, u in enumerate(us):
        for j in range(m):
            if j:
                u = u.power(2)
            c.append(u, work, ((i * m + m - 1 - j, 1),))
    if transform:
        c.extend(inverse_qft_registers(m, width + n, range(0, width, m)))
    return c


def _require_counting_qubits(m: int) -> None:
    if m < 1:
        raise ValueError("the counting register needs at least one qubit")


def qpe(u, eigenstate: StateVector, m: int, seed: int = 0) -> AlgorithmResult:
    """Estimate the eigenphase of u on ``eigenstate`` with m fractional bits."""
    _require_counting_qubits(m)
    n = eigenstate.num_qubits
    require_qubits(m + n)  # before the kron below
    state = simulate(_qpe_circuit((u,), m, n), kron(simulate(h_layer(m, m)), eigenstate))
    dist, bits = readout(state, range(m), np.random.default_rng(seed))
    return AlgorithmResult(answer=int(bits, 2), exact_distribution=dist)


def qpe_order_finding(a: int, modulus: int, seed: int = 0) -> AlgorithmResult:
    """Order finding via phase estimation; same contract as shor_quantum_part.

    The work register is measured before the inverse transform (the two
    commute), with the RNG consumed in the same order as the direct route, so
    equal seeds yield the same conditional distribution over read-outs.
    """
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    _, m, n = shor_registers(modulus)
    require_qubits(m + n)  # before the work-register oracle
    rng = np.random.default_rng(seed)
    c = h_layer(m, m + n).x(m + n - 1)  # the work register starts in |1>
    state = simulate(c.extend(_qpe_circuit((modmul_oracle(a, modulus),), m, n, transform=False)))
    return order_finding_readout(state, a, modulus, rng)


def qpe_dlog(modulus: int, a: int, b: int, m: int, seed: int = 0) -> AlgorithmResult:
    """Two counting registers against multiply-by-a and multiply-by-b.

    The classical read-out recovers the logarithm only when the order of a is
    a power of 2 and m matches it; otherwise the joint law is the answer.
    """
    _require_counting_qubits(m)
    r = mult_order(a, modulus)
    if b % modulus not in {mod_pow(a, e, modulus) for e in range(r)}:
        raise ValueError(f"{b} is not a power of {a} modulo {modulus}")
    n = max((modulus - 1).bit_length(), 1)
    require_qubits(2 * m + n)  # before the work-register oracles
    rng = np.random.default_rng(seed)
    c = h_layer(2 * m, 2 * m + n).x(2 * m + n - 1)  # the work register starts in |1>
    state = simulate(c.extend(_qpe_circuit((modmul_oracle(a, modulus), modmul_oracle(b, modulus)), m, n)))
    dist, joint = readout(state, range(2 * m), rng)
    phi1, phi2 = int(joint[:m], 2), int(joint[m:], 2)
    s = None
    if r & (r - 1) == 0 and (1 << m) == r and math.gcd(phi1, r) == 1:
        s = phi2 * pow(phi1, -1, r) % r
    answer = {"phi1": phi1, "phi2": phi2, "s": s, "r": r}
    return AlgorithmResult(answer=answer, exact_distribution=dist, success=s is not None)


class _GroverStep:
    """The counting step G = (2|s><s| - I) O, raised to the power k, as a circuit operator.

    Its ``"call"`` kernel applies G^k in place along the last axis of the
    control-selected view. This is the iterate whose eigenphases on the
    uniform state are +-theta. ``grover.diffusion_ops`` reflects with the
    opposite sign; under a control that -1 is a relative phase and would move
    the estimate from M to N - M. G^k costs one pass for every k: G rotates
    span{|good>, |bad>}, the uniform superpositions of the M marked and the
    N - M unmarked strings, by theta = 2 asin(sqrt(M/N)); it leaves the rest of
    the marked block alone and negates the rest of the unmarked block.
    """

    _kind = "call"

    def __init__(self, n: int, marked):
        size = 1 << n
        good = np.zeros(size)
        for bits in marked:
            good[int(bits, 2)] = 1.0
        count = len(marked)
        self.arity, self.k = n, 1
        self.theta = 2.0 * math.asin(math.sqrt(count / size))
        # Rows: the unit vectors |good> and |bad> (a zero row when that block is empty).
        self.basis = np.stack([good / math.sqrt(max(count, 1)), (1.0 - good) / math.sqrt(max(size - count, 1))])
        self.flip = 2.0 * good - 1.0

    @property
    def name(self) -> str:
        return f"G^{self.k}"

    # a property, not an attribute: each copy made by ``power`` hands the kernel itself
    _operand = property(lambda self: self)

    def power(self, e: int) -> "_GroverStep":
        out = copy.copy(self)
        out.k = self.k * e
        return out

    def __call__(self, x: np.ndarray) -> None:
        coeffs = x.reshape(-1, len(self.flip)) @ self.basis.T
        cos, sin = math.cos(self.k * self.theta), math.sin(self.k * self.theta)
        turned = coeffs @ np.array([[cos, -sin], [sin, cos]])
        if self.k % 2:
            x *= self.flip
            coeffs[:, 1] *= -1.0
        x += ((turned - coeffs) @ self.basis).reshape(x.shape)


def quantum_counting(marked, n: int, m: int | None = None, seed: int = 0) -> AlgorithmResult:
    """Estimate the marked-set size as N sin^2(pi * read-out / 2^m)."""
    if m is None:
        m = math.ceil(n / 2) + 1
    _require_counting_qubits(m)
    marked = sorted(set(marked))
    require_bitstrings(marked, n)
    require_qubits(m + n)
    step = _GroverStep(n, marked)

    big_n = 1 << n
    # H on every qubit: the counting register and the uniform work register
    state = simulate(h_layer(m + n, m + n).extend(_qpe_circuit((step,), m, n)))
    dist, bits = readout(state, range(m), np.random.default_rng(seed))
    phi_tilde = int(bits, 2)
    estimate = big_n * math.sin(math.pi * phi_tilde / (1 << m)) ** 2
    return AlgorithmResult(
        answer={"estimate": estimate, "phi_tilde": phi_tilde},
        exact_distribution=dist,
    )
