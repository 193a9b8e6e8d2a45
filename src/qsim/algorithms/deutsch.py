"""One-query drivers: Deutsch, Deutsch-Jozsa, and Bernstein-Vazirani."""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, simulate
from ..oracles import TruthTable, synth_bit_oracle, synth_phase_oracle
from ..qstate import _bitstring
from .common import AlgorithmResult, h_layer, readout


def deutsch_circuit(f: TruthTable, economical: bool = False) -> Circuit:
    if f.n_in != 1 or f.n_out != 1:
        raise ValueError("a 1-bit Boolean function is required")
    if economical:
        marked = [_bitstring(x, 1) for x in range(2) if f.rows[x] == "1"]
        oracle = synth_phase_oracle(1, marked)
        c = Circuit(1)
        c.h(0)
        c.extend(oracle)
        c.h(0)
        return c.measure([0])
    oracle = synth_bit_oracle(f)
    c = Circuit(2)
    c.h(0).h(1)
    c.extend(oracle)
    c.h(0).h(1)
    return c.measure([0])


def deutsch(f: TruthTable, economical: bool = False, seed: int = 0) -> AlgorithmResult:
    """Classify a 1-bit function as constant or balanced with one oracle query."""
    c = deutsch_circuit(f, economical)
    final = simulate(c if economical else Circuit(2).x(1).extend(c))  # from |01>
    dist, outcome = readout(final, [0], np.random.default_rng(seed))
    verdict = "constant" if outcome == "0" else "balanced"
    return AlgorithmResult(answer=verdict, exact_distribution=dist)


def dj_circuit(oracle: Circuit, n: int) -> Circuit:
    if oracle.num_qubits != n + 1:
        raise ValueError("oracle must act on n input qubits plus one work qubit")
    c = h_layer(n + 1, n + 1)
    c.extend(oracle)
    for q in range(n + 1):
        c.h(q)
    return c.measure(list(range(n)))


def deutsch_jozsa(oracle: Circuit, n: int, seed: int = 0) -> AlgorithmResult:
    """Constant iff the first register reads all zeros; promise is not checked."""
    final = simulate(Circuit(n + 1).x(n).extend(dj_circuit(oracle, n)))  # from |0...01>
    dist, outcome = readout(final, range(n), np.random.default_rng(seed))
    verdict = "constant" if outcome == "0" * n else "balanced"
    return AlgorithmResult(answer=verdict, exact_distribution=dist)


def dj_classical_randomized(f_probe, n: int, k: int, seed: int = 0):
    """Randomized baseline: k probes, 'balanced' on any disagreement.

    Returns (verdict, bound) where the bound is the correctness probability
    of a 'constant' verdict, 1 - 1/2**(k-1).
    """
    if k < 2:
        raise ValueError("at least two probes are required")
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(k):
        x = _bitstring(int(rng.integers(1 << n)), n)
        seen.add(f_probe(x))
        if len(seen) > 1:
            return "balanced", 1.0 - 1.0 / (1 << (k - 1))
    return "constant", 1.0 - 1.0 / (1 << (k - 1))


def _bv_phase_form(oracle: Circuit, n: int) -> Circuit:
    """Rewrite a CNOT bank into its tensor-of-Z economical form."""
    c = Circuit(n)
    for op in oracle.ops:
        if (
            op.gate.name == "X"
            and op.targets == (n,)
            and len(op.controls) == 1
            and op.controls[0][1] == 1
        ):
            c.z(op.controls[0][0])
        else:
            raise ValueError("economical form needs a CNOT-bank oracle")
    return c


def bv_circuit(oracle: Circuit, n: int, economical: bool = False) -> Circuit:
    if economical:
        c = h_layer(n, n)
        c.extend(_bv_phase_form(oracle, n))
        for q in range(n):
            c.h(q)
        return c.measure(list(range(n)))
    return dj_circuit(oracle, n)


def bernstein_vazirani(
    oracle: Circuit, n: int, economical: bool = False, seed: int = 0
) -> AlgorithmResult:
    """Read the hidden linear string in a single query."""
    c = bv_circuit(oracle, n, economical)
    final = simulate(c if economical else Circuit(n + 1).x(n).extend(c))  # from |0...01>
    dist, outcome = readout(final, range(n), np.random.default_rng(seed))
    return AlgorithmResult(answer=outcome, exact_distribution=dist)
