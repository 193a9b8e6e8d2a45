"""The strided permutation and collapse kernels against the index-arithmetic references.

Agreement is exact: same amplitudes bit for bit, same outcome and probability,
and the generator left in the same state. The drivers' read-out, which
transforms only the block conditional on the measured value, must draw the
same values as a full collapse followed by the transform.
"""

import numpy as np
import pytest
import qsim.gates
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.algorithms.common import conditional_readout
from qsim.circuit import Circuit, simulate, unitary_of
from qsim.oracles import PermutationOracle, apply_permutation
from qsim.qstate import StateVector, measure

from conftest import random_state
from slow_reference import reference_apply_permutation, reference_measure, reference_run
from test_gate_kernels import circuits


@st.composite
def states(draw, max_qubits=8):
    n = draw(st.integers(1, max_qubits))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    # sparse states exercise zero-probability outcomes and exact zeros
    if draw(st.booleans()):
        amps[rng.random(1 << n) < 0.5] = 0
        amps[0] += 1
    return StateVector(n, amps / np.linalg.norm(amps))


@st.composite
def permutation_cases(draw):
    s = draw(states())
    n = s.num_qubits
    qubits = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n))
    n_controls = draw(st.integers(0, n - k))
    targets = list(qubits[:k])
    controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[k : k + n_controls])
    mapping = np.array(draw(st.permutations(range(1 << k))))
    return s, PermutationOracle(k, mapping), targets, controls


@settings(max_examples=300, deadline=None)
@given(permutation_cases())
def test_apply_permutation_matches_reference(case):
    s, oracle, targets, controls = case
    fast = apply_permutation(s, oracle, targets=targets, controls=controls)
    slow = reference_apply_permutation(s, oracle, targets=targets, controls=controls)
    assert np.array_equal(fast.amps, slow.amps)


@settings(max_examples=300, deadline=None)
@given(states(), st.data(), st.integers(0, 2**32 - 1))
def test_measure_matches_reference(s, data, seed):
    n = s.num_qubits
    qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    fast = measure(s, qubits, fast_rng)
    slow = reference_measure(s, qubits, slow_rng)
    assert fast.measured_qubits == slow.measured_qubits
    assert fast.outcome == slow.outcome
    assert fast.probability == slow.probability
    assert np.array_equal(fast.post_state.amps, slow.post_state.amps)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(circuits(max_qubits=5), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_conditional_readout_matches_collapse_then_transform(transform, k, seed, sparse):
    n = transform.num_qubits + k
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if sparse:
        # some trailing values then have probability zero
        amps[rng.random(1 << n) < 0.5] = 0
        amps[0] += 1
    s = StateVector(n, amps / np.linalg.norm(amps))
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    z, dist, bits = conditional_readout(s, k, transform, fast_rng)

    record = reference_measure(s, range(n - k, n), slow_rng)
    collapsed = reference_run(record.post_state.amps, Circuit(n, transform.ops))
    law = (np.abs(collapsed.reshape(-1, 1 << k)) ** 2).sum(axis=1)
    draw = int(slow_rng.choice(law.size, p=law / law.sum()))
    assert z == int(record.outcome, 2)
    assert bits == format(draw, f"0{n - k}b")
    assert np.max(np.abs(dist.values - law)) <= 1e-12


# control polarities cycled through the cases: none, one of each, two of each, and mixed
_CONTROL_PATTERNS = [(), (1,), (0,), (1, 1), (0, 0), (0, 1)]


def _map_cases():
    """(n, k, trailing, polarities): every width k <= n at n = 8, 10, 12, plus 16-qubit states
    whose gather runs in several chunks."""
    cases = []
    for n in (8, 10, 12):
        for k in range(1, n + 1):
            for trailing in (True, False):
                room = [p for p in _CONTROL_PATTERNS if len(p) <= n - k]
                cases.append((n, k, trailing, room[(k + trailing) % len(room)]))
    cases += [(16, 7, True, p) for p in _CONTROL_PATTERNS] + [(16, 7, False, (1,))]
    return cases


def _map_circuit(n, k, trailing, polarities):
    """One random 2**k mapping on the last k qubits, or on k scattered qubits (reversed when k = n)."""
    rng = np.random.default_rng(n * 100 + k)
    oracle = PermutationOracle(k, rng.permutation(1 << k))
    if trailing:
        targets = tuple(range(n - k, n))
    else:
        targets = tuple(int(q) for q in rng.permutation(n)[:k]) if k < n else tuple(reversed(range(n)))
        if targets == tuple(range(n - k, n)):
            targets = tuple(range(k))
    rest = [int(q) for q in rng.permutation(n) if q not in targets]
    controls = tuple(zip(rest, polarities))
    return Circuit(n).append(oracle, targets, controls)


@pytest.mark.parametrize("n,k,trailing,polarities", _map_cases())
def test_map_kernel_matches_reference_exactly(monkeypatch, n, k, trailing, polarities):
    """A map only moves amplitudes, so the gather on the last k < n qubits and the scatter
    everywhere else must give the reference's amplitudes bit for bit."""
    c = _map_circuit(n, k, trailing, polarities)
    gathers, inverse = [], qsim.gates.inverse_permutation
    monkeypatch.setattr(qsim.gates, "inverse_permutation", lambda m: gathers.append(len(m)) or inverse(m))
    psi = random_state(n, np.random.default_rng(k))
    assert np.array_equal(simulate(c, psi).amps, reference_run(psi.amps, c))
    assert gathers == ([1 << k] if trailing and k < n else [])
    if n == 8:
        # unitary_of's batch axis widens the view: 2**8 columns, checked on every 5th
        columns = np.eye(1 << n, dtype=complex)[:, ::5]
        assert np.array_equal(unitary_of(c)[:, ::5], reference_run(columns, c))
