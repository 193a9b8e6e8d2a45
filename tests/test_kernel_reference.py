"""The strided permutation and collapse kernels against the index-arithmetic references.

Agreement is exact: same amplitudes bit for bit, same outcome and probability,
and the generator left in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.oracles import PermutationOracle, apply_permutation
from qsim.qstate import StateVector, measure

from slow_reference import reference_apply_permutation, reference_measure


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
