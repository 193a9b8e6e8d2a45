"""The strided permutation and collapse kernels against the index-arithmetic references.

Agreement is exact: same amplitudes bit for bit, same outcome and probability,
and the generator left in the same state. The drivers' read-out, which
transforms only the block conditional on the measured value, must draw the
same values as a full collapse followed by the transform. The chunk walker
that runs each sequence of 1-qubit kernels on one target must give the raw
bits of the half-view kernels it replaced, applied one kernel at a time.
"""

import functools

import numpy as np
import pytest
import qsim.gates
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.algorithms.common import conditional_readout
from qsim.algorithms.qft import inverse_qft_circuit, qft_circuit
from qsim.circuit import Circuit, _kernels, _run, _runs, simulate, unitary_of
from qsim.gates import apply_kernel, rk_phase, rz, standard_gate, u_gate
from qsim.oracles import PermutationOracle, apply_permutation
from qsim.qstate import StateVector, measure

from conftest import random_state
from slow_reference import (
    reference_apply_permutation,
    reference_kernels,
    reference_measure,
    reference_one_qubit_dense,
    reference_run,
)
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


def _same_bits(fast, slow):
    return np.array_equal(fast.view(np.uint64), slow.view(np.uint64))


def _walked(amps, n, c):
    """A copy of ``amps`` after the chunk walker runs the circuit's gates as written: ``simulate``
    would run a transform the library built as one FFT, which ``test_fft_transforms`` checks."""
    out = amps.copy()
    _run(out, n, _kernels(c.ops))
    return out


@functools.lru_cache(maxsize=None)
def _psi(n):
    """One random n-qubit state per n, shared by the tests below; read only."""
    return random_state(n, np.random.default_rng(n))


@pytest.mark.parametrize("n", [16, 20])
def test_one_qubit_kernel_matches_reference_bits_on_every_target(n):
    """A lone 1-qubit dense kernel is a run of one; a fused real product keeps its float64 operand.

    Both sides carry one state through every target in turn, checked after each."""
    real, cplx = standard_gate("H").matrix.real.copy(), u_gate(0.4, 1.3, -2.1).matrix
    fast, slow = _psi(n).amps.copy(), _psi(n).amps.copy()
    for t in range(n):
        for operand in (real, cplx) if n == 16 else ((real, cplx)[t % 2],):
            apply_kernel(fast, n, "dense", operand, (t,))
            reference_one_qubit_dense(slow, n, operand, t)
            assert _same_bits(fast, slow), t


# (n, target, controls). At n = 16 a chunk is 2^14 amplitudes: on target 1, qubits 0 and 2
# are fixed across a chunk and qubits 3..15 vary inside it; on target 8, qubits 0-1 are
# fixed and 2-7 vary as rows, as do 9-15 as columns. At n = 10 the state is one chunk.
CONTROL_CASES = [
    (16, 1, ((0, 1), (2, 0), (9, 1), (15, 0))),
    (16, 8, ((1, 0), (5, 1), (7, 0), (12, 1))),
    (10, 4, ((0, 0), (3, 1), (5, 1), (9, 0))),
]


def _controlled_run(n, target, controls):
    """Controlled dense and diagonal gates on one target under each control, a pair, all of
    them, and each of those with every polarity flipped: one run of 36 kernels."""
    c = Circuit(n).h(target)
    subsets = [(q,) for q in controls] + [controls[:2], controls]
    for subset in subsets + [tuple((q, 1 - v) for q, v in s) for s in subsets]:
        for gate in (u_gate(0.4, 1.3, -2.1), rz(0.7), rk_phase(3)):
            c.append(gate, (target,), subset)
    return c


@pytest.mark.parametrize("n,target,controls", CONTROL_CASES)
def test_controlled_runs_match_reference_bits(n, target, controls):
    c = _controlled_run(n, target, controls)
    kernels = list(_kernels(c.ops))
    assert [kind for kind, *_ in _runs(iter(kernels))] == ["run"]
    psi = random_state(n, np.random.default_rng(target)).amps
    assert _same_bits(simulate(c, StateVector(n, psi)).amps, reference_kernels(psi, n, kernels))
    # a batch of three columns folds into the walker's column axis
    batch = np.stack([psi, psi[::-1], 1j * psi], axis=1)
    fast = batch.copy()
    _run(fast, n, kernels)
    assert _same_bits(fast, reference_kernels(batch, n, kernels))


@pytest.mark.parametrize("n", [9, 16, 20])
@pytest.mark.parametrize("inverse", [False, True])
def test_fourier_transform_runs_match_reference_bits(n, inverse):
    c = inverse_qft_circuit(n) if inverse else qft_circuit(n)
    psi = _psi(n)
    assert _same_bits(_walked(psi.amps, n, c), reference_kernels(psi.amps, n, _kernels(c.ops)))


def test_qft_stages_are_runs():
    """Counted: each qubit's H and controlled-phase cascade is one kernel call."""
    n = 8
    kinds = [kind for kind, *_ in _runs(_kernels(qft_circuit(n).ops))]
    assert kinds == ["run"] * (n - 1) + ["dense"] + ["perm"] * (n // 2)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(circuits(max_qubits=6), st.integers(1, 6).map(qft_circuit), st.integers(1, 6).map(inverse_qft_circuit)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_runs_match_reference_bits_from_any_state(c, seed, sparse):
    """From a random state, or a sparse one with zeros of either sign, and on unitary_of's batch
    axis (every basis column at once). At n = 1 each half is one amplitude."""
    n = c.num_qubits
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if sparse:
        amps[rng.random(1 << n) < 0.5] = 0
        amps[0] += 1
        amps *= np.where(rng.random(1 << n) < 0.5, -1, 1)
    psi = StateVector(n, amps / np.linalg.norm(amps))
    walked = _walked(psi.amps, n, c)
    assert _same_bits(walked, reference_kernels(psi.amps, n, _kernels(c.ops)))
    assert np.max(np.abs(simulate(c, psi).amps - walked)) <= 1e-12
    eye = np.eye(1 << n, dtype=complex)
    assert _same_bits(unitary_of(c), reference_kernels(eye, n, _kernels(c.ops)))
