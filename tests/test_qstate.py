import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.qstate import (
    Distribution,
    StateVector,
    basis_state,
    bloch_angles,
    kron,
    marginal_probs,
    probabilities,
    schmidt_rank,
)
from qsim.algorithms.common import readout
from qsim.circuit import Circuit, simulate

from conftest import random_state


def test_basis_state_examples():
    assert np.allclose(basis_state(1, 0).amps, [1, 0])
    assert np.allclose(basis_state(2, 2).amps, [0, 0, 1, 0])
    assert np.allclose(basis_state(3, 1).amps, [0, 1, 0, 0, 0, 0, 0, 0])


def test_basis_state_rejects_bad_input():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)])
def test_state_rejects_non_finite_amplitudes(bad):
    amps = np.array([1.0, 0.0, 0.0, bad], dtype=complex)
    with pytest.raises(ValueError, match="must be finite"):
        StateVector(2, amps)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "amps",
    [
        np.array([1e200, 1e200, 0.0, 0.0]),  # finite, but the norm overflows to inf
        np.array([1.0, 1.0, 0.0, 0.0]),
        np.array([0.5, 0.5, 0.5, 0.5 + 1e-6]),
        np.zeros(4),
    ],
)
def test_state_rejects_unnormalized_amplitudes(amps):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(2, amps)


def test_kron_examples():
    assert np.allclose(kron(basis_state(1, 1), basis_state(1, 0)).amps, basis_state(2, 2).amps)
    triple = kron(kron(basis_state(1, 0), basis_state(1, 0)), basis_state(1, 1))
    assert np.allclose(triple.amps, basis_state(3, 1).amps)


def test_kron_with_zero_kills_odd_indices(rng):
    psi = random_state(3, rng)
    out = kron(psi, basis_state(1, 0))
    assert np.all(out.amps[1::2] == 0)


def test_kron_associativity(rng):
    for _ in range(20):
        a, b, c = (random_state(k, rng) for k in (2, 1, 2))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left.amps - right.amps)) <= 1e-12


def test_probabilities_examples():
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    dist = probabilities(plus)
    assert dist.entries == pytest.approx({"0": 0.5, "1": 0.5})
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    dist = probabilities(bell)
    assert dist.prob("00") == pytest.approx(0.5)
    assert dist.prob("11") == pytest.approx(0.5)
    assert dist.prob("01") == 0
    assert probabilities(basis_state(1, 1)).entries["1"] == pytest.approx(1.0)


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum to"):
        Distribution("exact", np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="shot count"):
        Distribution("sampled", np.array([3, 0]), shots=4)
    with pytest.raises(ValueError, match="unknown distribution kind"):
        Distribution("odd", np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="one value per basis state"):
        Distribution("exact", np.full(3, 1 / 3))


@st.composite
def distributions(draw):
    """(kind, width, values, shots): a law or a sample over a register of 0-8 qubits."""
    width = draw(st.integers(0, 8))
    size = 1 << width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seen = rng.random(size) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    if draw(st.booleans()):
        values = rng.random(size) * seen
        if not values.any():
            values[rng.integers(size)] = 1.0
        return "exact", width, values / values.sum(), None
    values = rng.integers(1, 5, size) * seen
    return "sampled", width, values, int(values.sum())


MALFORMED_KEYS = st.one_of(
    st.text(alphabet="01 +-_b", max_size=10),
    st.sampled_from([None, 1, b"1", "-1", "-01", " 1", "1_0", "0b1", "\u0661"]),
)


@settings(max_examples=150, deadline=None)
@given(distributions(), st.lists(MALFORMED_KEYS, max_size=5), st.sampled_from([0.0, 1e-12, 0.1, 0.5, 2.5]))
def test_distribution_matches_bitstring_dict(case, malformed, tol):
    kind, width, values, shots = case
    dist = Distribution(kind, values, shots=shots)
    # the bitstring-keyed dict each producer used to build by hand
    cast = float if kind == "exact" else int
    want = {
        format(i, f"0{width}b"): cast(v) for i, v in enumerate(values) if kind == "exact" or v > 0
    }
    assert dist.width == width and not dist.values.flags.writeable
    assert dist.entries == want and dist.entries is dist.entries
    assert all(type(v) is cast for v in dist.entries.values())
    keys = [format(i, f"0{width}b") for i in range(1 << width)]
    for bits in keys + malformed + ["0" + keys[-1], keys[-1][1:]]:
        assert dist.prob(bits) == want.get(bits, 0.0), bits
    assert dist.support(tol) == {b for b, v in want.items() if v > tol}


def test_measure_bell_never_mixed(rng):
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    for _ in range(50):
        dist, bits = readout(bell, [0, 1], rng)
        assert bits in ("00", "11")
        assert dist.prob(bits) == pytest.approx(0.5)


def test_measure_basis_state_is_certain(rng):
    dist, bits = readout(basis_state(2, 2), [1], rng)
    assert bits == "0"
    assert dist.prob("0") == pytest.approx(1.0)


def test_measure_marginals_match_probabilities(rng):
    """Each marginal is the sum of the full law over the bits left out."""
    for _ in range(200):
        n = int(rng.integers(1, 6))
        psi = random_state(n, rng)
        qubits = sorted(int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))])
        marginal = marginal_probs(psi, qubits)
        for bits, p in probabilities(psi).entries.items():
            marginal[int("".join(bits[q] for q in qubits), 2)] -= p
        assert np.max(np.abs(marginal)) <= 1e-12


def test_normalization_after_operations(rng):
    psi = random_state(4, rng)
    assert abs(simulate(Circuit(4).h(1).cx(1, 3), psi).norm() - 1.0) <= 1e-10
    assert abs(kron(psi, basis_state(1, 0)).norm() - 1.0) <= 1e-10


def test_schmidt_rank_bell_and_products(rng):
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert schmidt_rank(bell, [0]) == 2
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    minus = StateVector(1, np.array([1, -1]) / np.sqrt(2))
    assert schmidt_rank(kron(plus, minus), [0]) == 1
    for _ in range(20):
        a, b = random_state(2, rng), random_state(2, rng)
        assert schmidt_rank(kron(a, b), [0, 1]) == 1


def test_schmidt_rank_ghz_cuts():
    # (|x'> + |x' xor 1...1>)/sqrt(2) is rank 2 across every single-qubit cut
    n = 4
    for x in (0b0000, 0b1011):
        amps = np.zeros(1 << n, dtype=complex)
        amps[x] = amps[x ^ 0b1111] = 1 / np.sqrt(2)
        ghz_like = StateVector(n, amps)
        for q in range(n):
            assert schmidt_rank(ghz_like, [q]) == 2


def test_schmidt_rank_needs_proper_cut():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    with pytest.raises(ValueError):
        schmidt_rank(bell, [])
    with pytest.raises(ValueError):
        schmidt_rank(bell, [0, 1])


def test_bloch_angles():
    assert bloch_angles(basis_state(1, 0)) == (0.0, 0.0)
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    theta, phi = bloch_angles(plus)
    assert theta == pytest.approx(np.pi / 2)
    assert phi == 0.0
    plus_i = StateVector(1, np.array([1, 1j]) / np.sqrt(2))
    theta, phi = bloch_angles(plus_i)
    assert (theta, phi) == pytest.approx((np.pi / 2, np.pi / 2))
    for gamma in (0.0, 0.7, 3.9):
        spun = StateVector(1, np.array([0, cmath.exp(1j * gamma)]))
        assert bloch_angles(spun) == pytest.approx((np.pi, 0.0))
    with pytest.raises(ValueError):
        bloch_angles(basis_state(2, 0))
