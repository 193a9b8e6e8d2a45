import sys

import numpy as np
import pytest

from qsim import algorithms as alg
from qsim.gf2 import BitMatrix, rank
from qsim.oracles import TruthTable, synth_multi_oracle, xor_permutation_oracle
from qsim.qstate import StateVector, basis_state, kron, measure, schmidt_rank
from qsim.circuit import Circuit, simulate

PAPER_ROWS = ("000", "001", "010", "100", "010", "100", "000", "001")
PAPER_TABLE = TruthTable(3, 3, PAPER_ROWS)


def canonical_two_to_one(n: int, s_int: int) -> TruthTable:
    return TruthTable.from_function(
        n, n, lambda x: format(min(int(x, 2), int(x, 2) ^ s_int), f"0{n}b")
    )


def probe_for(table: TruthTable):
    return lambda bits: table.rows[int(bits, 2)]


def test_round_distribution_paper_oracle():
    dist = alg.simon_round_distribution(xor_permutation_oracle(PAPER_TABLE), 3)
    assert dist.support() == {"000", "001", "110", "111"}
    for bits in ("000", "001", "110", "111"):
        assert dist.prob(bits) == pytest.approx(0.25, abs=1e-12)


def test_round_distribution_same_through_circuit_oracle():
    dist = alg.simon_round_distribution(synth_multi_oracle(PAPER_TABLE), 3)
    assert dist.support() == {"000", "001", "110", "111"}


def test_round_support_is_the_orthogonal_hyperplane(rng):
    for n in (3, 4):
        for _ in range(5):
            s_int = int(rng.integers(1, 1 << n))
            oracle = xor_permutation_oracle(canonical_two_to_one(n, s_int))
            dist = alg.simon_round_distribution(oracle, n)
            expected = {
                format(x, f"0{n}b")
                for x in range(1 << n)
                if bin(x & s_int).count("1") % 2 == 0
            }
            assert dist.support(tol=1e-12) == expected
            for bits in expected:
                assert dist.prob(bits) == pytest.approx(1 / len(expected), abs=1e-12)


def test_post_collapse_register_structure(rng):
    # measuring the second register leaves (|x'> + |x' xor s>)/sqrt(2)
    state = kron(basis_state(3, 0), basis_state(3, 0))
    c = Circuit(6)
    for q in range(3):
        c.h(q)
    c.extend(synth_multi_oracle(PAPER_TABLE))
    state = simulate(c, state)
    record = measure(state, range(3, 6), rng)
    amps = record.post_state.amps.reshape(8, 8)[:, int(record.outcome, 2)]
    support = np.flatnonzero(np.abs(amps) > 1e-12)
    assert len(support) == 2
    assert support[0] ^ support[1] == 0b110
    assert np.allclose(np.abs(amps[support]), 1 / np.sqrt(2))


def test_post_collapse_entanglement_with_full_weight_mask(rng):
    # Hamming-weight-n hidden string gives a maximally entangled register state
    n = 3
    oracle = xor_permutation_oracle(canonical_two_to_one(n, 0b111))
    state = kron(basis_state(n, 0), basis_state(n, 0))
    c = Circuit(2 * n)
    for q in range(n):
        c.h(q)
    state = simulate(c, state)
    from qsim.oracles import apply_permutation

    state = apply_permutation(state, oracle)
    record = measure(state, range(n, 2 * n), rng)
    amps = record.post_state.amps.reshape(8, 8)[:, int(record.outcome, 2)]
    register = StateVector(n, amps / np.linalg.norm(amps))
    for q in range(n):
        assert schmidt_rank(register, [q]) == 2


def test_equations_always_orthogonal_to_s(rng):
    oracle = xor_permutation_oracle(PAPER_TABLE)
    for _ in range(200):
        x = alg.simon_round(oracle, 3, rng)
        assert bin(int(x, 2) & 0b110).count("1") % 2 == 0


def test_driver_recovers_the_paper_string():
    oracle = xor_permutation_oracle(PAPER_TABLE)
    successes = 0
    for seed in range(500):
        res = alg.simon(oracle, 3, probe_for(PAPER_TABLE), seed=seed)
        if res.success:
            successes += 1
            assert res.answer == "110"
    assert successes / 500 > 0.5


def test_driver_simulates_the_round_circuit_once(monkeypatch):
    # n = 8, seed 1 takes 13 batches; each reads its rounds out of the same post-oracle state
    module = sys.modules["qsim.algorithms.simon"]
    runs = []
    original = module.simulate
    monkeypatch.setattr(module, "simulate", lambda c, initial=None: runs.append(initial) or original(c, initial))
    s_int = 0b10110011
    table = canonical_two_to_one(8, s_int)
    res = alg.simon(xor_permutation_oracle(table), 8, probe_for(table), seed=1)
    assert res.answer == format(s_int, "08b") and res.rounds_used == 91
    assert sum(initial is None for initial in runs) == 1


def test_driver_failure_path():
    oracle = xor_permutation_oracle(PAPER_TABLE)
    res = alg.simon(oracle, 3, probe_for(PAPER_TABLE), max_restarts=0, seed=1)
    assert not res.success and res.answer is None


def test_batch_rank_frequency_matches_subspace_sampling(rng):
    # n-1 uniform draws from the (n-1)-dimensional hyperplane are a basis with
    # probability prod_{i<n-1} (1 - 2^i/2^(n-1)); the quantum rounds match it
    for n, batches in ((3, 800), (4, 500)):
        s_int = (1 << (n - 1)) | 1
        oracle = xor_permutation_oracle(canonical_two_to_one(n, s_int))
        hits = sum(alg.simon_batch(oracle, n, rng)[1] for _ in range(batches))
        expected = 1.0
        for i in range(n - 1):
            expected *= 1 - (1 << i) / (1 << (n - 1))
        sigma = np.sqrt(expected * (1 - expected) / batches)
        assert abs(hits / batches - expected) <= 4 * sigma


def test_batch_returns_equations(rng):
    oracle = xor_permutation_oracle(PAPER_TABLE)
    equations, full = alg.simon_batch(oracle, 3, rng)
    assert isinstance(equations, BitMatrix)
    assert full == (rank(equations) == 2)
