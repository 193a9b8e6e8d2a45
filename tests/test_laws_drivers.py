"""Phase estimation, Simon and the one-query drivers against their closed forms, over random inputs.

The laws come from ``perfbench/reference.py``, which uses only ``math`` and
NumPy: order finding is |FFT|^2 of the indicator of the drawn residue's
exponents, the discrete log is 1/r on the line l2 = s*l1, a Simon round is
uniform on the strings orthogonal to s, and Deutsch-Jozsa and
Bernstein-Vazirani follow the Walsh sum.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qsim.algorithms as alg
from qsim.oracles import TruthTable, synth_bit_oracle, synth_bv_oracle, synth_multi_oracle, xor_permutation_oracle

from conftest import perfbench_module

reference = perfbench_module("reference")

LAW_TOL = 1e-10
SEEDS = st.integers(0, 2**32 - 1)


def law(result, width: int) -> np.ndarray:
    return reference.dist_array(result.exact_distribution.entries, width)


# odd composite moduli with m + n <= 14 exponent and work qubits
ORDER_CASES = [(modulus, a) for modulus in (9, 15, 21) for a in range(2, modulus) if math.gcd(a, modulus) == 1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDER_CASES), st.sampled_from(["shor_quantum_part", "qpe_order_finding"]), SEEDS)
def test_order_finding_follows_the_indicator_fft(case, driver, seed):
    modulus, a = case
    result = getattr(alg, driver)(a, modulus, seed=seed)
    answer = result.answer
    want, count = reference.order_finding_law(a, modulus, answer["q"], answer["z"])
    assert np.max(np.abs(law(result, answer["m"]) - want)) <= LAW_TOL
    assert answer["c"] == count
    assert want[answer["ell"]] > reference.SUPPORT_FLOOR


def _pow2_order(modulus: int, a: int) -> int:
    r = len(reference.orbit(a, modulus))
    return r if r > 1 and r & (r - 1) == 0 else 0


# bases of power-of-2 order r = 2^m with 2m + n <= 14 qubits
DLOG_CASES = [
    (modulus, a, r)
    for modulus in range(3, 65)
    for a in range(2, modulus)
    if math.gcd(a, modulus) == 1
    and (r := _pow2_order(modulus, a))
    and 2 * (r.bit_length() - 1) + (modulus - 1).bit_length() <= 14
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DLOG_CASES), st.integers(0, 15), st.sampled_from(["shor_dlog_pow2", "qpe_dlog"]), SEEDS)
def test_discrete_log_is_uniform_on_one_line(case, exponent, driver, seed):
    modulus, a, r = case
    s = exponent % r
    b = reference.orbit(a, modulus)[s]
    m = r.bit_length() - 1
    if driver == "shor_dlog_pow2":
        result = alg.shor_dlog_pow2(modulus, a, b, seed=seed)
    else:
        result = alg.qpe_dlog(modulus, a, b, m, seed=seed)
    assert np.max(np.abs(law(result, 2 * m) - reference.dlog_law(r, s, 1))) <= LAW_TOL
    if result.answer["s"] is not None:
        assert pow(a, result.answer["s"], modulus) == b


@st.composite
def two_to_one_tables(draw):
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, (1 << n) - 1))
    relabel = draw(st.permutations(range(1 << n)))
    rows = tuple(format(relabel[min(x, x ^ s)], f"0{n}b") for x in range(1 << n))
    return n, s, TruthTable(n, n, rows)


@settings(max_examples=40, deadline=None)
@given(two_to_one_tables(), st.sampled_from(["permutation", "circuit"]), SEEDS)
def test_simon_round_is_uniform_on_the_orthogonal_strings(case, form, seed):
    n, s, table = case
    oracle = xor_permutation_oracle(table) if form == "permutation" else synth_multi_oracle(table)
    want = reference.simon_law(n, s)
    got = reference.dist_array(alg.simon_round_distribution(oracle, n).entries, n)
    assert np.max(np.abs(got - want)) <= LAW_TOL
    assert want[int(alg.simon_round(oracle, n, np.random.default_rng(seed)), 2)] > reference.SUPPORT_FLOOR


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)), SEEDS)
def test_deutsch_jozsa_follows_the_walsh_sum(rows, seed):
    n = len(rows).bit_length() - 1
    table = TruthTable(n, 1, tuple(str(v) for v in rows))
    want = reference.dj_law(rows)
    results = [alg.deutsch_jozsa(synth_bit_oracle(table), n, seed=seed)]
    if n == 1:
        results += [alg.deutsch(table, economical, seed=seed) for economical in (False, True)]
    for result in results:
        assert np.max(np.abs(law(result, n) - want)) <= LAW_TOL
        if len(set(rows)) == 1 or sum(rows) * 2 == len(rows):
            assert result.answer == ("constant" if len(set(rows)) == 1 else "balanced")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.integers(0, (1 << n) - 1).map(lambda s: format(s, f"0{n}b"))), SEEDS)
def test_bernstein_vazirani_follows_the_walsh_sum(s, seed):
    n = len(s)
    want = reference.dj_law([bin(x & int(s, 2)).count("1") % 2 for x in range(1 << n)])
    for economical in (False, True):
        result = alg.bernstein_vazirani(synth_bv_oracle(s), n, economical, seed=seed)
        assert np.max(np.abs(law(result, n) - want)) <= LAW_TOL
        assert result.answer == s
