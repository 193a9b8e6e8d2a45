"""Phase estimation, Simon and the one-query drivers against their closed forms, over random inputs.

Phase estimation of a non-dyadic phase follows the Fejer form, written here.
The other laws come from ``perfbench/reference.py``, which uses only ``math`` and
NumPy: order finding is |FFT|^2 of the indicator of the drawn residue's
exponents, the discrete log is 1/r on the line l2 = s*l1, a Simon round is
uniform on the strings orthogonal to s, and Deutsch-Jozsa and
Bernstein-Vazirani follow the Walsh sum. Given the drawn output z, the input
register's law in Simon's round, order finding and the discrete log is also
``slow_reference.coset_law``: |DFT|^2 of the indicator of f's z-coset.
"""

import importlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qsim.algorithms as alg
from qsim.algorithms.common import conditional_sampler, fourier_round
from qsim.algorithms.qft import inverse_qft_registers
from qsim.algorithms.shor import _dlog_function_oracle
from qsim.gates import Gate
from qsim.oracles import TruthTable, synth_bit_oracle, synth_bv_oracle, synth_multi_oracle, xor_permutation_oracle
from qsim.qstate import basis_state

from conftest import perfbench_module
from slow_reference import coset_law, reference_dlog_values, reference_modexp_values

reference = perfbench_module("reference")
simon_module = importlib.import_module("qsim.algorithms.simon")  # the package's ``simon`` hides it

LAW_TOL = 1e-10
COSET_TOL = 1e-12
SEEDS = st.integers(0, 2**32 - 1)


def law(result, width: int) -> np.ndarray:
    return reference.dist_array(result.exact_distribution.entries, width)


def fejer_law(phi: float, m: int) -> np.ndarray:
    """P(l) = sin^2(pi 2^m d) / (2^2m sin^2(pi d)), d = phi - l/2^m: the read-out law of
    m-bit phase estimation on an eigenstate with eigenphase phi (no l has d = 0)."""
    delta = phi - np.arange(1 << m) / (1 << m)
    return np.sin(np.pi * (1 << m) * delta) ** 2 / ((1 << (2 * m)) * np.sin(np.pi * delta) ** 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))),
       st.floats(0.01, 0.99), SEEDS)
def test_qpe_of_a_non_dyadic_phase_follows_the_fejer_law(case, fraction, seed):
    m, j = case
    phi = (j + fraction) / (1 << m)  # strictly between two m-bit phases
    u = Gate("phase", np.diag([1.0, np.exp(2j * np.pi * phi)]))
    result = alg.qpe(u, basis_state(1, 1), m, seed=seed)
    want = fejer_law(phi, m)
    assert np.max(np.abs(law(result, m) - want)) <= LAW_TOL
    assert want[result.answer] > 0


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
def two_to_one_tables(draw, max_n=6):
    n = draw(st.integers(1, max_n))
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


@settings(max_examples=40, deadline=None)
@given(two_to_one_tables(max_n=5), SEEDS)
def test_simon_conditional_law_is_the_coset_law(case, seed):
    n, _, table = case
    z, got, _ = simon_module._round_sampler(xor_permutation_oracle(table), n).draw(np.random.default_rng(seed))
    values = [int(row, 2) for row in table.rows]
    assert np.max(np.abs(got.values - coset_law(values, (2,) * n, z))) <= COSET_TOL


# the orders include 3 and 6, which are not powers of 2
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDER_CASES), SEEDS)
def test_order_finding_conditional_law_is_the_coset_law(case, seed):
    modulus, a = case
    result = alg.shor_quantum_part(a, modulus, seed=seed)
    q, z = result.answer["q"], result.answer["z"]
    want = coset_law(reference_modexp_values(a, modulus, q), (q,), z)
    assert np.max(np.abs(result.exact_distribution.values - want)) <= COSET_TOL


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DLOG_CASES), st.integers(0, 15), SEEDS)
def test_discrete_log_conditional_law_is_the_coset_law(case, exponent, seed):
    modulus, a, r = case
    b = reference.orbit(a, modulus)[exponent % r]
    m, n = r.bit_length() - 1, (modulus - 1).bit_length()
    # the driver's own round and sampler, drawn with its seed, so z is the driver's z
    state = fourier_round(_dlog_function_oracle(modulus, a, b, m, n), 2 * m, n)
    sampler = conditional_sampler(state, n, inverse_qft_registers(m, 2 * m, (0, m)))
    z, got, _ = sampler.draw(np.random.default_rng(seed))
    assert np.array_equal(got.values, alg.shor_dlog_pow2(modulus, a, b, seed=seed).exact_distribution.values)
    want = coset_law(reference_dlog_values(modulus, a, b, m), (r, r), z)
    assert np.max(np.abs(got.values - want)) <= COSET_TOL


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
