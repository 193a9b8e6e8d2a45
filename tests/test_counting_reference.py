"""Matrix-free quantum counting against the dense reference and the closed form.

``quantum_counting`` applies the Grover step G**(2**j) in place for power j,
in closed form (a rotation on span{|good>, |bad>}). The reference in
``slow_reference`` builds the 2**n x 2**n step and squares it; both must give the two-eigenphase law of Brassard, Hoyer, Mosca and Tapp,
``reference.counting_law`` in the benchmark's law module:
1/2 sum_+- |2^-m sum_k e^{2 pi i k (+-theta/2pi - j/2^m)}|^2, with
theta = 2 asin(sqrt(M/N)).
"""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import algorithms as alg
from qsim.algorithms.qpe import _GroverStep

from conftest import perfbench_module
from slow_reference import reference_counting_law, reference_grover_step

reference = perfbench_module("reference")

LAW_ATOL = 1e-10


def counting_law(result, m: int) -> np.ndarray:
    dist = result.exact_distribution
    assert dist.width == m
    return dist.values


@st.composite
def counting_cases(draw, max_n, min_m, max_m):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(min_m, max_m))
    size = 1 << n
    indices = draw(
        st.one_of(
            st.just(set()),
            st.just(set(range(size))),
            st.sets(st.integers(0, size - 1), max_size=size),
        )
    )
    return n, m, [format(x, f"0{n}b") for x in sorted(indices)], draw(st.integers(0, 2**32 - 1))


@settings(max_examples=190, deadline=None)
@given(
    st.one_of(
        counting_cases(max_n=7, min_m=1, max_m=5),
        # More counting than work qubits: powers up to G**128 on at most 8 states.
        counting_cases(max_n=3, min_m=4, max_m=8),
    )
)
def test_counting_matches_dense_reference_and_closed_form(case):
    n, m, marked, seed = case
    res = alg.quantum_counting(marked, n, m=m, seed=seed)
    law = counting_law(res, m)
    assert np.max(np.abs(law - reference_counting_law(marked, n, m))) <= LAW_ATOL
    assert np.max(np.abs(law - reference.counting_law(n, len(marked), m))) <= LAW_ATOL
    assert law[res.answer["phi_tilde"]] > 1e-12


@settings(max_examples=150, deadline=None)
@given(counting_cases(max_n=5, min_m=1, max_m=1), st.integers(0, 70))
def test_grover_step_power_equals_dense_matrix_power(case, k):
    # Counting only feeds the step states in span{|good>, |bad>}; a general
    # batch also checks the rotation's direction and the (-1)**k on the rest.
    n, _, marked, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2, 1 << n)) + 1j * rng.normal(size=(3, 2, 1 << n))
    expected = x @ np.linalg.matrix_power(reference_grover_step(marked, n), k).T
    _GroverStep(n, marked).power(k)(x)
    assert np.max(np.abs(x - expected)) <= LAW_ATOL


def test_counting_n10_matches_dense_reference():
    marked = ["0000000111", "0011010010", "0101100001", "1000000000", "1011101110", "1100110011", "1111111111"]
    res = alg.quantum_counting(marked, 10, seed=3)
    law = counting_law(res, 6)  # default m = ceil(10 / 2) + 1
    assert np.max(np.abs(law - reference_counting_law(marked, 10, 6))) <= LAW_ATOL
    assert np.max(np.abs(law - reference.counting_law(10, 7, 6))) <= LAW_ATOL


def test_counting_at_twenty_qubits_in_seconds():
    rng = np.random.default_rng(5)
    marked = [format(int(x), "014b") for x in rng.choice(1 << 14, size=40, replace=False)]
    start = time.perf_counter()
    res = alg.quantum_counting(marked, 14, m=6, seed=1)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(counting_law(res, 6) - reference.counting_law(14, 40, 6))) <= LAW_ATOL
    assert elapsed < 5.0, f"n = 14, m = 6 took {elapsed:.2f} s"
