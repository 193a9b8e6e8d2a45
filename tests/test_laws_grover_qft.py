"""Grover (both variants, the doubling schedule and SAT) and the QFT against their closed forms, over random inputs.

The laws are imported from ``perfbench/reference.py``, which uses only
``math`` and NumPy, so the benchmark and these tests check against one copy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qsim.algorithms as alg
from qsim.circuit import simulate
from qsim.cli import parse_bool_expr
from qsim.qstate import basis_state

from conftest import perfbench_module

reference = perfbench_module("reference")

LAW_TOL = 1e-10


@st.composite
def grover_cases(draw):
    n = draw(st.integers(1, 10))
    big_n = 1 << n
    count = draw(st.one_of(st.integers(1, min(4, big_n)), st.integers(1, big_n)))
    marked = draw(st.lists(st.integers(0, big_n - 1), min_size=count, max_size=count, unique=True))
    t_override = draw(st.one_of(st.none(), st.integers(0, 12)))
    variant = draw(st.sampled_from(["economical", "standard"]))
    return n, sorted(marked), t_override, variant


@settings(max_examples=120, deadline=None)
@given(grover_cases(), st.integers(0, 2**32 - 1))
def test_grover_follows_the_sin_squared_law(case, seed):
    n, marked, t_override, variant = case
    big_n = 1 << n
    result = alg.grover([format(x, f"0{n}b") for x in marked], n, variant, t_override, seed)
    if t_override is not None:
        t = t_override
    elif len(marked) > big_n // 2:
        t = 0  # the flagged uniform fallback, which is the law at t = 0
        assert result.answer["degenerate"]
    else:
        t = reference.grover_iterations(big_n, len(marked))
    if not result.answer["degenerate"]:
        assert result.rounds_used == t
    got = reference.dist_array(result.exact_distribution.entries, n)
    assert np.max(np.abs(got - reference.grover_law(n, marked, t))) <= LAW_TOL
    assert got[int(result.answer["x"], 2)] > reference.SUPPORT_FLOOR


@st.composite
def formulas(draw, depth=3):
    """A ``! & |`` formula over the variables a..e; the top level is never a bare variable."""
    if depth == 0 or (depth < 3 and draw(st.integers(0, 3)) == 0):
        return draw(st.sampled_from("abcde"))
    pick = draw(st.integers(0, 2))
    if pick == 0:
        return "!" + draw(formulas(depth - 1))
    return "(" + draw(formulas(depth - 1)) + "&|"[pick - 1] + draw(formulas(depth - 1)) + ")"


@settings(max_examples=40, deadline=None)
@given(formulas(), st.booleans(), st.integers(0, 2**32 - 1))
def test_sat_solve_follows_the_sin_squared_law(text, m_known, seed):
    expr, n_vars = parse_bool_expr(text)
    models = reference.formula_models(text, n_vars)
    result = alg.sat_solve(expr, n_vars, m_known=len(models) if m_known and models else None, seed=seed)
    if not result.success:
        return  # no guess found a model; there is no law to read
    assert reference.formula_eval(text, result.answer)
    guess = len(models) if m_known else 1 << (result.rounds_used - 1)
    t = reference.grover_iterations(1 << n_vars, guess)
    got = reference.dist_array(result.exact_distribution.entries, n_vars)
    assert np.max(np.abs(got - reference.grover_law(n_vars, models, t))) <= LAW_TOL


@st.composite
def marked_sets(draw):
    n = draw(st.integers(1, 8))
    count = draw(st.integers(1, min(6, 1 << n)))
    return n, sorted(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count, unique=True)))


@settings(max_examples=40, deadline=None)
@given(marked_sets(), st.integers(0, 2**32 - 1))
def test_grover_unknown_m_follows_the_law_of_its_last_guess(case, seed):
    n, marked = case
    strings = {format(x, f"0{n}b") for x in marked}
    result = alg.grover_unknown_m(strings.__contains__, n, seed)
    if not result.success:
        return  # every guess missed; the failure carries no law
    assert result.answer["x"] in strings
    t = reference.grover_iterations(1 << n, 1 << (result.rounds_used - 1))
    got = reference.dist_array(result.exact_distribution.entries, n)
    assert np.max(np.abs(got - reference.grover_law(n, marked, t))) <= LAW_TOL


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_qft_of_a_basis_state_is_the_fft_column(case):
    n, x = case
    out = simulate(alg.qft_circuit(n), basis_state(n, x)).amps
    assert np.max(np.abs(out - reference.qft_column(n, x))) <= LAW_TOL


def test_qft_at_twenty_qubits_is_the_fft_column():
    out = simulate(alg.qft_circuit(20), basis_state(20, 0xB5A3D)).amps
    assert np.max(np.abs(out - reference.qft_column(20, 0xB5A3D))) <= LAW_TOL
