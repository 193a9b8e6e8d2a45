"""SAT's phase oracle on the variable register, and the diagonal kernel it runs on.

``sat_solve`` searches on the formula's variable qubits, its oracle one
``PhaseOracle`` of the signs (-1)**f(x). The compiled circuit it replaces
(``reference_sat_oracle``: compute, Z, uncompute) stays the reference: on
every |x>|0...0> it must give exactly (-1)**f(x) |x>|0...0>, with the signs
the phase oracle holds. The ``"diag"`` kernel, which reads every diagonal operand
as a vector, must scale amplitudes exactly as ``reference_apply_diagonal``,
which decodes each basis index bit by bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.algorithms.grover import sat_solve
from qsim.circuit import Circuit, _kernels, _run, simulate, unitary_of
from qsim.gates import apply_kernel, standard_gate
from qsim.oracles import And, Not, Or, PhaseOracle, Var, Xor, expr_phase_oracle

from conftest import perfbench_module
from slow_reference import reference_apply_diagonal, reference_run, reference_sat_oracle

reference = perfbench_module("reference")


def _nodes(inner):
    operands = st.lists(inner, min_size=2, max_size=3)
    return st.one_of(
        st.builds(Not, inner),
        operands.map(lambda c: And(*c)),
        operands.map(lambda c: Or(*c)),
        st.builds(Xor, inner, inner),
    )


@st.composite
def formulas(draw, max_vars=6):
    """A random expression over {var, not, and, or, xor} and its variable count."""
    n = draw(st.integers(1, max_vars))
    return draw(st.recursive(st.builds(Var, st.integers(0, n - 1)), _nodes, max_leaves=6)), n


@settings(max_examples=120, deadline=None)
@given(formulas())
def test_the_compiled_oracle_is_the_phase_oracle_on_every_basis_input(case):
    e, n = case
    c, width = reference_sat_oracle(e, n)
    # column x starts as |x>|0...0>, the ancillas the trailing width - n qubits
    columns = np.zeros((1 << width, 1 << n), dtype=complex)
    columns[np.arange(1 << n) << width - n, np.arange(1 << n)] = 1
    signs = expr_phase_oracle(e, n).signs
    want = columns * signs
    _run(columns, width, _kernels(c.ops))
    assert np.array_equal(columns, want)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_sat_solve_on_a_bare_variable_follows_the_law(case, negated_twice, m_known, seed):
    """A bare variable compiles to no ancillas (a lone Z); the search still runs its phase oracle.
    Half the rows are models, so the law is uniform at every t: this checks the path end to end,
    and the compiled-oracle test above checks the signs."""
    n, i = case
    e = Not(Not(Var(i))) if negated_twice else Var(i)
    assert reference_sat_oracle(e, n)[1] == n
    models = [x for x in range(1 << n) if x >> (n - 1 - i) & 1]
    result = sat_solve(e, n, m_known=len(models) if m_known else None, seed=seed)
    if not result.success:
        return  # no guess found a model; there is no law to read
    assert result.answer[i] == "1"
    guess = len(models) if m_known else 1 << (result.rounds_used - 1)
    t = reference.grover_iterations(1 << n, guess)
    got = reference.dist_array(result.exact_distribution.entries, n)
    assert np.max(np.abs(got - reference.grover_law(n, models, t))) <= 1e-10


def _signs(max_qubits=6):
    return st.integers(1, max_qubits).flatmap(
        lambda k: st.lists(st.sampled_from([1.0, -1.0]), min_size=1 << k, max_size=1 << k)
    )


@settings(max_examples=40, deadline=None)
@given(_signs())
def test_unitary_of_a_phase_oracle_is_its_diagonal_and_it_is_its_own_inverse(signs):
    oracle = PhaseOracle(signs)
    k = oracle.arity
    c = Circuit(k).append(oracle, range(k))
    assert np.array_equal(unitary_of(c), np.diag(oracle.signs).astype(complex))
    inverse = c.inverse_ops()
    assert [(op.gate, op.targets, op.controls) for op in inverse] == [(oracle, tuple(range(k)), ())]


@settings(max_examples=60, deadline=None)
@given(_signs(max_qubits=4), st.integers(0, 3), st.lists(st.integers(0, 6), max_size=6))
def test_a_leading_phase_oracle_simulates_from_its_first_entry(signs, lo, h_qubits):
    """From |0...0> the leading diagonal's column is signs[0] e_0 (``_prefix_state``)."""
    oracle = PhaseOracle(signs)
    n = lo + oracle.arity + 2
    c = Circuit(n).append(oracle, range(lo, lo + oracle.arity))
    zero = np.zeros(1 << n, dtype=complex)
    zero[0] = 1
    assert np.array_equal(simulate(c).amps, zero * signs[0])
    for q in h_qubits:
        c.h(q % n)
    assert np.max(np.abs(simulate(c).amps - reference_run(zero, c))) <= 1e-12


@st.composite
def diagonal_cases(draw, max_qubits=7):
    """A diagonal of width k <= n on adjacent or scattered targets, controls of both polarities,
    and amplitudes (one column or a batch) with small integer parts."""
    n = draw(st.integers(1, max_qubits))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - k))
        targets = tuple(range(lo, lo + k))
    else:
        targets = tuple(draw(st.permutations(range(n)))[:k])
    rest = draw(st.permutations([q for q in range(n) if q not in targets]))
    controls = tuple((q, draw(st.integers(0, 1))) for q in rest[: draw(st.integers(0, len(rest)))])
    # dyadic entries and integer amplitudes make every product exact, so only the addressing can differ
    part = st.integers(-8, 8).map(lambda v: v / 4)
    diagonal = np.array(draw(st.lists(st.builds(complex, part, part), min_size=1 << k, max_size=1 << k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << n, 3) if draw(st.booleans()) else (1 << n,)
    amps = rng.integers(-8, 9, size=shape) + 1j * rng.integers(-8, 9, size=shape)
    return n, diagonal, targets, controls, amps


@settings(max_examples=300, deadline=None)
@given(diagonal_cases())
def test_diagonal_kernel_matches_the_index_arithmetic_reference(case):
    n, diagonal, targets, controls, amps = case
    fast = amps.copy()
    apply_kernel(fast, n, "diag", diagonal, targets, controls)
    assert np.array_equal(fast, reference_apply_diagonal(amps, n, diagonal, targets, controls))


def test_a_diagonal_gate_runs_on_its_vector():
    t = standard_gate("T")
    assert t._kind == "diag" and np.array_equal(t._operand, np.diagonal(t.matrix))
