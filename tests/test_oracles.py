import numpy as np
import pytest

from qsim.circuit import Circuit, simulate, unitary_of
from qsim.oracles import (
    And,
    Not,
    Or,
    PermutationOracle,
    TruthTable,
    Var,
    Xor,
    apply_permutation,
    expr_to_circuit,
    modexp_oracle,
    modmul_oracle,
    order2_modexp_circuit,
    smallest_power_of_two_above,
    synth_bit_oracle,
    synth_bv_oracle,
    synth_multi_oracle,
    synth_phase_oracle,
    toffoli_ladder,
    xor_permutation_oracle,
)
from qsim.numtheory import mod_inverse
from qsim.qstate import basis_state, kron


def permutation_matrix(perm: PermutationOracle) -> np.ndarray:
    dim = len(perm.mapping)
    matrix = np.zeros((dim, dim))
    matrix[perm.mapping, np.arange(dim)] = 1.0
    return matrix


def assert_matches_defining_permutation(circuit: Circuit, perm: PermutationOracle):
    assert np.max(np.abs(unitary_of(circuit) - permutation_matrix(perm))) <= 1e-12


# --- truth tables ---------------------------------------------------------


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, 1, ("0", "1", "0"))
    with pytest.raises(ValueError):
        TruthTable(1, 1, ("0", "2"))


def test_truth_table_text_round_trip():
    tt = TruthTable(2, 2, ("00", "01", "10", "11"))
    assert TruthTable.from_text(tt.to_text()) == tt
    with pytest.raises(ValueError):
        TruthTable.from_text("00 0\n01 1")


# --- bit oracles ----------------------------------------------------------


def test_deutsch_identity_function_is_cnot():
    tt = TruthTable(1, 1, ("0", "1"))
    c = synth_bit_oracle(tt)
    assert len(c.ops) == 1
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[2, 3] = expected[3, 2] = 1
    assert np.allclose(unitary_of(c), expected)


def test_constant_zero_is_empty_circuit():
    tt = TruthTable(1, 1, ("0", "0"))
    c = synth_bit_oracle(tt)
    assert c.ops == []
    assert np.allclose(unitary_of(c), np.eye(4))


def test_worked_three_bit_table_polarities():
    tt = TruthTable(3, 1, ("0", "1", "0", "0", "0", "0", "1", "0"))
    c = synth_bit_oracle(tt)
    assert [op.controls for op in c.ops] == [
        ((0, 0), (1, 0), (2, 1)),
        ((0, 1), (1, 1), (2, 0)),
    ]
    assert_matches_defining_permutation(c, xor_permutation_oracle(tt))


def test_bit_oracle_needs_single_output():
    with pytest.raises(ValueError):
        synth_bit_oracle(TruthTable(1, 2, ("00", "01")))


SIMON_ROWS = ("000", "001", "010", "100", "010", "100", "000", "001")


def test_simon_oracle_matches_figure():
    tt = TruthTable(3, 3, SIMON_ROWS)
    c = synth_multi_oracle(tt)
    assert [op.targets[0] for op in c.ops] == [3, 3, 4, 4, 5, 5]
    assert_matches_defining_permutation(c, xor_permutation_oracle(tt))


def test_worked_toffoli_merge_fixture():
    # rows that differ in a single input bit merge into one gate with that
    # control dropped: the four-gate oracle on {001,011,110,111} becomes two
    ones = {"001", "011", "110", "111"}
    tt = TruthTable.from_function(3, 1, lambda x: "1" if x in ones else "0")
    full = synth_bit_oracle(tt)
    assert len(full.ops) == 4
    merged = Circuit(4)
    merged.mcx(((0, 0), (2, 1)), 3)  # covers 001 and 011
    merged.mcx(((0, 1), (1, 1)), 3)  # covers 110 and 111
    assert np.max(np.abs(unitary_of(merged) - unitary_of(full))) <= 1e-12


def test_multi_oracle_single_column_agrees_with_bit_oracle():
    tt = TruthTable(2, 1, ("0", "1", "1", "0"))
    assert np.allclose(
        unitary_of(synth_multi_oracle(tt)), unitary_of(synth_bit_oracle(tt))
    )


def test_random_multi_oracle_against_definition(rng):
    for _ in range(3):
        rows = tuple(format(int(rng.integers(8)), "03b") for _ in range(8))
        tt = TruthTable(3, 3, rows)
        assert_matches_defining_permutation(
            synth_multi_oracle(tt), xor_permutation_oracle(tt)
        )


# --- phase oracles --------------------------------------------------------


def test_phase_oracle_diag_values():
    u = unitary_of(synth_phase_oracle(2, ["11"]))
    assert np.allclose(np.diag(u), [1, 1, 1, -1])
    u = unitary_of(synth_phase_oracle(3, ["101", "111"]))
    assert np.allclose(np.diag(u), [1, 1, 1, 1, 1, -1, 1, -1])


def test_phase_oracle_empty_marked_is_identity():
    assert np.allclose(unitary_of(synth_phase_oracle(2, [])), np.eye(4))


def test_phase_oracles_are_diagonal(rng):
    for _ in range(5):
        n = int(rng.integers(1, 5))
        marked = {format(int(rng.integers(1 << n)), f"0{n}b") for _ in range(rng.integers(1, 4))}
        u = unitary_of(synth_phase_oracle(n, marked))
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) <= 1e-12
        diag = np.diag(u)
        for x in range(1 << n):
            expected = -1.0 if format(x, f"0{n}b") in marked else 1.0
            assert abs(diag[x] - expected) <= 1e-12


def test_phase_oracle_pairs_with_bit_oracle_on_minus():
    # U_f (|x> tensor |->) = (-1)^f(x) |x> tensor |->
    for n in (1, 2, 3):
        rows = tuple("1" if x % 3 == 1 else "0" for x in range(1 << n))
        tt = TruthTable(n, 1, rows)
        bit = synth_bit_oracle(tt)
        phase = synth_phase_oracle(n, [format(x, f"0{n}b") for x in range(1 << n) if rows[x] == "1"])
        minus = simulate(Circuit(1).x(0).h(0))
        for x in range(1 << n):
            via_bit = simulate(bit, kron(basis_state(n, x), minus))
            via_phase = kron(simulate(phase, basis_state(n, x)), minus)
            assert np.max(np.abs(via_bit.amps - via_phase.amps)) <= 1e-12


# --- linear oracles -------------------------------------------------------


def test_bv_oracle_worked_example():
    c = synth_bv_oracle("1011")
    assert [(op.controls[0][0], op.targets[0]) for op in c.ops] == [(0, 4), (2, 4), (3, 4)]


def test_bv_oracle_zero_string_is_identity():
    c = synth_bv_oracle("000")
    assert c.ops == []


def test_bv_oracle_all_ones_computes_parity():
    c = synth_bv_oracle("1111")
    for x in range(16):
        out = simulate(c, kron(basis_state(4, x), basis_state(1, 0)))
        got = int(np.argmax(np.abs(out.amps)))
        assert got == (x << 1) | (bin(x).count("1") & 1)


# --- expression compiler --------------------------------------------------


def expr_truth_table(e, n):
    return [e.evaluate(format(x, f"0{n}b")) for x in range(1 << n)]


def assert_expression_circuit(e, n):
    c, result, n_anc = expr_to_circuit(e, uncompute=True, n_vars=n)
    width = c.num_qubits
    for x in range(1 << n):
        out = simulate(c, basis_state(width, x << (width - n)))
        index = int(np.argmax(np.abs(out.amps)))
        bits = format(index, f"0{width}b")
        assert int(bits[result]) == e.evaluate(format(x, f"0{n}b"))
        restored = [bits[q] for q in range(n, width) if q != result]
        assert all(b == "0" for b in restored), (format(x, f"0{n}b"), bits)


def test_expr_paper_example_counts():
    e = And(Var(0), Or(Not(Var(1)), Var(2)))
    c, result, n_anc = expr_to_circuit(e)
    assert n_anc == 2
    assert sum(1 for op in c.ops if op.controls) == 3  # the three Toffolis
    assert_expression_circuit(e, 3)


def test_expr_bare_variable():
    c, result, n_anc = expr_to_circuit(Var(0), n_vars=2)
    assert (c.ops, result, n_anc) == ([], 0, 0)


def test_expr_unsimplified_matches_simplified():
    raw = And(Var(0), Or(Var(2), And(Var(0), Not(Var(1)), Not(Var(2)))))
    simplified = And(Var(0), Or(Not(Var(1)), Var(2)))
    assert expr_truth_table(raw, 3) == expr_truth_table(simplified, 3)
    assert_expression_circuit(raw, 3)
    assert_expression_circuit(simplified, 3)


def test_expr_xor_and_negated_root():
    assert_expression_circuit(Xor(Var(0), Var(1)), 2)
    assert_expression_circuit(Xor(Not(Var(0)), Var(1)), 2)
    assert_expression_circuit(Not(And(Var(0), Var(1))), 2)
    assert_expression_circuit(Not(Var(0)), 1)


def test_expr_contradiction_and_tautology():
    assert_expression_circuit(And(Var(0), Not(Var(0))), 1)
    assert_expression_circuit(Or(Var(0), Not(Var(0))), 1)


def test_expr_restoration_corpus(rng):
    corpus = [
        And(Var(0), Var(1), Var(2)),
        Or(And(Var(0), Not(Var(1))), Xor(Var(1), Var(2))),
        Not(Or(Var(0), And(Var(1), Var(2)))),
        Xor(And(Var(0), Var(1)), Or(Var(1), Not(Var(2)))),
    ]
    for e in corpus:
        assert_expression_circuit(e, 3)


# --- Toffoli ladder -------------------------------------------------------


@pytest.mark.parametrize("n_controls,gates,ancillas", [(3, 3, 1), (4, 5, 2), (5, 7, 3)])
def test_toffoli_ladder_counts(n_controls, gates, ancillas):
    c = toffoli_ladder(n_controls)
    assert len(c.ops) == gates == 2 * (n_controls - 2) + 1
    assert c.num_qubits == n_controls + 1 + ancillas


@pytest.mark.parametrize("n_controls", [3, 4, 5])
def test_toffoli_ladder_unitary(n_controls):
    c = toffoli_ladder(n_controls)
    width = c.num_qubits
    anc = width - n_controls - 1
    all_ones = (1 << n_controls) - 1
    for x in range(1 << (n_controls + 1)):
        out = simulate(c, basis_state(width, x << anc))
        got = int(np.argmax(np.abs(out.amps)))
        controls = x >> 1
        flipped = x ^ 1 if controls == all_ones else x
        assert got == flipped << anc  # ancillas restored to zero as well


def test_toffoli_ladder_minimum():
    with pytest.raises(ValueError):
        toffoli_ladder(2)


# --- modular arithmetic oracles -------------------------------------------


def test_modexp_worked_values():
    oracle = modexp_oracle(2, 21, 512)
    assert oracle.total_qubits == 14
    assert int(oracle.mapping[(6 << 5) | 0]) == (6 << 5) | 1  # 2^6 = 1 mod 21
    assert int(oracle.mapping[(0 << 5) | 7]) == (0 << 5) | (7 ^ 1)  # a^0 = 1
    assert oracle.is_involution()


def test_modexp_requires_coprime_base():
    with pytest.raises(ValueError):
        modexp_oracle(6, 21, 512)
    with pytest.raises(ValueError):
        modexp_oracle(2, 21, 500)


def test_modmul_worked_values():
    oracle = modmul_oracle(2, 21)
    assert int(oracle.mapping[11]) == 1  # 2*11 = 22 = 1 mod 21
    assert np.array_equal(modmul_oracle(1, 21).mapping, np.arange(32))
    inverse = modmul_oracle(mod_inverse(2, 21), 21)
    composed = inverse.mapping[oracle.mapping]
    assert np.array_equal(composed, np.arange(32))
    for y in range(21, 32):  # values above the modulus stay put
        assert int(oracle.mapping[y]) == y


def test_xor_form_oracles_are_involutions(rng):
    for _ in range(3):
        rows = tuple(format(int(rng.integers(4)), "02b") for _ in range(8))
        oracle = xor_permutation_oracle(TruthTable(3, 2, rows))
        assert oracle.is_involution()


def test_order2_circuit_matches_permutation():
    c = order2_modexp_circuit(13, 21)
    reference = modexp_oracle(13, 21, 512)
    neg = [op for op in c.ops if op.controls[0][1] == 0]
    assert len(neg) == 1 and neg[0].targets == (13,)
    pos_targets = sorted(op.targets[0] - 9 for op in c.ops if op.controls[0][1] == 1)
    assert pos_targets == [1, 2, 4]  # 13 = (01101) in five bits
    for ell in range(0, 512, 37):
        out = simulate(c, basis_state(14, ell << 5))
        assert int(np.argmax(np.abs(out.amps))) == int(reference.mapping[ell << 5])


def test_order2_accepts_the_listed_bases():
    order2_modexp_circuit(20, 21)
    order2_modexp_circuit(8, 21)
    with pytest.raises(ValueError):
        order2_modexp_circuit(2, 21)  # order 6
    with pytest.raises(ValueError):
        order2_modexp_circuit(1, 21)


# --- permutation plumbing -------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        PermutationOracle(2, np.array([0, 1, 1, 3]))


@pytest.mark.parametrize(
    "mapping",
    [
        [0, 1, -1, 3],  # negative
        [-4, 1, 2, 3],  # negative, and -4 + 4 would be a valid index
        [0, 1, 2, 4],  # equal to 2**k
        [0, 1, 9, 3],  # above 2**k
        [3, 3, 3, 3],  # every value repeated
        [0, 2, 2, 3],
    ],
)
def test_permutation_rejects_values_outside_a_bijection(mapping):
    with pytest.raises(ValueError, match="not a permutation"):
        PermutationOracle(2, np.array(mapping))


@pytest.mark.parametrize("mapping", [[0, 1, 2], [0, 1, 2, 3, 4], [[0, 1], [2, 3]], []])
def test_permutation_rejects_a_wrong_length(mapping):
    with pytest.raises(ValueError, match="mapping length"):
        PermutationOracle(2, np.array(mapping, dtype=np.int64))


def test_apply_permutation_with_controls(rng):
    swap01 = PermutationOracle(1, np.array([1, 0]))
    state = simulate(Circuit(2).h(0))
    out = apply_permutation(state, swap01, targets=[1], controls=((0, 1),))
    expected = simulate(Circuit(2).h(0).cx(0, 1))
    assert np.max(np.abs(out.amps - expected.amps)) <= 1e-12


def test_permutation_power_by_squaring():
    oracle = modmul_oracle(2, 21)
    powered = oracle.power(5)
    direct = np.arange(32)
    for _ in range(5):
        direct = oracle.mapping[direct]
    assert np.array_equal(powered.mapping, direct)
    assert np.array_equal(oracle.power(-5).mapping[direct], np.arange(32))


def test_smallest_power_of_two_above():
    assert smallest_power_of_two_above(441) == 512
    assert smallest_power_of_two_above(256) == 512
    assert smallest_power_of_two_above(1) == 2
