import math

import pytest

from qsim import algorithms as alg
from qsim.circuit import ResourceLimitError
from qsim.oracles import And, Not, Or, Var


def success_probability(result, marked):
    return sum(result.exact_distribution.prob(bits) for bits in marked)


def test_single_marked_two_qubits_is_exact():
    res = alg.grover(["11"], 2, seed=0)
    assert success_probability(res, ["11"]) == pytest.approx(1.0, abs=1e-9)
    assert res.answer["x"] == "11"
    geometry = alg.grover_geometry(2, 1)
    assert geometry.theta == pytest.approx(math.pi / 3)
    assert geometry.iterations == 1


def test_three_qubits_two_iterations_closed_form():
    res = alg.grover(["110"], 3, t_override=2, seed=0)
    expected = math.sin(5 * math.asin(1 / math.sqrt(8))) ** 2
    assert success_probability(res, ["110"]) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 11))
def test_single_marked_success_bound(n):
    marked = [format((n * 37) % (1 << n), f"0{n}b")]
    res = alg.grover(marked, n, seed=0)
    p = success_probability(res, marked)
    assert p >= 1 - 1 / (1 << n)
    geometry = alg.grover_geometry(n, 1)
    assert p == pytest.approx(geometry.predicted_success, abs=1e-9)


def test_geometry_matches_simulation_for_small_marked_sets(rng):
    for n in (3, 5, 7):
        for m in (1, 2, 3, 4):
            marked = sorted(
                {format(int(rng.integers(1 << n)), f"0{n}b") for _ in range(m)}
            )
            res = alg.grover(marked, n, seed=0)
            geometry = alg.grover_geometry(n, len(marked))
            assert success_probability(res, marked) == pytest.approx(
                geometry.predicted_success, abs=1e-9
            )
            assert math.sin(geometry.theta / 2) == pytest.approx(
                math.sqrt(len(marked) / (1 << n)), abs=1e-12
            )


def test_variants_produce_identical_distributions():
    for marked in (["101"], ["001", "111"]):
        economical = alg.grover(marked, 3, variant="economical", seed=0)
        standard = alg.grover(marked, 3, variant="standard", seed=0)
        for bits, p in economical.exact_distribution.entries.items():
            assert abs(p - standard.exact_distribution.prob(bits)) <= 1e-9


def test_degenerate_marked_majority():
    marked = [format(x, "02b") for x in range(3)]
    res = alg.grover(marked, 2, seed=0)
    assert res.answer["degenerate"] is True
    assert res.exact_distribution.prob("00") == pytest.approx(0.25)


@pytest.mark.parametrize(
    "marked, n, variant",
    [(["1001"], 3, "standard"), (["1001"], 3, "economical"), (["00", "01", "1x"], 2, "economical")],
)
def test_grover_refuses_a_string_that_is_not_n_bits(marked, n, variant):
    # the last case marks more than half the strings, so it takes the degenerate path
    with pytest.raises(ValueError, match=f"is not a bit string of length {n}$"):
        alg.grover(marked, n, variant=variant)


@pytest.mark.parametrize("n", [0, -1])
def test_grover_refuses_an_empty_register(n):
    with pytest.raises(ValueError, match="at least one qubit"):
        alg.grover(["0"], n)


@pytest.mark.parametrize("n", [0, -1])
def test_unknown_m_refuses_an_empty_register(n):
    with pytest.raises(ValueError, match="at least one qubit"):
        alg.grover_unknown_m(lambda bits: True, n)


def test_unknown_m_checks_the_qubit_cap_before_probing():
    probed = []
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        alg.grover_unknown_m(lambda bits: probed.append(bits), 40)
    assert probed == []


def test_unknown_m_finds_verified_hit():
    members = {"101", "111"}
    res = alg.grover_unknown_m(lambda x: x in members, 3, seed=0)
    assert res.success and res.answer["x"] in members


def test_unknown_m_single_marked():
    hits = 0
    for seed in range(30):
        res = alg.grover_unknown_m(lambda x: x == "0110", 4, seed=seed)
        if res.success:
            assert res.answer["x"] == "0110"
            hits += res.rounds_used == 1
    # the first guess m=1 is correct, so nearly every run verifies immediately
    assert hits >= 30 * (1 - 1 / 16) - 5


def test_unknown_m_empty_set_fails():
    res = alg.grover_unknown_m(lambda x: False, 3, seed=0)
    assert not res.success and res.answer is None


def test_sat_paper_example_exact():
    e = And(Var(0), Or(Var(2), And(Not(Var(1)), Var(2))))
    res = alg.sat_solve(e, 3, m_known=2, seed=0)
    assert res.success and res.answer in ("101", "111")
    dist = res.exact_distribution
    assert dist.prob("101") + dist.prob("111") == pytest.approx(1.0, abs=1e-9)


def test_sat_unsatisfiable():
    res = alg.sat_solve(And(Var(0), Not(Var(0))), 1, seed=0)
    assert not res.success and res.answer is None


def test_sat_tautology_with_half_marked():
    res = alg.sat_solve(Or(Var(0), Not(Var(0))), 2, m_known=2, seed=0)
    assert res.success
    assert Or(Var(0), Not(Var(0))).evaluate(res.answer) == 1


def test_sat_without_known_count():
    e = And(Var(0), Or(Var(2), And(Not(Var(1)), Var(2))))
    wins = sum(alg.sat_solve(e, 3, seed=seed).success for seed in range(20))
    assert wins >= 15


def test_sat_variable_cap():
    with pytest.raises(ValueError):
        alg.sat_solve(Var(0), 13)
