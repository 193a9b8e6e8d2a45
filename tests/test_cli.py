import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsim import cli, qstate
from qsim.circuit import MAX_SHOTS
from qsim.cli import _top_entries, main, parse_bool_expr
from qsim.oracles import TruthTable
from test_golden import README_EXAMPLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_bv_json(capsys):
    code, report = run_json(capsys, "bv", "--s", "1011")
    assert code == 0
    assert report["answer"] == "1011"
    assert report["distribution"][0] == {"bitstring": "1011", "value": 1.0}
    assert report["seed"] == 0 and report["shots"] is None


def test_shor_json(capsys):
    code, report = run_json(capsys, "shor", "--N", "21", "--seed", "7")
    assert code == 0
    assert report["answer"] in (3, 7)
    assert report["algorithm"] == "shor"


def test_qft_check(capsys):
    code, report = run_json(capsys, "qft-check", "--n", "5")
    assert code == 0
    assert report["answer"]["gate_count"] == 17
    assert report["answer"]["max_error"] <= 1e-10


def test_deutsch_and_dj(capsys, tmp_path):
    code, report = run_json(capsys, "deutsch", "--f", "10")
    assert (code, report["answer"]) == (0, "balanced")

    table = TruthTable.from_function(3, 1, lambda x: "1" if x in {"001", "011", "110", "111"} else "0")
    path = tmp_path / "dj.tt"
    path.write_text(table.to_text())
    code, report = run_json(capsys, "dj", "--table", str(path))
    assert (code, report["answer"]) == (0, "balanced")


def test_simon_from_hidden_string(capsys):
    code, report = run_json(capsys, "simon", "--s", "110", "--seed", "5")
    assert code == 0
    assert report["answer"] == "110"


def test_simon_on_one_bit(capsys):
    # no rounds are needed: the empty system over one bit leaves only s = 1
    code, report = run_json(capsys, "simon", "--s", "1")
    assert code == 0 and report["answer"] == "1"


def test_simon_from_table(capsys, tmp_path):
    rows = ("000", "001", "010", "100", "010", "100", "000", "001")
    path = tmp_path / "simon.tt"
    path.write_text(TruthTable(3, 3, rows).to_text())
    code, report = run_json(capsys, "simon", "--table", str(path), "--seed", "5")
    assert code == 0 and report["answer"] == "110"


def test_grover_and_count(capsys):
    code, report = run_json(capsys, "grover", "--n", "3", "--marked", "110")
    assert code == 0 and report["answer"] == "110"
    code, report = run_json(capsys, "count", "--n", "2", "--marked", "00,11", "--m", "2")
    assert code == 0 and abs(report["answer"] - 2.0) <= 1e-9


def test_sat_round_trip(capsys):
    code, report = run_json(capsys, "sat", "--expr", "a&(c|(!b&c))")
    assert code == 0
    expr, n_vars = parse_bool_expr("a&(c|(!b&c))")
    assert n_vars == 3
    assert expr.evaluate(report["answer"]) == 1


def test_sat_unsat_exit_code(capsys):
    code, report = run_json(capsys, "sat", "--expr", "a&!a")
    assert code == 1 and report["answer"] is None


def test_dlog(capsys):
    for seed in range(6):
        code, report = run_json(
            capsys, "dlog", "--N", "34", "--a", "27", "--b", "3", "--seed", str(seed)
        )
        if code == 0:
            assert report["answer"] == 11
            return
    pytest.fail("every dlog seed failed; expected roughly half to succeed")


def test_qpe_order(capsys):
    code, report = run_json(capsys, "qpe-order", "--N", "15", "--a", "7", "--seed", "2")
    assert code == 0
    assert isinstance(report["answer"], int)


def test_byte_identical_reports_modulo_wall_time(capsys):
    _, first = run_json(capsys, "grover", "--n", "3", "--marked", "101", "--seed", "9")
    _, second = run_json(capsys, "grover", "--n", "3", "--marked", "101", "--seed", "9")
    first.pop("wall_time_ms")
    second.pop("wall_time_ms")
    assert json.dumps(first) == json.dumps(second)


def test_distribution_sorted_and_truncated(capsys):
    _, report = run_json(capsys, "grover", "--n", "3", "--marked", "110", "--top", "3")
    dist = report["distribution"]
    assert len(dist) == 3
    values = [entry["value"] for entry in dist]
    assert values == sorted(values, reverse=True)
    ties = [e["bitstring"] for e in dist if e["value"] == values[1]]
    assert ties == sorted(ties)


def test_shots_mode(capsys):
    code, report = run_json(capsys, "bv", "--s", "101", "--shots", "1000")
    assert code == 0
    assert report["shots"] == 1000
    assert report["distribution"][0] == {"bitstring": "101", "value": 1000}


def test_every_command_has_a_golden_line_and_help():
    assert set(cli.COMMANDS) == {argv[0] for argv in README_EXAMPLES}
    for name in cli.COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0, name


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bv"])
    assert exc.value.code == 2


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simon_requires_exactly_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["simon", "--s", "110", "--table", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simon"])
    assert exc.value.code == 2


def test_bad_argument_values_exit_2(capsys):
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    for argv in (
        ["bv", "--s", "2A"],
        ["bv", "--s", "101", "--shots", "-3"],
        ["bv", "--s", "101", "--shots", "0"],
        ["bv", "--s", "101", "--shots", str(MAX_SHOTS + 1)],
        ["bv", "--s", "101", "--top", "0"],
        ["bv", "--s", "101", "--top", "-2"],
        ["simon", "--s", "000"],
        ["deutsch", "--f", "011"],
        ["grover", "--n", "2", "--marked", "xx"],
        ["grover", "--n", "0", "--marked", "0"],
        ["grover", "--n", "-1", "--marked", "0"],
        ["count", "--n", "0", "--marked", "0"],
        ["count", "--n", "-1", "--marked", "0"],
        ["count", "--n", "2", "--marked", "01", "--m", "0"],
        ["grover", "--n", "3", "--marked", "9", "--variant", "standard"],
        ["dlog", "--N", "21", "--a", "2", "--b", "4"],
    ):
        assert exit_code(argv) == 2, argv
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def test_count_arguments_are_refused_before_simulation(capsys, monkeypatch):
    monkeypatch.setattr("qsim.cli._dispatch", lambda args: pytest.fail("simulated a refused argv"))
    for flag, value in (("--shots", "-3"), ("--shots", "0"), ("--top", "0"), ("--top", "-2")):
        with pytest.raises(SystemExit) as exc:
            main(["bv", "--s", "101", flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), lines


def test_count_report_formats_only_the_rows_it_prints(capsys, monkeypatch):
    # Counted, not timed: m = 18 has 2^18 outcomes, the report prints 16.
    formatted = []
    original = qstate._bitstring

    def counting_bitstring(index, width):
        formatted.append(index)
        return original(index, width)

    for name, module in list(sys.modules.items()):
        if name.startswith("qsim.") and getattr(module, "_bitstring", None) is original:
            monkeypatch.setattr(module, "_bitstring", counting_bitstring)
    built = []
    entries = qstate.Distribution.entries
    monkeypatch.setattr(
        qstate.Distribution, "entries", property(lambda dist: built.append(dist) or entries.func(dist))
    )
    assert main(["count", "--n", "2", "--marked", "01", "--m", "18", "--json"]) == 0
    top = len(json.loads(capsys.readouterr().out)["distribution"])
    assert top == 16
    assert len(formatted) <= top + 1  # the printed rows and the drawn read-out
    assert built == []


def test_human_readable_histogram(capsys):
    code, out = run_cli(capsys, "grover", "--n", "2", "--marked", "11")
    assert code == 0
    assert "answer" in out and "#" in out


def test_expression_grammar_precedence():
    expr, n = parse_bool_expr("a|b&c^d")
    # ! > & > ^ > |: parses as a | ((b&c) ^ d)
    assert n == 4
    assert expr.evaluate("1000") == 1
    assert expr.evaluate("0110") == 1
    assert expr.evaluate("0111") == 0
    assert expr.evaluate("0001") == 1
    with pytest.raises(ValueError):
        parse_bool_expr("a&&b")
    with pytest.raises(ValueError):
        parse_bool_expr("(a|b")


def run_failing(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err.strip().splitlines()


def test_qubit_cap_is_one_error_line_and_exit_2(capsys, monkeypatch):
    monkeypatch.delenv("QSIM_MAX_QUBITS", raising=False)
    code, out, err = run_failing(capsys, "grover", "--n", "21", "--marked", "0", "--json")
    assert (code, out) == (2, "")
    assert err == ["error: 21 qubits exceeds the cap 20"]


def test_capped_shor_is_refused_before_simulation(capsys, monkeypatch):
    monkeypatch.setenv("QSIM_MAX_QUBITS", "12")
    code, out, err = run_failing(capsys, "shor", "--N", "21", "--a", "2", "--json")
    assert (code, out) == (2, "")
    assert err == ["error: 14 qubits exceeds the cap 12"]


def test_missing_table_is_one_error_line_and_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.tt")
    code, out, err = run_failing(capsys, "dj", "--table", missing, "--json")
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: ") and missing in err[0]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 1e-33, 0.25, 0.25 + 1e-13, 0.25 - 4e-13, 0.1, 0.1 + 6e-13]), max_size=24),
    st.integers(-2, 30),
)
@example([0.25 - 4e-13, 0.25], 1)  # the first rounds up to a tie and wins on its bitstring
def test_top_entries_equal_rounding_every_entry(values, top):
    entries = {format(i, "05b"): v for i, v in enumerate(values)}
    rounded = sorted(((k, round(v, 12) + 0.0) for k, v in entries.items()), key=lambda kv: (-kv[1], kv[0]))
    expected = [{"bitstring": k, "value": v} for k, v in rounded[:top]]
    # Distribution itself checks that exact values sum to 1 over 2^k outcomes; the report does not need that.
    dist = SimpleNamespace(kind="exact", values=np.array(values, dtype=float), width=5)
    assert _top_entries(dist, top, None, 0) == expected
