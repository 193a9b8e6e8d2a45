"""Golden regression: CLI reports and seeded driver results pinned to a fixture.

The fixture ``golden.json`` holds the README's CLI examples as ``--json``
lines (``wall_time_ms`` removed) at two seeds, and for every driver on small
inputs the seeded answer plus the exact distribution. A refactor must keep the
CLI lines byte-identical, the answers equal and the distributions within
1e-12. Regenerate (only for a deliberate behaviour change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).with_name("golden.json")
DIST_ATOL = 1e-12
SEEDS = (0, 7)

README_EXAMPLES = [
    ["deutsch", "--f", "01"],
    ["dj", "--table", "oracle.tt"],
    ["bv", "--s", "1011"],
    ["simon", "--s", "110"],
    ["grover", "--n", "3", "--marked", "110,011"],
    ["sat", "--expr", "a&(c|(!b&c))"],
    ["shor", "--N", "21"],
    ["dlog", "--N", "34", "--a", "27", "--b", "3"],
    ["qpe-order", "--N", "15", "--a", "7"],
    ["count", "--n", "2", "--marked", "00,11", "--m", "2"],
    ["qft-check", "--n", "5"],
]

# balanced 3-bit function used as the README's oracle.tt
DJ_TABLE = "000 0\n001 1\n010 0\n011 1\n100 0\n101 0\n110 1\n111 1\n"

_WALL_TIME = re.compile(r', "wall_time_ms": [^,}]+')


def _cli_lines() -> dict:
    from qsim.cli import main

    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("oracle.tt").write_text(DJ_TABLE)
            for argv in README_EXAMPLES:
                for seed in SEEDS:
                    full = [*argv, "--seed", str(seed), "--json"]
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = main(full)
                    out[" ".join(full)] = {"code": code, "stdout": _WALL_TIME.sub("", buf.getvalue())}
        finally:
            os.chdir(cwd)
    return out


def _driver_cases():
    import numpy as np

    from qsim import algorithms as alg
    from qsim.cli import parse_bool_expr
    from qsim.gates import rk_phase, u_gate
    from qsim.oracles import (
        And,
        Not,
        Or,
        TruthTable,
        Var,
        modmul_oracle,
        synth_bit_oracle,
        synth_bv_oracle,
        synth_multi_oracle,
        xor_permutation_oracle,
    )
    from qsim.qstate import StateVector, basis_state

    balanced = TruthTable.from_text(DJ_TABLE)
    constant = TruthTable.from_function(3, 1, lambda x: "1")
    simon_table = TruthTable.from_function(
        3, 3, lambda x: format(min(int(x, 2), int(x, 2) ^ 0b110), "03b")
    )
    probe = lambda bits: simon_table.rows[int(bits, 2)]  # noqa: E731
    expr, n_vars = parse_bool_expr("a&(c|(!b&c))")
    amps = np.array([0.6, 0.8j, 0, 0], dtype=complex)
    for seed in SEEDS:
        for f in ("00", "01", "10", "11"):
            table = TruthTable(1, 1, (f[0], f[1]))
            for eco in (False, True):
                yield f"deutsch f={f} eco={eco} seed={seed}", lambda: alg.deutsch(table, economical=eco, seed=seed)
        for name, table in (("balanced", balanced), ("constant", constant)):
            yield f"deutsch_jozsa {name} seed={seed}", lambda: alg.deutsch_jozsa(synth_bit_oracle(table), 3, seed=seed)
        for eco in (False, True):
            yield f"bernstein_vazirani eco={eco} seed={seed}", lambda: alg.bernstein_vazirani(
                synth_bv_oracle("1011"), 4, economical=eco, seed=seed
            )
        for variant in ("economical", "standard"):
            yield f"grover {variant} seed={seed}", lambda: alg.grover(["0110", "1011"], 4, variant=variant, seed=seed)
        yield f"grover degenerate seed={seed}", lambda: alg.grover(["00", "01", "10"], 2, seed=seed)
        yield f"sat_solve seed={seed}", lambda: alg.sat_solve(expr, n_vars, seed=seed)
        yield f"simon permutation seed={seed}", lambda: alg.simon(xor_permutation_oracle(simon_table), 3, probe, seed=seed)
        yield f"simon circuit seed={seed}", lambda: alg.simon(synth_multi_oracle(simon_table), 3, probe, seed=seed)
        for modulus in (15, 21):
            yield f"shor_factor N={modulus} seed={seed}", lambda: alg.shor_factor(modulus, seed=seed)
        yield f"shor_factor N=21 monte_carlo seed={seed}", lambda: alg.shor_factor(21, mode="monte_carlo", seed=seed)
        for a, modulus in ((2, 21), (7, 15)):
            yield f"shor_quantum_part a={a} N={modulus} seed={seed}", lambda: alg.shor_quantum_part(a, modulus, seed=seed)
            yield f"qpe_order_finding a={a} N={modulus} seed={seed}", lambda: alg.qpe_order_finding(a, modulus, seed=seed)
        yield f"shor_dlog_pow2 seed={seed}", lambda: alg.shor_dlog_pow2(34, 27, 3, seed=seed)
        yield f"qpe_dlog seed={seed}", lambda: alg.qpe_dlog(34, 27, 3, 4, seed=seed)
        yield f"qpe_dlog mismatched m seed={seed}", lambda: alg.qpe_dlog(17, 3, 5, 3, seed=seed)
        yield f"qpe R5 seed={seed}", lambda: alg.qpe(rk_phase(5), basis_state(1, 1), 3, seed=seed)
        yield f"qpe U seed={seed}", lambda: alg.qpe(u_gate(0.3, 0.7, 1.1), basis_state(1, 0), 4, seed=seed)
        yield f"qpe modmul seed={seed}", lambda: alg.qpe(modmul_oracle(2, 3), StateVector(2, amps), 3, seed=seed)
        yield f"quantum_counting seed={seed}", lambda: alg.quantum_counting(["001", "100", "111"], 3, m=3, seed=seed)
    # the classical tails' other exits: out of rounds, a failed Monte Carlo run,
    # several rounds, a failed doubling search, an unsatisfiable formula, no inverse
    yield "shor_factor N=21 max_rounds=1 seed=1", lambda: alg.shor_factor(21, seed=1, max_rounds=1)
    yield "shor_factor N=21 monte_carlo seed=1", lambda: alg.shor_factor(21, mode="monte_carlo", seed=1)
    yield "shor_factor N=33 seed=1", lambda: alg.shor_factor(33, seed=1)
    yield "shor_factor N=21 base=2 seed=12", lambda: alg.shor_factor(21, seed=12, base=2)
    three = {"0110", "1001", "1111"}
    yield "grover_unknown_m three of 16 seed=0", lambda: alg.grover_unknown_m(three.__contains__, 4, seed=0)
    yield "grover_unknown_m none of 8 seed=0", lambda: alg.grover_unknown_m(lambda bits: False, 3, seed=0)
    yield "sat_solve unsatisfiable seed=0", lambda: alg.sat_solve(And(Var(0), Not(Var(0)), Var(1)), 2)
    yield "sat_solve m_known=3 seed=0", lambda: alg.sat_solve(Or(Var(0), Var(1)), 2, m_known=3)
    yield "shor_dlog_pow2 no inverse seed=0", lambda: alg.shor_dlog_pow2(17, 3, 5, seed=0)
    yield "qpe_dlog no inverse seed=0", lambda: alg.qpe_dlog(17, 3, 5, 4, seed=0)


def _plain(value):
    return json.loads(json.dumps(value))


def _driver_results() -> dict:
    out = {}
    for name, call in _driver_cases():
        res = call()
        dist = res.exact_distribution
        out[name] = {
            "answer": _plain(res.answer),
            "rounds_used": res.rounds_used,
            "success": res.success,
            "dist": None if dist is None else dict(dist.entries),
        }
    return out


def _collect() -> dict:
    return {"cli": _cli_lines(), "drivers": _driver_results()}


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_cli_reports_are_byte_identical(monkeypatch):
    monkeypatch.delenv("QSIM_MAX_QUBITS", raising=False)
    expected = _fixture()["cli"]
    got = _cli_lines()
    assert list(got) == list(expected)
    for key, want in expected.items():
        assert got[key] == want, key


def test_driver_answers_and_laws(monkeypatch):
    monkeypatch.delenv("QSIM_MAX_QUBITS", raising=False)
    expected = _fixture()["drivers"]
    got = _driver_results()
    assert list(got) == list(expected)
    for key, want in expected.items():
        have = got[key]
        assert (have["answer"], have["rounds_used"], have["success"]) == (
            want["answer"],
            want["rounds_used"],
            want["success"],
        ), key
        if want["dist"] is None:
            assert have["dist"] is None, key
            continue
        assert list(have["dist"]) == list(want["dist"]), key
        worst = max(abs(have["dist"][b] - p) for b, p in want["dist"].items())
        assert worst <= DIST_ATOL, (key, worst)


if __name__ == "__main__":
    os.environ.pop("QSIM_MAX_QUBITS", None)
    FIXTURE.write_text(json.dumps(_collect(), indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
