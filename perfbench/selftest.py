"""Tests of the benchmark's own checks: each must reject a corrupted output.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
The last tests run small cases through qsim and confirm that today's
outputs pass the same checks the workloads apply.
"""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from reference import CheckError  # noqa: E402
from run import CliOut  # noqa: E402

PERTURB = 1e-6


def perturbed(law: np.ndarray) -> np.ndarray:
    bad = law.copy()
    bad[int(np.argmax(bad))] -= PERTURB
    bad[int(np.argmin(bad))] += PERTURB
    return bad


@pytest.mark.parametrize("law", [
    ref.grover_law(5, [3, 17], ref.grover_iterations(32, 2)),
    ref.simon_law(4, 0b1010),
    ref.counting_law(6, 5, 4),
    ref.dlog_law(8, 3, 1),
    ref.dj_law([0, 1, 1, 0]),
    ref.order_finding_law(2, 15, 256, 4)[0],
])
def test_law_perturbed_by_1e6_is_rejected(law):
    ref.check_law(law, law, "exact")
    with pytest.raises(CheckError):
        ref.check_law(perturbed(law), law, "perturbed")


def test_order_finding_check_rejects_perturbed_law_and_wrong_count():
    law, c = ref.order_finding_law(7, 15, 256, 4)
    ref.check_order_finding(law, 7, 15, 256, z=4, c=c)
    ref.check_order_finding(law, 7, 15, 256)  # z unknown: some residue matches
    with pytest.raises(CheckError):
        ref.check_order_finding(perturbed(law), 7, 15, 256, z=4, c=c)
    with pytest.raises(CheckError):
        ref.check_order_finding(law, 7, 15, 256, z=4, c=c + 1)


def test_wrong_factor_is_rejected():
    ref.check_factor(7, 21, "ok")
    for bad in (1, 21, 5, 2.0 + 1, None):
        with pytest.raises(CheckError):
            ref.check_factor(bad, 21, "bad")


def test_unmarked_grover_answer_is_rejected():
    # n=3, M=2, one iteration: the marked strings carry all the probability
    law = ref.grover_law(3, [3, 6], 1)
    ref.check_sample(law, 6, "marked")
    with pytest.raises(CheckError):
        ref.check_sample(law, 5, "unmarked")


def test_dlog_check_rejects_wrong_logarithm_and_unjustified_failure():
    powers = ref.orbit(27, 34)
    r, s = len(powers), powers.index(3)
    law = ref.dlog_law(r, s, 1)
    ref.check_dlog(law, 27, 3, 34, s, 1, "ok")
    ref.check_dlog(law, 27, 3, 34, None, 2, "non-coprime read-out")
    with pytest.raises(CheckError):
        ref.check_dlog(law, 27, 3, 34, (s + 1) % r, 1, "wrong s")
    with pytest.raises(CheckError):
        ref.check_dlog(law, 27, 3, 34, None, 3, "gave up on a coprime read-out")
    with pytest.raises(CheckError):
        ref.check_dlog(perturbed(law), 27, 3, 34, s, 1, "perturbed")


def _report(entries, **changes):
    report = {"algorithm": "grover", "parameters": {}, "answer": "110",
              "distribution": [{"bitstring": b, "value": v} for b, v in entries],
              "seed": 0, "shots": None, "wall_time_ms": 1.5}
    report.update(changes)
    return report


def test_unsorted_cli_distribution_is_rejected():
    ref.check_report_shape(_report([("011", 0.5), ("110", 0.5), ("000", 0.0)]), "grover")
    with pytest.raises(CheckError):
        ref.check_report_shape(_report([("110", 0.5), ("011", 0.5)]), "grover")
    with pytest.raises(CheckError):
        ref.check_report_shape(_report([("000", 0.0), ("011", 0.5)]), "grover")


def test_cli_report_schema_is_enforced():
    report = _report([("011", 0.5)])
    del report["shots"]
    with pytest.raises(CheckError):
        ref.check_report_shape(report, "grover")


def test_top_entries_must_match_the_law():
    law = ref.grover_law(3, [3, 6], 1)
    good = [{"bitstring": "011", "value": 0.5}, {"bitstring": "110", "value": 0.5}]
    ref.check_top_entries(good, law, 3, "ok")
    with pytest.raises(CheckError):
        ref.check_top_entries([{"bitstring": "011", "value": 0.5 + PERTURB}], law, 3, "perturbed")
    with pytest.raises(CheckError):  # a top entry left out
        ref.check_top_entries([{"bitstring": "000", "value": 0.0}], law, 3, "missing")


class FakeContext:
    missing_path = "missing.tt"

    def __init__(self, out):
        self.out = out

    def run_cli(self, argv, env=None):
        return self.out


@pytest.mark.parametrize("out,fails", [
    (CliOut(0, "{}", "", 0.1, 1), True),
    (CliOut(1, "", "Traceback (most recent call last):\nValueError: x\n", 0.1, 1), True),
    (CliOut(2, "", "error: one\nerror: two\n", 0.1, 1), True),
    (CliOut(2, "", "error: 14 qubits exceeds the cap 12\n", 0.1, 1), False),
])
def test_fault_command_that_exits_0_is_a_failed_operation(out, fails):
    for call in workloads.fault_calls(FakeContext(out)):
        if fails:
            with pytest.raises(workloads.OpFailed):
                call.check(call.run())
        else:
            call.check(call.run())


def test_formula_template_keeps_eight_models():
    rng = random.Random(5)
    for _ in range(4):
        text, _ = workloads.make_formula(rng)
        assert len(ref.formula_models(text, workloads.SAT_VARS)) == 8


# ------------------------------------------ today's outputs pass the checks


def _check_all(calls):
    for call in calls:
        call.check(call.run())


def test_small_library_cases_pass_their_checks():
    rng = random.Random(3)
    _check_all([
        workloads.grover_call(rng, 5, 2, "economical"),
        workloads.grover_call(rng, 4, 1, "standard"),
        workloads.qft_call(rng, 6),
        workloads.shor_factor_call(rng, 15),
        workloads.order_round_call(rng, 21, workloads.alg.shor_quantum_part, "shor_quantum_part"),
        workloads.order_round_call(rng, 15, workloads.alg.qpe_order_finding, "qpe_order_finding"),
        workloads.simon_call(rng, 4),
        workloads.counting_call(rng, 5, 3),
    ])


def test_formula_is_solved_and_checked():
    rng = random.Random(9)
    text, expr = workloads.make_formula(rng)
    models = ref.formula_models(text, workloads.SAT_VARS)
    _check_all([workloads.sat_call(rng, text, expr, len(models))])
    assert all(ref.formula_eval(text, format(x, "010b")) for x in models)


def test_dlog_cases_pass_their_checks():
    _check_all(workloads.dlog_calls(random.Random(4)))


def test_readme_cli_report_passes_its_check():
    from qsim import cli
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["count", "--n", "2", "--marked", "00,11", "--m", "2", "--json"])
    report = json.loads(buf.getvalue())
    dist = ref.check_report_shape(report, "count")
    ref.check_top_entries(dist, ref.counting_law(2, 2, 2), 2, "count")
    assert code == 0
    assert any(math.isclose(report["answer"], 4 * math.sin(math.pi * j / 4) ** 2) for j in (1, 3))
