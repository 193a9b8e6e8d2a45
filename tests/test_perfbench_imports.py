"""Every qsim name the benchmark binds still exists.

``perfbench/workloads.py`` and ``perfbench/tracer.py`` import qsim by name and
patch its classes, so a refactor that removes one of those names breaks the
benchmark. Here the tracer installs and uninstalls over the live package, and
one pass of each workload's call list is built without running a call. The
small calls of one seeded pass are also run and checked against the
benchmark's exact laws, so a change that would fail its correctness gate fails
here first.
"""

import random
from importlib import import_module
from types import SimpleNamespace

import pytest

from conftest import perfbench_module

reference = perfbench_module("reference")
tracer = perfbench_module("tracer")
workloads = perfbench_module("workloads")


def test_tracer_installs_and_restores_every_binding():
    from qsim.oracles import PermutationOracle

    qpe = import_module("qsim.algorithms.qpe")  # the package re-exports a function of that name
    before = (qpe.readout, PermutationOracle.power)
    t = tracer.Tracer()
    t.install()
    try:
        assert qpe.readout is not before[0]
        assert PermutationOracle.power is not before[1]
    finally:
        t.uninstall()
    assert (qpe.readout, PermutationOracle.power) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass_builds(name, tmp_path):
    build, warm, _ = workloads.WORKLOADS[name]
    ctx = SimpleNamespace(
        write_file=lambda text: str(tmp_path / "input.tt"),
        missing_path=str(tmp_path / "missing.tt"),
        run_cli=None,
    )
    calls = build(random.Random(f"{name}:1:0"), ctx)
    assert calls and all(callable(call.run) and callable(call.check) for call in calls)
    assert callable(warm)


@pytest.mark.parametrize("name", ["amplify-qft", "period-find"])
def test_small_calls_pass_the_benchmark_checks(name):
    build, _, _ = workloads.WORKLOADS[name]
    # amplify-qft's cut takes in Grover at n = 14-15 and both SAT calls, whose H layers are dense blocks
    cut = 16 if name == "amplify-qft" else 13
    calls = [call for call in build(random.Random(f"{name}:1:0"), None) if call.qubits <= cut]
    assert calls
    for call in calls:
        call.check(call.run())
