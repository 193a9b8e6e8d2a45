"""qsim benchmark: one closed-loop client per workload, outputs checked.

    python3 perfbench/run.py --workload amplify-qft --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's ``src`` (nothing is installed). Set-up is timed in fresh
processes; then passes over the workload's call list repeat until
``--seconds`` have elapsed. With ``--trace 0`` the last line is the JSON
result with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are reported instead. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROCESSES = 3  # before the passes; one more follows every pass
CHILD_TIMEOUT_S = 120
FLOOR_NS = (12, 16, 20)

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("call_ms_p50", "ms"), ("call_s_max", "s"), ("peak_rss_mib", "MiB")]


@dataclass
class CliOut:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kib: int


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


class Context:
    """Paths, the child-process runner and what it records for one run."""

    def __init__(self, work: Path):
        self.work = work
        self.missing_path = str(work / "missing.tt")
        self.env = {k: v for k, v in os.environ.items() if k != "QSIM_MAX_QUBITS"}
        self.env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.trace = False
        self.trace_summaries = []
        self.cli_runs = []  # (wall_s, reported_ms or None) of untraced qsim processes
        self.max_child_rss_kib = 0
        self._files = 0

    def write_file(self, text: str) -> str:
        self._files += 1
        path = self.work / f"input{self._files}.tt"
        path.write_text(text, encoding="ascii")
        return str(path)

    def spawn(self, argv, env=None) -> CliOut:
        """Run one child to completion; its own rusage gives its peak RSS."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        full_env = dict(self.env, **(env or {}))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=full_env, cwd=str(ROOT))
            signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOut(proc.returncode, out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                      wall, usage.ru_maxrss)

    def run_cli(self, argv, env=None) -> CliOut:
        if self.trace:
            summary_path = self.work / "trace.json"
            out = self.spawn([sys.executable, str(HERE / "child.py"), "trace", str(summary_path), *argv], env)
            self.trace_summaries.append(json.loads(summary_path.read_text()))
            summary_path.unlink()
            return out
        out = self.spawn([sys.executable, "-m", "qsim.cli", *argv], env)
        self.max_child_rss_kib = max(self.max_child_rss_kib, out.maxrss_kib)
        reported = None
        try:
            reported = json.loads(out.stdout)["wall_time_ms"]
        except (ValueError, KeyError, TypeError):
            pass
        self.cli_runs.append((out.wall_s, reported))
        return out


# ------------------------------------------------------------------ passes


def run_pass(calls, tally) -> list:
    """Time every call; check each output afterwards. Returns the call times."""
    from reference import CheckError
    from workloads import OpFailed

    times = []
    for call in calls:
        tally["attempted"] += 1
        t0 = time.perf_counter()
        try:
            out = call.run()
        except Exception as exc:  # an operation that raises is a failed operation
            times.append(time.perf_counter() - t0)
            tally["failed"] += 1
            tally["notes"].add(f"failed: {call.name}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        try:
            call.check(out)
        except OpFailed as exc:
            tally["failed"] += 1
            tally["notes"].add(f"failed: {exc}")
        except CheckError as exc:
            tally["correct"] = False
            tally["notes"].add(f"WRONG: {call.name}: {exc}")
    return times


def copy_floor(n: int) -> float:
    """Median seconds of ``amps.copy()`` for a 2^n complex state."""
    import numpy as np

    amps = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    times = []
    for _ in range(max(9, min(201, (1 << 22) >> n))):
        t0 = time.perf_counter()
        amps.copy()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_threads():
    """OpenBLAS thread count read from the library NumPy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure_setup(ctx: Context, workload: str, setups: list) -> None:
    """Time one fresh process that imports qsim and does the warm-up call; append (wall, import)."""
    out = ctx.spawn([sys.executable, str(HERE / "child.py"), "setup", workload])
    if out.code != 0:
        raise RuntimeError(f"set-up process failed with exit {out.code}: {out.stderr.strip()[-500:]}")
    setups.append((out.wall_s, json.loads(out.stdout.strip().splitlines()[-1])["import_s"]))


def end_to_end(pass_times, setup_s, peak_rss_mib) -> dict:
    every_call = [t for times in pass_times for t in times]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(times) for times in pass_times),
        "call_ms_p50": 1000.0 * statistics.median(every_call),
        "call_s_max": statistics.median(max(times) for times in pass_times),
        "peak_rss_mib": peak_rss_mib,
    }


def layer_metrics(traced, untraced_walls, traced_walls, ctx, import_s, floors) -> dict:
    """Per-layer metrics from the traced passes (counts from the first, times as medians)."""
    from tracer import x_floor

    first = traced[0]

    def calls(key):
        return first["groups"].get(key, [0])[0]

    def med(key, field):
        return statistics.median(t["groups"].get(key, [0, 0.0, 0.0])[field] for t in traced)

    def samples(*keys):
        return [s for t in traced for k in keys for s in t["samples"].get(k, [])]

    out = {
        "qstate.construct.calls": calls("qstate.construct"),
        "qstate.construct.s": med("qstate.construct", 1),
        "qstate.measure.calls": calls("qstate.measure"),
        "qstate.measure.s": med("qstate.measure", 1),
        "qstate.measure.x_floor": x_floor(samples("qstate.measure"), floors),
        "qstate.marginal.calls": calls("qstate.marginal"),
        "qstate.marginal.s": med("qstate.marginal", 1),
    }
    for kind in ("dense", "diag", "perm"):
        out[f"gates.apply.{kind}.calls"] = calls(f"gates.apply.{kind}")
        out[f"gates.apply.{kind}.s"] = med(f"gates.apply.{kind}", 1)
    out.update({
        "gates.apply.x_floor": x_floor(samples(*(f"gates.apply.{k}" for k in ("dense", "diag", "perm"))), floors),
        "gates.apply.amp_bytes": first["counters"].get("amp_bytes", 0),
        "gates.is_unitary.calls": calls("gates.is_unitary"),
        "gates.is_unitary.s": med("gates.is_unitary", 1),
        "gates.construct.calls": calls("gates.construct"),
        "gates.construct.s": med("gates.construct", 1),
        "circuit.simulate.calls": calls("circuit.simulate"),
        "circuit.simulate.self_s": med("circuit.simulate", 2),
        "circuit.simulate.ops": first["counters"].get("ops", 0),
        "circuit.append.calls": calls("circuit.append"),
        "circuit.append.s": med("circuit.append", 1),
        "oracles.permute.calls": calls("oracles.permute"),
        "oracles.permute.s": med("oracles.permute", 1),
        "oracles.permute.x_floor": x_floor(samples("oracles.permute"), floors),
        "oracles.build.calls": calls("oracles.build"),
        "oracles.build.s": med("oracles.build", 1),
        "numtheory.calls": calls("numtheory"),
        "numtheory.s": med("numtheory", 1),
        "gf2.calls": calls("gf2"),
        "gf2.s": med("gf2", 1),
        "algorithms.readout.calls": calls("algorithms.readout"),
        "algorithms.readout.s": med("algorithms.readout", 1),
        "algorithms.readout.keys": first["counters"].get("keys", 0),
        "algorithms.rounds": first["counters"].get("rounds", 0),
        "algorithms.driver.self_s": med("algorithms.driver", 2),
    })
    runs = [(wall, rep) for wall, rep in ctx.cli_runs if rep is not None]
    out["cli.process_ms"] = 1000.0 * statistics.median(w for w, _ in runs) if runs else 0.0
    out["cli.reported_ms"] = statistics.median(r for _, r in runs) if runs else 0.0
    out["cli.startup_ms"] = statistics.median(1000.0 * w - r for w, r in runs) if runs else 0.0
    out["cli.import_s"] = import_s
    for n in FLOOR_NS:
        out[f"floor.copy_ms.n{n}"] = 1000.0 * floors[n]
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out


LAYER_UNITS = {"calls": "count", "ops": "count", "keys": "count", "rounds": "count", "amp_bytes": "B",
               "x_floor": "x", "s": "s", "self_s": "s", "overhead_s": "s", "import_s": "s"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms") or name.startswith("floor.copy_ms"):
        return "ms"
    return LAYER_UNITS[last]


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qsim" / "__init__.py").is_file():
        print(f"error: qsim sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QSIM_MAX_QUBITS", None)  # the default 20-qubit cap holds for every call
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import qsim

    if Path(qsim.__file__).resolve().parent != SRC / "qsim":
        print(f"error: imported qsim from {qsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    build, warm, uses_processes = WORKLOADS[args.workload]

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(work)
        setups = []
        for _ in range(SETUP_PROCESSES):
            measure_setup(ctx, args.workload, setups)
        warm()

        def inputs(index):
            return build(random.Random(f"{args.workload}:{args.seed}:{index}"), ctx)

        tally = {"attempted": 0, "failed": 0, "correct": True, "notes": set()}
        # one untimed pass lets the allocator and caches reach their steady state;
        # the first large call of a process is otherwise 2-3x slower
        run_pass(inputs(0), tally)
        measure_setup(ctx, args.workload, setups)
        pass_times, traced, traced_walls = [], [], []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            # trace runs repeat pass 0, so every traced pass has the same counts
            pass_times.append(run_pass(inputs(0 if args.trace else index), tally))
            index += 1
            if args.trace:
                from tracer import Tracer, merge

                tracer = Tracer()
                ctx.trace, ctx.trace_summaries = True, []
                tracer.install()
                try:
                    times = run_pass(inputs(0), tally)
                finally:
                    tracer.uninstall()
                    ctx.trace = False
                traced_walls.append(sum(times))
                traced.append(merge([tracer.summary(), *ctx.trace_summaries]))
            # spread over the run, the set-up samples see the same machine as the passes
            measure_setup(ctx, args.workload, setups)
            if time.perf_counter() >= deadline:
                break
        setup_s = statistics.median(wall for wall, _ in setups)
        import_s = statistics.median(imp for _, imp in setups)
        if uses_processes:
            peak_rss_mib = ctx.max_child_rss_kib / 1024.0
        else:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        used = {c.qubits for c in inputs(0) if c.qubits > 0} | set(FLOOR_NS)
        if traced:
            used |= {n for t in traced for k in t["samples"] for n, _ in t["samples"][k]}
        floors = {n: copy_floor(n) for n in sorted(used)}
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "passes": len(pass_times), "calls_per_pass": len(pass_times[0]),
            "pass_wall_s": [sum(times) for times in pass_times],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas_threads": blas_threads(), "python": platform.python_version(),
            "git_sha": git_sha(),
            "floor_copy_ms_in_cache": {str(n): 1000.0 * t for n, t in floors.items()},
            "call_median_s": {f"{i:02d} {c.name}": statistics.median(times[i] for times in pass_times)
                              for i, c in enumerate(inputs(0))},
        }
        if traced:
            per_n = {}
            for t in traced:
                for k, v in t["samples"].items():
                    for n, dt in v:
                        if n >= 12:
                            per_n.setdefault(f"{k}@n{n}", []).append(1000.0 * dt)
            record["kernel_median_ms"] = {k: statistics.median(v) for k, v in sorted(per_n.items())}
        print("machine " + json.dumps(record))
        for note in sorted(tally["notes"]):
            print(note)

        if args.trace:
            counts = [({k: v[0] for k, v in t["groups"].items()}, t["counters"].get("rounds")) for t in traced]
            if any(c != counts[0] for c in counts):
                print("warning: call counts differ between traced passes")
            values = layer_metrics(traced, [sum(t) for t in pass_times], traced_walls, ctx, import_s, floors)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        else:
            values = end_to_end(pass_times, setup_s, peak_rss_mib)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"attempted = {tally['attempted']}, failed = {tally['failed']}, correct = {tally['correct']}")
        print(json.dumps({"correct": tally["correct"], "attempted": tally["attempted"],
                          "failed": tally["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
