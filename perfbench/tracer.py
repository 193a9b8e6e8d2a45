"""Opt-in span tracer that wraps qsim's public functions from outside.

The drivers bind their callees with ``from ..x import y``, so wrapping a
function only where it is defined would miss most calls. ``Tracer.install``
therefore replaces every module-level name in ``qsim.*`` that is bound to a
wrapped function, and patches methods on their classes. ``uninstall``
restores every original binding, so untraced passes run the bare code.

Each span knows its inclusive time and the time its direct child spans
cover. A group's ``s`` adds the inclusive time of its outermost spans only,
so a group never counts nested time of its own twice; ``self_s`` adds
inclusive minus child time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# module -> default group for its public functions, and per-name overrides
MODULE_GROUPS = {
    "qsim.qstate": ("qstate.other", {"measure": "qstate.measure", "marginal_probs": "qstate.marginal"}),
    "qsim.gates": ("gates.other", {"is_unitary": "gates.is_unitary"}),  # apply_to_array: by matrix kind
    "qsim.circuit": ("circuit.other", {"simulate": "circuit.simulate"}),
    "qsim.oracles": ("oracles.build", {"apply_permutation": "oracles.permute"}),
    "qsim.numtheory": ("numtheory", {}),
    "qsim.gf2": ("gf2", {}),
    "qsim.algorithms.common": (
        "algorithms.driver",
        {"register_distribution": "algorithms.readout", "sample_register": "algorithms.readout"},
    ),
    "qsim.algorithms.deutsch": ("algorithms.driver", {}),
    "qsim.algorithms.grover": ("algorithms.driver", {}),
    "qsim.algorithms.qft": ("algorithms.driver", {}),
    "qsim.algorithms.qpe": ("algorithms.driver", {}),
    "qsim.algorithms.shor": ("algorithms.driver", {}),
    "qsim.algorithms.simon": ("algorithms.driver", {}),
}

# (module, class, method, group): validation in constructors and IR appends
METHODS = [
    ("qsim.qstate", "StateVector", "__init__", "qstate.construct"),
    ("qsim.gates", "Gate", "__post_init__", "gates.construct"),
    ("qsim.gates", "GateApplication", "__post_init__", "gates.construct"),
    ("qsim.circuit", "Circuit", "append_op", "circuit.append"),
    ("qsim.oracles", "PermutationOracle", "__post_init__", "oracles.build"),
    ("qsim.oracles", "PermutationOracle", "power", "oracles.build"),
    ("qsim.gf2", "BitMatrix", "from_strings", "gf2"),
]


def classify(matrix: np.ndarray) -> str:
    """diag, perm (0/1 entries, one 1 per row and column) or dense."""
    if np.count_nonzero(matrix - np.diag(np.diag(matrix))) == 0:
        return "diag"
    ones = matrix == 1
    if np.all(ones | (matrix == 0)) and np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1):
        return "perm"
    return "dense"


class Group:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.groups = defaultdict(Group)
        self.samples = defaultdict(list)  # group -> [(log2 amps, seconds)]
        self.counters = defaultdict(int)  # ops, amp_bytes, keys, rounds
        self._stack = []
        self._kinds = {}  # id(gate) -> (gate, kind); the gate is kept so ids stay unique
        self._restore = []

    # ----------------------------------------------------------- spans

    def _span(self, fn, group, on_exit=None):
        stack, groups, perf = self._stack, self.groups, time.perf_counter

        def wrapper(*args, **kwargs):
            name = group(args) if callable(group) else group
            g = groups[name]
            frame = [0.0]
            stack.append(frame)
            g.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                g.depth -= 1
                if stack:
                    stack[-1][0] += dt
                g.calls += 1
                g.self_s += dt - frame[0]
                if g.depth == 0:
                    g.s += dt
            if on_exit is not None:
                on_exit(name, g, args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _apply_group(self, args):
        app = args[2]
        entry = self._kinds.get(id(app.gate))
        if entry is None:
            entry = self._kinds[id(app.gate)] = (app.gate, classify(app.gate.matrix))
        return "gates.apply." + entry[1]

    def _on_apply(self, name, g, args, result, dt):
        amps, app = args[0], args[2]
        self.samples[name].append((amps.size.bit_length() - 1, dt))
        # read + write of the block the controls select; computed, not measured
        self.counters["amp_bytes"] += 2 * (amps.nbytes >> len(app.controls))

    def _on_state_op(self, name, g, args, result, dt):
        self.samples[name].append((args[0].num_qubits, dt))

    def _on_simulate(self, name, g, args, result, dt):
        self.counters["ops"] += len(args[0].ops)

    def _on_readout(self, name, g, args, result, dt):
        self.counters["keys"] += len(result.entries) if hasattr(result, "entries") else 1

    def _on_driver(self, name, g, args, result, dt):
        if g.depth == 0 and hasattr(result, "rounds_used"):
            self.counters["rounds"] += result.rounds_used

    # ------------------------------------------------------- patching

    def install(self) -> None:
        hooks = {
            "qstate.measure": self._on_state_op,
            "oracles.permute": self._on_state_op,
            "circuit.simulate": self._on_simulate,
            "algorithms.readout": self._on_readout,
            "algorithms.driver": self._on_driver,
        }
        wrapped = {}  # id(original) -> (original, wrapper)
        for modname, (default, overrides) in MODULE_GROUPS.items():
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                group = overrides.get(name, default)
                if name == "apply_to_array":
                    wrapped[id(obj)] = (obj, self._span(obj, self._apply_group, self._on_apply))
                else:
                    wrapped[id(obj)] = (obj, self._span(obj, group, hooks.get(group)))
        # rebind every alias, including the ``from ..x import y`` copies
        for mod in [m for n, m in list(sys.modules.items()) if n == "qsim" or n.startswith("qsim.")]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for modname, clsname, meth, group in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self._span(raw.__func__, group))
            else:
                new = self._span(raw, group)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._kinds.clear()

    # ------------------------------------------------------- reporting

    def summary(self) -> dict:
        """Plain-data view, mergeable across processes."""
        return {
            "groups": {k: [g.calls, g.s, g.self_s] for k, g in self.groups.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counters": dict(self.counters),
        }


def merge(summaries) -> dict:
    out = {"groups": defaultdict(lambda: [0, 0.0, 0.0]), "samples": defaultdict(list), "counters": defaultdict(int)}
    for summ in summaries:
        for k, (calls, s, self_s) in summ["groups"].items():
            acc = out["groups"][k]
            acc[0] += calls
            acc[1] += s
            acc[2] += self_s
        for k, v in summ["samples"].items():
            out["samples"][k].extend(tuple(x) for x in v)
        for k, v in summ["counters"].items():
            out["counters"][k] += v
    return out


def x_floor(samples, floors: dict) -> float:
    """Median over calls of (call time / amps.copy() time at the same n); 0 when none ran."""
    ratios = [dt / floors[n] for n, dt in samples if n in floors]
    return statistics.median(ratios) if ratios else 0.0
