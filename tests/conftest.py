import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def random_state(n, rng):
    from qsim.qstate import StateVector

    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def perfbench_module(name: str):
    """``perfbench/<name>.py``, imported read-only by path, once.

    The module is registered under its own name, so the benchmark's own
    ``import reference`` resolves to the same module object.
    """
    path = PERFBENCH / f"{name}.py"
    module = sys.modules.get(name)
    if module is None or Path(getattr(module, "__file__", "")) != path:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
