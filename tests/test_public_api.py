"""The package's exports resolve and list its submodules, and the pre-kernel API stays gone.

``simulate`` is the one way to apply operators, and ``readout`` (with
``conditional_sampler``) the one read-out, so the one-op wrappers and the
collapsing measurement are no longer part of any module.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qsim
import qsim.algorithms

REMOVED = ["apply", "measure", "MeasurementRecord", "apply_to_array", "apply_permutation"]


@pytest.mark.parametrize("package", [qsim, qsim.algorithms], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        assert getattr(package, name) is not None, name


def test_every_submodule_the_package_imports_is_exported():
    """``from qsim import *`` binds each submodule that ``qsim/__init__.py`` imports."""
    tree = ast.parse(Path(qsim.__file__).read_text())
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    assert imported and sorted(imported - set(qsim.__all__)) == []


@pytest.mark.parametrize("module", ["qsim", "qsim.gates", "qsim.qstate", "qsim.oracles"])
def test_the_pre_kernel_api_is_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(mod, name)] == []
