"""The public surface: every exported name resolves, and removed API stays gone."""

import importlib
import pkgutil

import pytest

import csviu

MODULES = ["csviu"] + [f"csviu.{m.name}" for m in pkgutil.iter_modules(csviu.__path__)]

#: Names deleted from the package; no module may export or define them.
REMOVED = {"compare_overtaking", "StateFeedbackInput", "unit_matrix"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert REMOVED.isdisjoint(exported)
    assert not any(hasattr(module, n) for n in REMOVED)


def test_package_exports_the_simulation_surface():
    assert {"simulate_paths", "Ensemble", "ConstantInput", "check_decay"} <= set(csviu.__all__)
    assert not hasattr(csviu.Ensemble, "outputs")
    assert not hasattr(csviu.Ensemble, "inputs_at")
