"""Every exported name exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import curvesys

MODULES = ["curvesys"] + sorted(
    f"curvesys.{m.name}" for m in pkgutil.iter_modules(curvesys.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == [], name
