"""Every exported name exists, so a deletion cannot leave a stale export, and
the README's interpreter session is true."""

import doctest
import importlib
import pkgutil
from pathlib import Path

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


def test_readme_session_is_a_true_session():
    """The interpreter session in README.md prints what it shows."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, verbose=False)
    assert result.attempted > 0 and result.failed == 0
