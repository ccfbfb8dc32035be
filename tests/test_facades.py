"""The package facades re-export every public name, lazily or not.

``repro``, ``repro.core``, ``repro.sim`` and ``repro.apps`` resolve most
names on first access (PEP 562), so a typo in a lazy table would drop an
export silently; these checks hold each ``__all__`` to its submodules.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

FACADES = ("repro", "repro.core", "repro.sim", "repro.apps",
           "repro.analysis")


@pytest.mark.parametrize("name", FACADES)
def test_every_export_resolves_to_its_defining_object(name):
    package = importlib.import_module(name)
    listed = dir(package)
    lazy = getattr(package, "_LAZY", {})
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed, export
        if export in lazy:
            home = importlib.import_module(lazy[export], name)
        else:  # eager: the module that defines it, when it says
            home = sys.modules.get(getattr(value, "__module__", ""), package)
        assert getattr(home, export) is value, export


@pytest.mark.parametrize("name", FACADES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    assert not hasattr(package, "no_such_export")


def test_star_import_binds_every_export():
    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import repro\n"
            "from repro import *\n"
            "missing = [n for n in repro.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "assert Engine is repro.sim.engine.Engine\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_registry_resolves_apps_on_first_use():
    from repro.apps import registry
    from repro.apps.lu import LUApp

    assert registry.app_class("lu") is LUApp
    with pytest.raises(KeyError, match="unknown application"):
        registry.app_class("nosuchapp")
