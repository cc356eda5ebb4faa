"""Every name a ``spherehead`` module exports in ``__all__`` exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import spherehead

MODULES = sorted(info.name for info in pkgutil.iter_modules(spherehead.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"spherehead.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"spherehead.{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_library_modules_declare_exports():
    declared = {n for n in MODULES if hasattr(importlib.import_module(f"spherehead.{n}"), "__all__")}
    assert {"cli", "data", "heads", "ndcore", "results", "stereo", "train"} <= declared
