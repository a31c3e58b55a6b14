"""Every name a cscf module exports exists."""

import importlib
import pkgutil

import cscf


def test_every_exported_name_resolves():
    modules = [cscf] + [importlib.import_module(f"cscf.{info.name}")
                        for info in pkgutil.iter_modules(cscf.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 5
    assert missing == []
