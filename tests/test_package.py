import importlib
import pkgutil

import pytest

import rtmhd

MODULES = sorted(m.name for m in pkgutil.iter_modules(rtmhd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    # a stale name in __all__ breaks ``from rtmhd.<module> import *``
    module = importlib.import_module(f"rtmhd.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
