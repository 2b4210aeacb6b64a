"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import qvmart

MODULES = sorted(m.name for m in pkgutil.iter_modules(qvmart.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"qvmart.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
