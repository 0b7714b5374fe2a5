"""Every exported name resolves, and the package exports nothing stale."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import czwarp

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(czwarp.__path__))


def _module(name: str):
    return importlib.import_module(f"czwarp.{name}")


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_all_resolves(name: str):
    module = _module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_lists_only_submodule_exports():
    assert len(set(czwarp.__all__)) == len(czwarp.__all__)
    for name in czwarp.__all__:
        owners = [m for m in map(_module, SUBMODULES) if name in m.__all__]
        assert owners, f"czwarp.__all__ lists {name!r}, which no submodule exports"
        assert getattr(czwarp, name) is getattr(owners[0], name), name
