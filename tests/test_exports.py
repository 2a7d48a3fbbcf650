"""Every exported name resolves: a removal must also leave the __all__ lists."""

import importlib
import pkgutil

import pytest

import knotsurgery

MODULES = ["knotsurgery"] + [
    f"knotsurgery.{info.name}" for info in pkgutil.iter_modules(knotsurgery.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_module_with_exports_is_checked():
    assert {"knotsurgery.laurent", "knotsurgery.surgery", "knotsurgery.cli"} <= set(MODULES)
