"""Every exported name must resolve, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import lcfoliage

MODULES = ["lcfoliage"] + [
    f"lcfoliage.{info.name}"
    for info in pkgutil.iter_modules(lcfoliage.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(mod, attr)] == []

