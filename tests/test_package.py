"""The package's public names: each module's ``__all__`` lists what it defines."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import ostwave


def test_all_lists_every_public_definition():
    modules = [ostwave] + [
        importlib.import_module(f"ostwave.{info.name}") for info in pkgutil.iter_modules(ostwave.__path__)
    ]
    checked = 0
    for module in modules:
        if not hasattr(module, "__all__"):
            continue
        defined = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert sorted(defined - set(module.__all__)) == [], module.__name__
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
        checked += 1
    assert checked >= 7
