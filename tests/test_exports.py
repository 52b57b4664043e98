"""Every exported name resolves: a stale __all__ entry only breaks star imports."""

from __future__ import annotations

import importlib
import pkgutil

import secantboost


def test_every_all_entry_resolves():
    modules = [secantboost] + [
        importlib.import_module(f"secantboost.{info.name}")
        for info in pkgutil.iter_modules(secantboost.__path__)
    ]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", ())
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__
        checked += len(names)
    assert checked > len(secantboost.__all__)
