"""Every name a ``repro`` module lists in ``__all__`` is an attribute of it.

A deletion that leaves a stale re-export behind fails here, by module
and name, instead of at a caller's ``from repro.x import *``.
"""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    names = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    assert len(names) > 100  # the walk reached the whole package
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        ]
    assert stale == []
