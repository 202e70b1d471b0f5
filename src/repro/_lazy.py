"""Lazy package exports (PEP 562).

A package ``__init__`` names what it exports and where each name is
defined, and imports nothing: the defining module loads on the first
access to one of its names.  So ``import repro.server.runtime`` loads
the runtime and what it imports, not every module ``repro`` and
``repro.server`` export, and a serving process never compiles the
experiments, the workload generators or the client.  Every package
declares its table the same way::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".database": ("IncShrinkDatabase", "ViewRegistration"),
        "..storage.chain": ("SNAPSHOT_VERSION",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of package ``package``.

    ``table`` maps a module, relative to the package, to the names the
    package exports from it.  A name is looked up in its module on every
    access rather than copied into the package, so the package always
    shows the module's current binding.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module, package), name)

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | home.keys())

    return __getattr__, __dir__
