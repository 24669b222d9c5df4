"""Lazy package re-exports (PEP 562).

A package ``__init__`` names what it re-exports and from which module; each
name is imported on its first access and then cached in the package's
namespace, so ``import repro`` — or any ``from repro.x.y import z`` — loads
only the modules that are actually used::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.base": ("FederatedAlgorithm", "RunResult"),
        "repro.core.hierminimax": ("HierMinimax",),
    })

This module imports nothing from :mod:`repro`, so any package can use it.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]

#: package name -> {exported name -> module it is imported from}
_SOURCES: dict[str, dict[str, str]] = {}


class _LazyPackage(ModuleType):
    """A package module whose re-exports win over same-named submodules.

    Importing ``pkg.name`` binds the submodule as attribute ``name`` of
    ``pkg``.  When ``name`` is also a re-export — ``repro.chaos`` is both a
    subpackage and the re-exported :func:`repro.chaos.chaos` context manager
    — that binding is dropped, so the re-export resolves no matter which
    import ran first, as it did when ``__init__`` imported it eagerly.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if not (isinstance(value, ModuleType)
                and name in _SOURCES[self.__name__]):
            super().__setattr__(name, value)


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]],
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each source module to the names the package re-exports
    from it.  Call this from the package's ``__init__`` and bind the result
    to ``__getattr__, __dir__``.
    """
    sources = {name: source for source, names in exports.items()
               for name in names}
    _SOURCES[package] = sources
    namespace = sys.modules[package]
    namespace.__class__ = _LazyPackage

    def __getattr__(name: str) -> object:
        source = sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        namespace.__dict__[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.__dict__.keys() | sources.keys())

    return __getattr__, __dir__
