"""API-quality gates: __all__ integrity and docstring coverage.

These meta-tests keep the public surface healthy as the library grows: every
name exported through ``__all__`` must resolve, and every public module, class,
function, and method must carry a docstring.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

_PACKAGES = [
    "repro", "repro.core", "repro.baselines", "repro.nn", "repro.data",
    "repro.topology", "repro.sim", "repro.metrics", "repro.theory",
    "repro.experiments", "repro.ops", "repro.utils", "repro.multilayer",
    "repro.compression", "repro.plotting", "repro.obs", "repro.chaos",
    "repro.defense", "repro.exec", "repro.faults", "repro.membership",
    "repro.population", "repro.simtime",
]
PACKAGES = [importlib.import_module(name) for name in _PACKAGES]


def _iter_modules():
    for pkg_name in _PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if not info.name.startswith("_"):
                    yield importlib.import_module(f"{pkg_name}.{info.name}")


ALL_MODULES = list(dict.fromkeys(_iter_modules()))


class TestExports:
    @pytest.mark.parametrize("module", ALL_MODULES,
                             ids=[m.__name__ for m in ALL_MODULES])
    def test_all_names_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists {name!r} but it is missing")

    @pytest.mark.parametrize("package", PACKAGES,
                             ids=[p.__name__ for p in PACKAGES])
    def test_all_names_listed_by_dir(self, package):
        """Lazily resolved exports still show up in ``dir()``."""
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        for name in repro.__all__:
            assert namespace[name] is getattr(repro, name)

    def test_top_level_exports_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES,
                             ids=[m.__name__ for m in ALL_MODULES])
    def test_module_docstring(self, module):
        assert module.__doc__, f"{module.__name__} lacks a module docstring"

    @pytest.mark.parametrize("module", ALL_MODULES,
                             ids=[m.__name__ for m in ALL_MODULES])
    def test_public_objects_documented(self, module):
        undocumented: list[str] = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__module__.startswith("repro") and not obj.__doc__:
                    undocumented.append(f"{module.__name__}.{name}")
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if meth_name.startswith("_") and meth_name != "__init__":
                            continue
                        if inspect.isfunction(meth) and not meth.__doc__ \
                                and meth_name != "__init__":
                            undocumented.append(
                                f"{module.__name__}.{name}.{meth_name}")
        assert not undocumented, f"missing docstrings: {undocumented}"
