"""One mechanism each: spec parsing, durable writes, aggregation, upload
delivery and local training have a single home.

``key=value`` splitting lives only in :mod:`repro.utils.spec`; ``os.fsync``
and ``zlib.crc32`` live only in :mod:`repro.utils.serialization`; seeded
streams are built only by :func:`repro.utils.rng.keyed_rng`, the one place
a ``SeedSequence`` is constructed; the round's
plumbing lives only in :mod:`repro.sim.edge`, which every tier calls —
``robust_combine`` is called only by its ``combine``, ``run_local_steps``
only by its ``train_leg`` and ``FaultInjector.receive`` only by its
``deliver``; the run-wide ``faults=``/``timing=``/``churn=`` arguments are
resolved only in ``FederatedAlgorithm.__init__`` (and inside the resolvers'
own modules).
AST-based (like the no-wall-clock lint in ``test_simtime.py``), so prose in
docstrings does not trip it — only real calls, attribute references and
imports count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_SPLITTERS = {"partition", "rpartition", "split", "rsplit"}
_DURABLE = {("os", "fsync"), ("zlib", "crc32")}


def _spec_splits(tree: ast.AST) -> list[tuple[int, str]]:
    """``<expr>.partition("=")`` / ``.split("=", 1)`` calls and the like."""
    return [(node.lineno, f'.{node.func.attr}("=")')
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SPLITTERS
            and node.args and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "="]


def _durable_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """``os.fsync`` / ``zlib.crc32`` references and ``from`` imports."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in _DURABLE):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, f"from {node.module} import {a.name}")
                         for a in node.names
                         if (node.module, a.name) in _DURABLE)
    return found


def _calls_of(*names: str):
    """A finder for calls of the functions ``names`` (bare or as attributes)."""
    def finder(tree: ast.AST) -> list[tuple[int, str]]:
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = (getattr(node.func, "id", None)
                        or getattr(node.func, "attr", None))
                if name in names:
                    found.append((node.lineno, f"{name}(...)"))
        return found
    return finder


_RESOLVERS = ("resolve_injector", "resolve_timing", "resolve_membership",
              "make_cost_model")


def _offenders(finder, homes: tuple[str, ...]) -> list[str]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in homes:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        out.extend(f"{rel}:{line}: {what}" for line, what in finder(tree))
    return out


@pytest.mark.parametrize("finder, homes", [
    (_spec_splits, ("utils/spec.py",)),
    (_durable_calls, ("utils/serialization.py",)),
    (_calls_of("robust_combine"), ("sim/edge.py",)),
    (_calls_of("run_local_steps"), ("sim/edge.py",)),
    (_calls_of("receive"), ("sim/edge.py",)),
    (_calls_of(*_RESOLVERS), ("core/base.py", "faults/injector.py",
                              "simtime/null.py", "simtime/cost.py",
                              "membership/plan.py")),
    (_calls_of("SeedSequence"), ("utils/rng.py",)),
], ids=["spec-grammar", "durable-write", "robust-combine", "local-steps",
        "link-delivery", "run-resolution", "seed-sequence"])
def test_mechanism_has_one_home(finder, homes):
    assert all((SRC / home).is_file() for home in homes)
    offenders = _offenders(finder, homes)
    assert not offenders, (
        f"use the shared mechanism in repro/{' or repro/'.join(homes)}:\n"
        + "\n".join(offenders))


@pytest.mark.parametrize("finder, source", [
    (_spec_splits, 'key, _, raw = part.partition("=")'),
    (_spec_splits, 'key, raw = part.split("=", 1)'),
    (_durable_calls, "os.fsync(fh.fileno())"),
    (_durable_calls, "crc = zlib.crc32(data)"),
    (_durable_calls, "from zlib import crc32"),
    (_calls_of("robust_combine"), "robust_combine(agg, entries)"),
    (_calls_of("run_local_steps"), "dispatch.run_local_steps(backend, work)"),
    (_calls_of("robust_combine"), "policy.robust_combine(agg, entries)"),
    (_calls_of("run_local_steps"), "run_local_steps(backend, engine, w, work)"),
    (_calls_of("receive"), "faults.receive(k, link, sender, w, floats=d)"),
    (_calls_of(*_RESOLVERS), "timing = resolve_timing(cost_model)"),
    (_calls_of(*_RESOLVERS), "inj = faults.resolve_injector(plan, obs=obs)"),
    (_calls_of("SeedSequence"),
     "np.random.SeedSequence(entropy=seed, spawn_key=(key, i))"),
    (_calls_of("SeedSequence"), "SeedSequence(7)"),
])
def test_finders_catch_each_pattern(finder, source):
    assert finder(ast.parse(source))
