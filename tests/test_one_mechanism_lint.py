"""One mechanism each: spec parsing, durable writes, aggregation, upload
delivery and local training have a single home.

``key=value`` splitting lives only in :mod:`repro.utils.spec`; ``os.fsync``
and ``zlib.crc32`` live only in :mod:`repro.utils.serialization`; seeded
streams are built only by :func:`repro.utils.rng.keyed_rng`, the one place
a ``SeedSequence`` is constructed; the round's
plumbing lives only in :mod:`repro.sim.edge`, which every tier calls —
``robust_combine`` is called only by its ``combine``, ``run_local_steps``
only by its ``train_leg``, ``FaultInjector.receive`` only by its
``deliver``, and a down-link broadcast to more than one recipient is
charged only by its ``fan_out`` (membership's point-to-point syncs charge
``count=1``); the run-wide ``faults=``/``timing=``/``churn=`` arguments are
resolved only in ``FederatedAlgorithm.__init__`` (and inside the resolvers'
own modules), so below it no tier takes a sink that may be ``None``: every
leg reads the tracker, injector, clock, tracer and backend from its
``RoundContext``.
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


def _fan_out_charges(tree: ast.AST) -> list[tuple[int, str]]:
    """``record(<link>, "down", …)`` calls whose ``count`` is not the
    literal ``1``, outside the body of ``fan_out``."""
    exempt = {id(node)
              for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "fan_out"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if (id(node) in exempt or not isinstance(node, ast.Call)
                or getattr(node.func, "attr", getattr(node.func, "id", None))
                != "record"):
            continue
        direction = (node.args[1] if len(node.args) > 1 else
                     next((kw.value for kw in node.keywords
                           if kw.arg == "direction"), None))
        if not (isinstance(direction, ast.Constant)
                and direction.value == "down"):
            continue
        count = next((kw.value for kw in node.keywords if kw.arg == "count"),
                     None)
        if not (isinstance(count, ast.Constant) and count.value == 1):
            found.append((node.lineno, 'record(link, "down", count=...)'))
    return found


_RESOLVERS = ("resolve_injector", "resolve_timing", "resolve_membership",
              "make_cost_model")

_SINKS = {"tracker", "faults", "timing", "obs", "backend"}
#: The round's tiers, where sinks come whole from the ``RoundContext``.
_SINK_SCOPE = ("sim/", "core/", "baselines/", "multilayer/",
               "membership/manager.py")


def _sink_name(node: ast.AST) -> str | None:
    """``tracker`` for ``tracker`` or ``ctx.tracker``; ``None`` for others."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in _SINKS else None


def _sink_guards(tree: ast.AST) -> list[tuple[int, str]]:
    """Sink parameters defaulting to ``None`` and sinks tested against
    ``None``, outside ``FederatedAlgorithm.__init__`` (where the resolvers
    turn the public ``None`` defaults into null sinks)."""
    exempt = {id(node)
              for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              and cls.name == "FederatedAlgorithm"
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = (list(zip(positional[len(positional)
                                         - len(args.defaults):],
                              args.defaults))
                     + list(zip(args.kwonlyargs, args.kw_defaults)))
            found.extend((arg.lineno, f"{arg.arg}=None")
                         for arg, default in pairs
                         if arg.arg in _SINKS
                         and isinstance(default, ast.Constant)
                         and default.value is None)
        elif (isinstance(node, ast.Compare) and _sink_name(node.left)
              and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.Is, ast.IsNot))
              and isinstance(node.comparators[0], ast.Constant)
              and node.comparators[0].value is None):
            op = "is not" if isinstance(node.ops[0], ast.IsNot) else "is"
            found.append((node.lineno, f"{_sink_name(node.left)} {op} None"))
    return found


def _offenders(finder, homes: tuple[str, ...], scope) -> list[str]:
    """Finds outside ``homes`` in the files under the ``scope`` prefixes."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in homes or not rel.startswith(scope):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        out.extend(f"{rel}:{line}: {what}" for line, what in finder(tree))
    return out


@pytest.mark.parametrize("finder, homes, scope", [
    (_spec_splits, ("utils/spec.py",), ""),
    (_durable_calls, ("utils/serialization.py",), ""),
    (_calls_of("robust_combine"), ("sim/edge.py",), ""),
    (_calls_of("run_local_steps"), ("sim/edge.py",), ""),
    (_calls_of("receive"), ("sim/edge.py",), ""),
    (_calls_of(*_RESOLVERS), ("core/base.py", "faults/injector.py",
                              "simtime/null.py", "simtime/cost.py",
                              "membership/plan.py"), ""),
    (_calls_of("SeedSequence"), ("utils/rng.py",), ""),
    (_sink_guards, (), _SINK_SCOPE),
    (_fan_out_charges, (), ""),
], ids=["spec-grammar", "durable-write", "robust-combine", "local-steps",
        "link-delivery", "run-resolution", "seed-sequence", "sink-guards",
        "fan-out"])
def test_mechanism_has_one_home(finder, homes, scope):
    assert all((SRC / home).is_file() for home in homes)
    offenders = _offenders(finder, homes, scope)
    where = (" or ".join(f"repro/{home}" for home in homes)
             or "the leg's RoundContext")
    assert not offenders, (
        f"use the shared mechanism in {where}:\n" + "\n".join(offenders))


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
    (_sink_guards, "def leg(w, tracker=None): pass"),
    (_sink_guards, "def leg(w, *, faults=None, timing=None): pass"),
    (_sink_guards, "def leg(w, obs: Tracer | None = None): pass"),
    (_sink_guards, "def leg(w, backend=None, /): pass"),
    (_sink_guards, "if timing is not None: timing.transfer(link, cid, d)"),
    (_sink_guards, "if faults is None: return payloads"),
    (_sink_guards, "serial = ctx.backend is None"),
    (_fan_out_charges,
     'tracker.record("edge_cloud", "down", count=len(sampled), floats=d)'),
    (_fan_out_charges, 'ctx.tracker.record(link, "down", count=n0, floats=d)'),
    (_fan_out_charges, 'record(link, direction="down", count=2, floats=d)'),
    (_fan_out_charges, 'tracker.record(link, "down", floats=d)'),
    (_fan_out_charges, "def leg(ctx):\n"
                       "    ctx.tracker.record(link, 'down', count=k)\n"),
])
def test_finders_catch_each_pattern(finder, source):
    assert finder(ast.parse(source))


def test_fan_out_finder_exempts_only_fan_out_and_single_syncs():
    source = ("def fan_out(ctx, link, live, floats):\n"
              "    ctx.tracker.record(link, 'down', count=len(live))\n"
              "def sync(ctx, dim):\n"
              "    ctx.tracker.record('edge_cloud', 'down', count=1)\n"
              "    ctx.tracker.record('edge_cloud', 'up', count=3)\n"
              "    ctx.tracker.record('edge_cloud', 'down', count=2)\n")
    assert [line for line, _ in _fan_out_charges(ast.parse(source))] == [6]


def test_sink_guard_finder_exempts_only_the_resolving_constructor():
    source = ("class FederatedAlgorithm:\n"
              "    def __init__(self, obs=None):\n"
              "        self.obs = obs if obs is not None else NULL\n"
              "    def _round(self, obs=None): pass\n")
    assert [line for line, _ in _sink_guards(ast.parse(source))] == [4]
