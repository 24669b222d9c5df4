"""One mechanism each: spec parsing and durable writes have a single home.

``key=value`` splitting lives only in :mod:`repro.utils.spec`; ``os.fsync``
and ``zlib.crc32`` live only in :mod:`repro.utils.serialization`.  AST-based
(like the no-wall-clock lint in ``test_simtime.py``), so prose in docstrings
does not trip it — only real calls, attribute references and imports count.
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


def _offenders(finder, home: str) -> list[str]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == home:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        out.extend(f"{rel}:{line}: {what}" for line, what in finder(tree))
    return out


@pytest.mark.parametrize("finder, home", [
    (_spec_splits, "utils/spec.py"),
    (_durable_calls, "utils/serialization.py"),
], ids=["spec-grammar", "durable-write"])
def test_mechanism_has_one_home(finder, home):
    assert (SRC / home).is_file()
    offenders = _offenders(finder, home)
    assert not offenders, (
        f"use the shared mechanism in repro/{home}:\n" + "\n".join(offenders))


@pytest.mark.parametrize("finder, source", [
    (_spec_splits, 'key, _, raw = part.partition("=")'),
    (_spec_splits, 'key, raw = part.split("=", 1)'),
    (_durable_calls, "os.fsync(fh.fileno())"),
    (_durable_calls, "crc = zlib.crc32(data)"),
    (_durable_calls, "from zlib import crc32"),
])
def test_finders_catch_each_pattern(finder, source):
    assert finder(ast.parse(source))
