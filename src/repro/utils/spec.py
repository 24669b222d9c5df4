"""One grammar for every ``key=value`` spec string on the CLI surface.

Fault, attack, churn, chaos, population, cost-model and defense specs share it:
comma-separated entries, whitespace stripped, empty entries skipped, an
optional leading bare token (the attack name, the aggregator name, ``hetero``)
and ``key=value`` everywhere else.  A key given twice is an error, never a
silent override.

Values convert through one schema, ``{key: converter}``.  Dataclass plans
derive theirs from their field annotations (:func:`dataclass_schema`): ``int``,
``float``, ``str``, ``bool`` (:data:`BOOL_VALUES`), ``tuple[int, ...]`` as a
``|``-list (``clients=0|3|7``), and ``X | None`` (``none`` gives ``None``).  A
failed conversion names the grammar, the key and the text::

    chaos spec key 'torn_write': cannot parse 'a' as int
"""

from __future__ import annotations

import dataclasses
import typing

__all__ = ["BOOL_VALUES", "tokenize", "convert", "parse_spec",
           "dataclass_schema", "to_int", "to_float", "to_bool", "to_int_list"]

#: The one bool spelling set of every spec grammar.
BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _as(kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"cannot parse {raw!r} as {kind.__name__}") from None


def to_int(raw: str) -> int:
    """``int(raw)`` with the grammar's conversion message on failure."""
    return _as(int, raw)


def to_float(raw: str) -> float:
    """``float(raw)`` with the grammar's conversion message on failure."""
    return _as(float, raw)


def to_bool(raw: str) -> bool:
    """One of :data:`BOOL_VALUES` (case-insensitive)."""
    try:
        return BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(f"cannot parse {raw!r} as bool; one of "
                         f"{sorted(BOOL_VALUES)}") from None


def to_int_list(raw: str) -> tuple[int, ...]:
    """A ``|``-separated int list; empty items are skipped."""
    return tuple(to_int(tok) for tok in raw.split("|") if tok.strip())


def _converter(tp):
    args = typing.get_args(tp)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        parse = _converter(inner)
        return lambda raw: None if raw.lower() == "none" else parse(raw)
    if typing.get_origin(tp) is tuple and args == (int, ...):
        return to_int_list
    return {int: to_int, float: to_float, str: str, bool: to_bool}[tp]


def dataclass_schema(cls, *, exclude: tuple[str, ...] = ()) -> dict:
    """``{field name: converter}`` from a dataclass's field annotations."""
    hints = typing.get_type_hints(cls)
    return {f.name: _converter(hints[f.name]) for f in dataclasses.fields(cls)
            if f.name not in exclude}


def tokenize(spec, grammar: str, *, leading: bool = False,
             ) -> tuple[str | None, dict[str, str]]:
    """``(leading bare token or None, {key: raw value})`` of ``spec``.

    Only the first entry may be bare, and only with ``leading``.
    """
    head: str | None = None
    items: dict[str, str] = {}
    for i, part in enumerate(str(spec).split(",")):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            if leading and i == 0:
                head = part
                continue
            raise ValueError(f"{grammar} spec entry {part!r} is not key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in items:
            raise ValueError(f"{grammar} spec key {key!r} given twice")
        items[key] = raw.strip()
    return head, items


def convert(grammar: str, items: dict[str, str], schema: dict) -> dict:
    """Convert raw ``items`` through ``schema``; unknown keys are rejected."""
    out = {}
    for key, raw in items.items():
        if key not in schema:
            raise ValueError(f"unknown {grammar} spec key {key!r}; "
                             f"options: {sorted(schema)}")
        try:
            out[key] = schema[key](raw)
        except ValueError as exc:
            raise ValueError(f"{grammar} spec key {key!r}: {exc}") from None
    return out


def parse_spec(spec, grammar: str, schema: dict, *,
               leading: str | None = None) -> dict:
    """Tokenize and convert ``spec``; a bare first token sets key ``leading``
    (giving it both ways is a repeated key)."""
    head, items = tokenize(spec, grammar, leading=leading is not None)
    if head is not None:
        if leading in items:
            raise ValueError(f"{grammar} spec key {leading!r} given twice")
        items[leading] = head
    return convert(grammar, items, schema)
