"""Serialization of experiment results to JSON.

Experiment outputs (training histories, table rows, figure series) are plain nested
structures of dicts/lists/NumPy scalars/arrays.  These helpers convert them to and
from portable JSON so benchmark runs can be archived and diffed.  Arrays are stored
as ``{"__ndarray__": [...], "dtype": ..., "shape": [...]}`` envelopes, which keeps
files human-readable for the modest sizes produced here.

Checkpoint payloads (see :mod:`repro.faults.checkpoint`) additionally carry
``np.random.Generator`` objects; these round-trip *exactly* through a
``{"__bitgen__": <BitGenerator name>, "state": {...}}`` envelope — Python ints
are arbitrary-precision, so even PCG64's 128-bit state survives JSON intact —
which is what makes resumed runs bit-identical.

Durable files (checkpoints and population store shards) are written by one
primitive, :func:`durable_write`, and checksummed by one helper,
:func:`crc32_of`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from pathlib import Path
from typing import IO, Any, Callable

import numpy as np

__all__ = ["to_jsonable", "from_jsonable", "save_json", "load_json",
           "canonical_bytes", "crc32_of", "previous_path", "durable_write",
           "fsync_dir"]

_ARRAY_KEY = "__ndarray__"
_BITGEN_KEY = "__bitgen__"


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-encodable structures."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    # Plain containers before the rarer types: the checkpoint payloads this
    # walks are mostly nested dicts and lists.
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        value = float(obj)
        return value
    if isinstance(obj, np.ndarray):
        return {_ARRAY_KEY: obj.tolist(), "dtype": str(obj.dtype), "shape": list(obj.shape)}
    if isinstance(obj, np.random.Generator):
        state = obj.bit_generator.state
        return {_BITGEN_KEY: state["bit_generator"], "state": to_jsonable(state)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def from_jsonable(obj: Any) -> Any:
    """Inverse of :func:`to_jsonable`; reconstructs ndarray/Generator envelopes."""
    if isinstance(obj, dict):
        if _ARRAY_KEY in obj:
            return np.asarray(obj[_ARRAY_KEY], dtype=obj.get("dtype", "float64")).reshape(
                obj.get("shape", -1))
        if _BITGEN_KEY in obj:
            name = obj[_BITGEN_KEY]
            try:
                bitgen_cls = getattr(np.random, name)
            except AttributeError as exc:
                raise ValueError(f"unknown BitGenerator {name!r} in "
                                 f"serialized state") from exc
            gen = np.random.Generator(bitgen_cls())
            gen.bit_generator.state = from_jsonable(obj["state"])
            return gen
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


def canonical_bytes(obj: Any) -> bytes:
    """One canonical byte encoding of ``obj`` — the checksum input.

    Keys sorted, no whitespace, UTF-8: two structurally equal payloads always
    produce the same bytes, independent of dict insertion order or the pretty
    ``indent`` a file was written with.  ``obj`` may contain arrays/generators
    (run through :func:`to_jsonable`) or already be plain JSON structures —
    :func:`to_jsonable` is idempotent on its own output, so a checksum
    computed at save time over the live payload matches one recomputed at
    load time over the parsed file.
    """
    return json.dumps(to_jsonable(obj), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def crc32_of(obj: Any) -> int:
    """CRC-32 of :func:`canonical_bytes`: every durable file's checksum."""
    return zlib.crc32(canonical_bytes(obj))


def previous_path(path: str | Path) -> Path:
    """Where :func:`durable_write` rotates the prior generation of ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def durable_write(path: str | Path, text: str, *,
                  before_fsync: Callable[[IO[str]], None] | None = None,
                  ) -> Path:
    """Write ``text`` to ``path`` so that no crash destroys both generations.

    Sibling ``<name>.tmp`` written, flushed and fsynced; the current file
    rotated to :func:`previous_path`; the temp file renamed into place.  The
    caller fsyncs the directory (:func:`fsync_dir`) once its batch is written.
    ``before_fsync`` is a fault-injection hook given the open temp file; the
    file is fsynced even when it raises.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        try:
            if before_fsync is not None:
                before_fsync(fh)
        finally:
            os.fsync(fh.fileno())
    if path.exists():
        path.replace(previous_path(path))
    tmp.replace(path)
    return path


def fsync_dir(directory: str | Path) -> None:
    """Flush a directory entry (a rename) to disk; best-effort off-POSIX."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_json(path: str | Path, obj: Any, *, indent: int = 2) -> Path:
    """Serialize ``obj`` to ``path`` as JSON; parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(obj), indent=indent, sort_keys=True))
    return path


def load_json(path: str | Path) -> Any:
    """Load a JSON file written by :func:`save_json`.

    Raises
    ------
    ValueError
        When the file is not valid JSON (e.g. a truncated checkpoint from a
        kill mid-write) — the message names the offending path.
    """
    path = Path(path)
    try:
        return from_jsonable(json.loads(path.read_text()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON "
                         f"(corrupted or truncated file): {exc}") from exc
