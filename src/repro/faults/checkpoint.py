"""Experiment checkpoint files: periodic snapshots that make killed runs resumable.

A checkpoint captures everything a :class:`~repro.core.base.FederatedAlgorithm`
needs to continue *bit-identically*: the round counter, the model ``w`` and the
mixing weights ``λ`` (``p``/``q``), every RNG state (the cloud sampler, each
client's minibatch stream, auxiliary streams like the compression RNG), the
communication-tracker totals, the evaluation history so far, and the fault
layer's quarantine set.  Files are JSON via :mod:`repro.utils.serialization`
(NumPy arrays and ``np.random.Generator`` states round-trip exactly), so a
checkpoint is portable and diffable like every other artifact in this repo.

Durability and integrity
------------------------
Files are written by :func:`~repro.utils.serialization.durable_write` (temp
file fsynced before the atomic rename, the previous generation rotated to
``<name>.prev`` — the fallback target when the current one turns out
damaged), then the directory entry is fsynced so the rename survives a power
cut.  Every file embeds :func:`~repro.utils.serialization.crc32_of` of the
payload under ``__checksum__``; :func:`load_checkpoint_file` recomputes it, so
torn, truncated *and* bit-flipped files — even flips that still parse as JSON
— are detected instead of silently restored.  Files written before the
checksum existed load unchanged (the envelope is additive).

The format is versioned; :func:`load_checkpoint_file` refuses files written by
an incompatible layout or for a different algorithm with a clear error instead
of mis-restoring state.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.chaos.hooks import ChaosCrash, fire as chaos_fire
from repro.utils.serialization import (crc32_of, durable_write, from_jsonable,
                                       fsync_dir, previous_path, to_jsonable)

__all__ = ["CHECKPOINT_FORMAT", "CHECKSUM_KEY", "save_checkpoint_file",
           "load_checkpoint_file", "previous_checkpoint_path",
           "CheckpointError"]

#: Bump when the checkpoint payload layout changes incompatibly.
CHECKPOINT_FORMAT = 1

#: Integrity envelope key; sorts after every payload key an algorithm writes.
CHECKSUM_KEY = "__checksum__"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupted, or incompatible."""


#: Where :func:`save_checkpoint_file` rotates the prior generation.
previous_checkpoint_path = previous_path


def _torn_write(fh) -> None:
    """Chaos ``torn_write`` site: keep a prefix of the temp file and die."""
    torn = chaos_fire("torn_write")
    if torn is None:
        return
    size = fh.tell()
    cut = max(1, min(size - 1, int(torn["frac"] * size)))
    fh.truncate(cut)
    raise ChaosCrash(
        f"chaos torn_write occurrence {torn['occurrence']}: "
        f"checkpoint write to {fh.name} torn at byte {cut}/{size}")


def save_checkpoint_file(path: str | Path, state: dict) -> Path:
    """Write an algorithm ``state_dict`` durably and atomically to ``path``.

    The prior file is rotated to :func:`previous_checkpoint_path`; see the
    module docstring for the durability law.
    """
    path = Path(path)
    payload = to_jsonable({"format": CHECKPOINT_FORMAT, **state})
    text = json.dumps({**payload, CHECKSUM_KEY: {"alg": "crc32",
                                                 "value": crc32_of(payload)}},
                      indent=2, sort_keys=True)
    durable_write(path, text, before_fsync=_torn_write)
    fsync_dir(path.parent)
    crash = chaos_fire("crash_after_save")
    if crash is not None:
        raise ChaosCrash(
            f"chaos crash_after_save occurrence {crash['occurrence']}: "
            f"killed right after durably writing {path}")
    return path


def load_checkpoint_file(path: str | Path, *,
                         expect_algorithm: str | None = None,
                         verify: bool = True) -> dict:
    """Read and validate a checkpoint written by :func:`save_checkpoint_file`.

    Verification recomputes the CRC-32 over the canonical payload bytes and
    compares it with the embedded envelope; a mismatch (bit rot, a torn write
    that still parses) raises :class:`CheckpointError`.  Legacy files without
    an envelope are accepted — they predate the checksum.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint file at {path}")
    try:
        raw = json.loads(path.read_text())
    except (ValueError, UnicodeDecodeError) as exc:
        # ValueError covers JSONDecodeError; bit rot can also break the
        # UTF-8 encoding itself, which surfaces before the parser runs.
        raise CheckpointError(
            f"corrupted checkpoint {path}: not valid JSON "
            f"(truncated, torn, or bit-flipped?): {exc}") from exc
    if not isinstance(raw, dict) or "format" not in raw:
        raise CheckpointError(
            f"{path} is not a checkpoint file (no 'format' field)")
    checksum = raw.pop(CHECKSUM_KEY, None)
    if verify and checksum is not None:
        expected = int(checksum.get("value", -1))
        actual = crc32_of(raw)
        if actual != expected:
            raise CheckpointError(
                f"corrupted checkpoint {path}: crc32 mismatch "
                f"(stored {expected}, recomputed {actual}) — the file was "
                f"bit-flipped or torn after writing")
    state = from_jsonable(raw)
    if state["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} uses checkpoint format {state['format']}, "
            f"this build reads format {CHECKPOINT_FORMAT}")
    if expect_algorithm is not None and state.get("algorithm") != expect_algorithm:
        raise CheckpointError(
            f"{path} was written by algorithm {state.get('algorithm')!r}, "
            f"cannot resume a {expect_algorithm!r} run from it")
    return state
