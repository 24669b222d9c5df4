"""The chaos acceptance campaign behind ``python -m repro chaos``.

Each scenario interrupts a real training run at a seeded kill-point — a torn
checkpoint write, a crash right after a durable save, a bit-flipped store
shard, a corrupted-but-parseable checkpoint — lets the crash-safety
machinery recover, and asserts the recovered run is
**bit-identical** to the uninterrupted reference: same final model, same
mixing weights, same evaluation history, same communication totals.  A single
flipped bit anywhere in the recovery path fails the campaign.

Scenarios (kill-point × backend sweep):

``torn_write``
    A checkpoint write is truncated mid-file and the process dies; the resume
    loads the intact previous generation.
``crash_after_save/<backend>``
    The process dies immediately after a durable checkpoint; the resume
    continues from that exact round (swept across backends).
``shard_corrupt/fallback``
    With a virtual population persisting sidecar shard files, one shard is
    bit-flipped after the second save and the process dies; the checksum
    catches the damage at load and the run falls back to the previous
    checkpoint generation.
``shard_corrupt/rederive``
    The same damaged state loaded in ``rederive`` mode: the corrupted shard
    is detected, quarantined on disk, and never silently loaded.
``checkpoint_bitflip``
    A still-valid-JSON digit flip inside the current checkpoint file; the
    CRC-32 envelope rejects it and the resume uses the previous generation.

All chaos parameters derive from :class:`~repro.chaos.plan.ChaosPlan` seeds,
so a failing scenario replays exactly.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chaos.hooks import ChaosCrash, chaos, install, uninstall
from repro.chaos.plan import ChaosInjector, ChaosPlan
from repro.core.hierminimax import HierMinimax
from repro.data.registry import make_federated_dataset
from repro.exec import make_backend
from repro.faults.checkpoint import (CheckpointError, load_checkpoint_file,
                                     previous_checkpoint_path)
from repro.nn.models import make_model_factory
from repro.population.spec import PopulationSpec

__all__ = ["ScenarioOutcome", "run_campaign", "format_campaign",
           "campaign_ok"]

_ROUNDS_DEFAULT = 6
_CKPT_EVERY = 2


@dataclass
class ScenarioOutcome:
    """Result of one chaos scenario."""

    name: str
    backend: str
    ok: bool
    detail: str = ""
    fired: tuple = ()
    notes: dict = field(default_factory=dict)


def _fingerprint(result) -> dict:
    return {
        "final_params": result.final_params,
        "final_weights": result.final_weights,
        "history": result.history.as_dict(),
        "comm_bytes": result.comm.total_bytes,
    }


def _identical(ref: dict, got: dict) -> str | None:
    """None when bit-identical, else a message naming the first divergence."""
    if not np.array_equal(ref["final_params"], got["final_params"]):
        return "final model parameters differ"
    rw, gw = ref["final_weights"], got["final_weights"]
    if (rw is None) != (gw is None) or (rw is not None
                                        and not np.array_equal(rw, gw)):
        return "final mixing weights differ"
    if ref["history"] != got["history"]:
        return "evaluation histories differ"
    if ref["comm_bytes"] != got["comm_bytes"]:
        return "communication totals differ"
    return None


class _Config:
    """One training configuration; builds fresh-but-identical algorithms."""

    def __init__(self, *, seed: int, rounds: int, virtual: bool) -> None:
        self.seed = int(seed)
        self.rounds = int(rounds)
        self.virtual = bool(virtual)
        if virtual:
            self._fed = None
            self._spec = PopulationSpec(
                num_edges=4, clients_per_edge=3, samples_per_client=16,
                test_per_edge=16, dim=16, num_classes=10,
                seed=100 + self.seed)
            self._factory = make_model_factory(
                "logistic", self._spec.input_dim, self._spec.num_classes)
        else:
            self._fed = make_federated_dataset("emnist_digits", scale="tiny",
                                               seed=11)
            self._spec = None
            self._factory = make_model_factory(
                "logistic", self._fed.input_dim, self._fed.num_classes)

    def algo(self, *, backend=None) -> HierMinimax:
        dataset = self._fed if self._fed is not None else self._spec
        return HierMinimax(dataset, self._factory, tau1=2, tau2=2, m_edges=3,
                           eta_w=0.05, eta_p=2e-3, batch_size=8,
                           seed=3 + self.seed, backend=backend)

    def run_clean(self, *, backend=None, checkpoint_path=None,
                  shard_dir=None):
        with self.algo(backend=backend) as algo:
            return algo.run(rounds=self.rounds, eval_every=2,
                            checkpoint_path=checkpoint_path,
                            checkpoint_every=(_CKPT_EVERY if checkpoint_path
                                              else None),
                            checkpoint_shard_dir=shard_dir)

    def run_with_crash(self, plan: ChaosPlan, *, backend=None,
                       checkpoint_path=None, shard_dir=None):
        """Run under ``plan`` until the injected crash; return the injector."""
        with self.algo(backend=backend) as algo:
            with chaos(plan) as injector:
                try:
                    algo.run(rounds=self.rounds, eval_every=2,
                             checkpoint_path=checkpoint_path,
                             checkpoint_every=_CKPT_EVERY,
                             checkpoint_shard_dir=shard_dir)
                except ChaosCrash:
                    return injector, True
        return injector, False

    def resume(self, checkpoint_path, *, backend=None, shard_dir=None,
               shard_recovery: str = "fallback"):
        """Fresh algorithm; load whatever generation verifies; finish the run."""
        with self.algo(backend=backend) as algo:
            done = algo.load_checkpoint(checkpoint_path, shard_dir=shard_dir,
                                        shard_recovery=shard_recovery)
            return algo.run(rounds=self.rounds - done, eval_every=2,
                            checkpoint_path=checkpoint_path,
                            checkpoint_every=_CKPT_EVERY,
                            checkpoint_shard_dir=shard_dir)


def _scenario_torn_write(config: _Config, seed: int, ref: dict,
                         workdir: Path) -> ScenarioOutcome:
    path = workdir / "torn" / "run.ckpt.json"
    plan = ChaosPlan(torn_write=(1,), seed=seed)
    injector, crashed = config.run_with_crash(plan, checkpoint_path=path)
    if not crashed:
        return ScenarioOutcome("torn_write", "serial", False,
                               "injected torn write did not crash the run",
                               tuple(injector.fired_sites()))
    try:
        load_checkpoint_file(path)  # surviving generation must verify
    except CheckpointError as exc:
        return ScenarioOutcome("torn_write", "serial", False,
                               f"surviving checkpoint unreadable: {exc}",
                               tuple(injector.fired_sites()))
    result = config.resume(path)
    mismatch = _identical(ref, _fingerprint(result))
    return ScenarioOutcome("torn_write", "serial", mismatch is None,
                           mismatch or "resumed bit-identically",
                           tuple(injector.fired_sites()))


def _scenario_crash_after_save(config: _Config, seed: int, ref: dict,
                               workdir: Path,
                               backend_name: str) -> ScenarioOutcome:
    name = f"crash_after_save/{backend_name}"
    path = workdir / f"crash-{backend_name}" / "run.ckpt.json"
    plan = ChaosPlan(crash_after_save=(1,), seed=seed)
    backend = make_backend(backend_name, workers=2)
    try:
        injector, crashed = config.run_with_crash(plan, backend=backend,
                                                  checkpoint_path=path)
        if not crashed:
            return ScenarioOutcome(name, backend_name, False,
                                   "injected crash never fired",
                                   tuple(injector.fired_sites()))
        result = config.resume(path, backend=backend)
    finally:
        backend.close()
    mismatch = _identical(ref, _fingerprint(result))
    return ScenarioOutcome(name, backend_name, mismatch is None,
                           mismatch or "resumed bit-identically",
                           tuple(injector.fired_sites()))


def _count_first_save_shards(config: _Config, workdir: Path) -> int:
    """How many shard files the first checkpoint save writes (probe run).

    The interesting corruption target is a shard of the *second* save — the
    first save has no previous generation to fall back to.  Occurrence
    indexes are global across the run, so the probe counts the first save's
    ``shard_corrupt`` fires with a fire-nothing injector installed.
    """
    path = workdir / "probe" / "run.ckpt.json"
    injector = install(ChaosInjector(ChaosPlan()))
    try:
        with config.algo() as algo:
            algo.run(rounds=_CKPT_EVERY, eval_every=2, checkpoint_path=path,
                     checkpoint_every=_CKPT_EVERY,
                     checkpoint_shard_dir=path.parent / "shards")
    finally:
        uninstall()
    return int(injector.counts.get("shard_corrupt", 0))


def _scenario_shard_corrupt(config: _Config, seed: int, ref: dict,
                            workdir: Path) -> list[ScenarioOutcome]:
    first_save = _count_first_save_shards(config, workdir)
    if first_save < 1:
        return [ScenarioOutcome("shard_corrupt/fallback", "serial", False,
                                "probe run wrote no shard files")]
    path = workdir / "shard" / "run.ckpt.json"
    shard_dir = path.parent / "shards"
    # Corrupt the first shard written by save #1, then die right after that
    # save completes — the on-disk state a power cut after bit rot leaves.
    plan = ChaosPlan(shard_corrupt=(first_save,), crash_after_save=(1,),
                     seed=seed)
    injector, crashed = config.run_with_crash(plan, checkpoint_path=path,
                                              shard_dir=shard_dir)
    fired = tuple(injector.fired_sites())
    if not crashed or "shard_corrupt" not in fired:
        return [ScenarioOutcome("shard_corrupt/fallback", "serial", False,
                                "corruption/crash did not fire as planned",
                                fired)]
    # Detection demo: rederive mode must quarantine, never silently load.
    quarantine_before = list(shard_dir.glob("*.quarantine"))
    with config.algo() as probe:
        probe.load_checkpoint(path, shard_dir=shard_dir,
                              shard_recovery="rederive")
    quarantined = [p for p in shard_dir.glob("*.quarantine")
                   if p not in quarantine_before]
    outcomes = [ScenarioOutcome(
        "shard_corrupt/rederive", "serial", bool(quarantined),
        ("corrupted shard detected and quarantined" if quarantined
         else "corrupted shard was loaded silently"), fired,
        {"quarantined": [p.name for p in quarantined]})]
    # Undo the quarantine rename so the fallback path sees the damaged file.
    for q in quarantined:
        q.replace(q.with_name(q.name[: -len(".quarantine")]))
    # Bit-identical recovery: fall back to the previous generation.
    result = config.resume(path, shard_dir=shard_dir,
                           shard_recovery="fallback")
    mismatch = _identical(ref, _fingerprint(result))
    outcomes.append(ScenarioOutcome(
        "shard_corrupt/fallback", "serial", mismatch is None,
        mismatch or "fell back one generation, resumed bit-identically",
        fired))
    return outcomes


def _scenario_checkpoint_bitflip(config: _Config, seed: int, ref: dict,
                                 workdir: Path) -> ScenarioOutcome:
    path = workdir / "bitflip" / "run.ckpt.json"
    plan = ChaosPlan(crash_after_save=(1,), seed=seed)
    injector, crashed = config.run_with_crash(plan, checkpoint_path=path)
    if not crashed:
        return ScenarioOutcome("checkpoint_bitflip", "serial", False,
                               "setup crash never fired",
                               tuple(injector.fired_sites()))
    # Flip one digit of the stored round counter: still valid JSON, still a
    # plausible checkpoint — only the checksum can tell.
    text = path.read_text()
    mutated = text.replace('"round": ', '"round": 1', 1)
    if mutated == text:
        return ScenarioOutcome("checkpoint_bitflip", "serial", False,
                               "could not mutate checkpoint payload")
    path.write_text(mutated)
    try:
        load_checkpoint_file(path)
        return ScenarioOutcome("checkpoint_bitflip", "serial", False,
                               "checksum failed to detect the mutation")
    except CheckpointError:
        pass
    if not previous_checkpoint_path(path).exists():
        return ScenarioOutcome("checkpoint_bitflip", "serial", False,
                               "no previous generation to fall back to")
    result = config.resume(path)
    mismatch = _identical(ref, _fingerprint(result))
    return ScenarioOutcome("checkpoint_bitflip", "serial", mismatch is None,
                           mismatch or "fell back one generation, "
                           "resumed bit-identically",
                           tuple(injector.fired_sites()))


def run_campaign(*, seed: int = 0, rounds: int = _ROUNDS_DEFAULT,
                 backends=("serial", "vectorized"),
                 workdir: str | Path | None = None) -> list[ScenarioOutcome]:
    """Run every chaos scenario; return one outcome per scenario.

    ``backends`` selects the ``crash_after_save`` sweep; the other
    scenarios always use serial (the kill-point is in the persistence
    layer, not the executor).
    """
    if rounds < 2 * _CKPT_EVERY + 1:
        raise ValueError(
            f"rounds must be >= {2 * _CKPT_EVERY + 1} so two checkpoint "
            f"generations exist with training still left to resume, "
            f"got {rounds}")
    owned = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-")
                   if owned else workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    outcomes: list[ScenarioOutcome] = []
    try:
        eager = _Config(seed=seed, rounds=rounds, virtual=False)
        ref = _fingerprint(eager.run_clean())
        outcomes.append(_scenario_torn_write(eager, seed, ref, workdir))
        for backend_name in backends:
            outcomes.append(_scenario_crash_after_save(
                eager, seed, ref, workdir, backend_name))
        outcomes.append(_scenario_checkpoint_bitflip(eager, seed, ref,
                                                     workdir))
        virtual = _Config(seed=seed, rounds=rounds, virtual=True)
        vref = _fingerprint(virtual.run_clean())
        outcomes.extend(_scenario_shard_corrupt(virtual, seed, vref, workdir))
    finally:
        if owned:
            shutil.rmtree(workdir, ignore_errors=True)
    return outcomes


def campaign_ok(outcomes) -> bool:
    """True when every scenario recovered bit-identically."""
    return bool(outcomes) and all(o.ok for o in outcomes)


def format_campaign(outcomes) -> str:
    """Human-readable campaign table."""
    lines = ["chaos campaign: interrupted runs must resume bit-identically",
             ""]
    width = max(len(o.name) for o in outcomes) if outcomes else 10
    for o in outcomes:
        status = "ok " if o.ok else "FAIL"
        fired = f"  fired={','.join(o.fired)}" if o.fired else ""
        lines.append(f"  [{status}] {o.name:<{width}s}  "
                     f"backend={o.backend:<10s} {o.detail}{fired}")
    lines.append("")
    good = sum(1 for o in outcomes if o.ok)
    lines.append(f"{good}/{len(outcomes)} scenarios recovered bit-identically"
                 + ("" if campaign_ok(outcomes) else " — CAMPAIGN FAILED"))
    return "\n".join(lines)
