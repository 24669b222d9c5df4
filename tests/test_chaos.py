"""Deterministic chaos: seeded kill-points and crash-safe persistence.

Contracts under test (DESIGN.md §"Failure model & recovery matrix"):

* every injected failure's parameters are a pure function of
  ``(plan.seed, site, occurrence)`` — a chaos campaign replays exactly;
* checkpoint files are torn-write-safe (fsync + atomic rename, the previous
  generation rotated to ``.prev``) and checksummed — damage that still parses
  as JSON is caught by the CRC-32 envelope, never silently loaded;
* the recovery law: a bad current checkpoint falls back to the previous
  generation, and the resumed run is bit-identical to the uninterrupted one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chaos import (
    CHAOS_SITES,
    ChaosCrash,
    ChaosInjector,
    ChaosPlan,
    active,
    chaos,
    fire,
)
from repro.core.hierminimax import HierMinimax
from repro.faults.checkpoint import (
    CHECKSUM_KEY,
    CheckpointError,
    load_checkpoint_file,
    previous_checkpoint_path,
    save_checkpoint_file,
)
from repro.nn.models import make_model_factory

from .conftest import make_blob_fed


# ---------------------------------------------------------------------------
# Plans: purity, parsing, occurrence clocks
# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_params_are_pure_in_seed_site_occurrence(self):
        a, b = ChaosPlan(seed=7), ChaosPlan(seed=7)
        for site in CHAOS_SITES:
            for occ in (0, 1, 5):
                assert a.params(site, occ) == b.params(site, occ)
        assert (ChaosPlan(seed=7).params("torn_write", 0)
                != ChaosPlan(seed=8).params("torn_write", 0))
        assert (a.params("shard_corrupt", 0)
                != a.params("shard_corrupt", 1))

    def test_parse_round_trip_and_shorthand(self):
        plan = ChaosPlan.parse("thread_hang=1,torn_write=0|2,seed=3,"
                               "hang_s=0.5")
        assert plan.thread_hang == (1,)
        assert plan.torn_write == (0, 2)
        assert plan.seed == 3 and plan.hang_s == 0.5
        assert ChaosPlan(torn_write=2).torn_write == (2,)  # int shorthand
        assert ChaosPlan.parse(None).is_null
        assert ChaosPlan.parse("").is_null

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ChaosPlan.parse("no_such_site=1")
        with pytest.raises(ValueError):
            ChaosPlan.parse("torn_write")
        with pytest.raises(ValueError):
            ChaosPlan.parse("worker_kill=1")
        with pytest.raises(ValueError):
            ChaosPlan(torn_write=(-1,))
        with pytest.raises(ValueError):
            ChaosPlan().params("no_such_site", 0)

    def test_injector_fires_only_planned_occurrences(self):
        injector = ChaosInjector(ChaosPlan(torn_write=(1,), seed=0))
        assert injector.decide("torn_write") is None      # occurrence 0
        decision = injector.decide("torn_write")          # occurrence 1
        assert decision is not None and decision["occurrence"] == 1
        assert 0.05 <= decision["frac"] <= 0.95
        assert injector.decide("torn_write") is None      # occurrence 2
        assert injector.fired_sites() == ["torn_write"]
        with pytest.raises(KeyError):
            injector.decide("no_such_site")


class TestHooks:
    def test_fire_without_injector_is_none(self):
        assert active() is None
        assert fire("torn_write") is None

    def test_chaos_context_installs_and_uninstalls(self):
        with chaos(ChaosPlan(crash_after_save=(0,))) as injector:
            assert active() is injector
            assert fire("crash_after_save") is not None
        assert active() is None
        # The context also accepts spec strings.
        with chaos("torn_write=0,seed=2") as injector:
            assert injector.plan.torn_write == (0,)


# ---------------------------------------------------------------------------
# Durable checkpoints: tearing, checksums, generation fallback
# ---------------------------------------------------------------------------
def _state(round_index: int) -> dict:
    return {"algorithm": "demo", "round": round_index,
            "w": np.arange(4, dtype=np.float64) * (round_index + 1)}


class TestDurableCheckpoint:
    def test_torn_write_preserves_previous_generation(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint_file(path, _state(1))
        with chaos(ChaosPlan(torn_write=(1,), seed=4)) as injector:
            save_checkpoint_file(path, _state(1))  # occurrence 0: clean
            with pytest.raises(ChaosCrash):
                save_checkpoint_file(path, _state(2))  # occurrence 1: torn
        assert injector.fired_sites() == ["torn_write"]
        # The torn temp file never reached the checkpoint name.
        assert load_checkpoint_file(path)["round"] == 1

    def test_checksum_catches_plausible_mutation(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint_file(path, _state(3))
        text = path.read_text()
        mutated = text.replace('"round": 3', '"round": 13')
        assert mutated != text
        path.write_text(mutated)  # still valid JSON, still checkpoint-shaped
        with pytest.raises(CheckpointError, match="crc32"):
            load_checkpoint_file(path)

    def test_non_utf8_damage_is_corruption_not_a_crash(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint_file(path, _state(3))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] = 0xBA  # invalid UTF-8 start byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint_file(path)

    def test_legacy_file_without_envelope_loads(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint_file(path, _state(5))
        raw = json.loads(path.read_text())
        raw.pop(CHECKSUM_KEY)
        path.write_text(json.dumps(raw))
        assert load_checkpoint_file(path)["round"] == 5

    def test_rotation_and_generation_fallback(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint_file(path, _state(1))
        save_checkpoint_file(path, _state(2))
        prev = previous_checkpoint_path(path)
        assert load_checkpoint_file(prev)["round"] == 1
        assert load_checkpoint_file(path)["round"] == 2


# ---------------------------------------------------------------------------
# End-to-end: interrupted training resumes bit-identically (serial scenarios;
# the full kill-point × backend sweep runs as `python -m repro chaos`)
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.fixture()
    def setup(self):
        fed = make_blob_fed(num_edges=3, clients_per_edge=2, seed=5)
        factory = make_model_factory("logistic", 5, 3)
        return fed, factory

    def _algo(self, setup):
        fed, factory = setup
        return HierMinimax(fed, factory, tau1=2, tau2=2, m_edges=2,
                           eta_w=0.05, eta_p=2e-3, batch_size=4, seed=3)

    def test_torn_checkpoint_resumes_bit_identically(self, setup, tmp_path):
        ref = self._algo(setup).run(rounds=6, eval_every=2)
        path = tmp_path / "run.ckpt.json"
        with chaos(ChaosPlan(torn_write=(1,), seed=0)):
            with pytest.raises(ChaosCrash):
                self._algo(setup).run(rounds=6, eval_every=2,
                                      checkpoint_path=path,
                                      checkpoint_every=2)
        resumed = self._algo(setup)
        done = resumed.load_checkpoint(path)
        assert done == 2  # the save at round 4 was the torn one
        result = resumed.run(rounds=6 - done, eval_every=2)
        np.testing.assert_array_equal(ref.final_params, result.final_params)
        np.testing.assert_array_equal(ref.final_weights,
                                      result.final_weights)
        assert ref.history.as_dict() == result.history.as_dict()

    def test_corrupted_checkpoint_falls_back_one_generation(self, setup,
                                                            tmp_path):
        ref = self._algo(setup).run(rounds=6, eval_every=2)
        path = tmp_path / "run.ckpt.json"
        with chaos(ChaosPlan(crash_after_save=(1,), seed=0)):
            with pytest.raises(ChaosCrash):
                self._algo(setup).run(rounds=6, eval_every=2,
                                      checkpoint_path=path,
                                      checkpoint_every=2)
        # Flip a digit inside the current generation: valid JSON, bad CRC.
        text = path.read_text()
        assert '"round": 4' in text
        path.write_text(text.replace('"round": 4', '"round": 5'))
        resumed = self._algo(setup)
        done = resumed.load_checkpoint(path)
        assert done == 2  # fell back to the .prev generation
        result = resumed.run(rounds=6 - done, eval_every=2)
        np.testing.assert_array_equal(ref.final_params, result.final_params)
        assert ref.history.as_dict() == result.history.as_dict()

    def test_unloadable_everything_raises_checkpoint_error(self, setup,
                                                           tmp_path):
        with pytest.raises(CheckpointError, match="no loadable checkpoint"):
            self._algo(setup).load_checkpoint(tmp_path / "absent.ckpt.json")
