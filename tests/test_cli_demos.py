"""Smoke tests of the comparison demos at tiny scale and a few rounds.

Each demo is a scenario of :mod:`repro.experiments.scenarios`: the same
emnist-digits/logistic HierMinimax set-up trained with and without run-wide
arguments (``faults=``, a Byzantine ``faults=`` plus ``defense=``,
``timing=``, ``churn=``).  Every declared scenario gets a smoke run here: it
must return 0 under a loose ``--tolerance`` (where it has one) and print the
counter block of its witness arm with a nonzero witness counter.
``timesim --staleness 0`` must reproduce the synchronous run exactly.  Each
scenario's gated metrics are the metric keys of its committed
``BENCH_<bench>.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_demo_passes_and_prints_its_counters(name, capsys):
    scenario = SCENARIOS[name]
    argv = [name, "--rounds", "6"]
    if "tolerance" in scenario.sizes["demo"]:
        argv += ["--tolerance", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    title, _ = scenario.counters
    if scenario.witness is not None:
        arm, counter = scenario.witness
        assert f"{title} counters ({arm} run):" in out, out
        assert re.search(rf"^  {counter} +[1-9]", out, re.MULTILINE), out


def test_timesim_staleness_zero_reproduces_sync_exactly(capsys):
    assert main(["timesim", "--rounds", "6", "--staleness", "0"]) == 0
    out = capsys.readouterr().out
    assert "staleness=0 reproduction: exact" in out


@pytest.mark.parametrize("name", sorted(
    name for name, s in SCENARIOS.items() if s.bench is not None))
def test_gated_metrics_match_the_committed_baseline(name):
    scenario = SCENARIOS[name]
    baseline = json.loads(
        (ROOT / f"BENCH_{scenario.bench}.json").read_text())["metrics"]
    assert {metric: spec["kind"] for metric, spec in baseline.items()} \
        == scenario.gated
