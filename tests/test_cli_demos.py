"""Smoke tests of the four demo gates at tiny scale and a few rounds.

Each demo trains the same emnist-digits/logistic HierMinimax set-up with and
without one run-wide argument (``faults=``, a Byzantine ``faults=`` plus
``defense=``, ``timing=``, ``churn=``) and returns 0 when its check holds.
``timesim --staleness 0`` must reproduce the synchronous run exactly; the
other three run under a loose ``--tolerance`` and must print their counters.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main


@pytest.mark.parametrize("argv, header, counter", [
    (["degradation", "--rounds", "6", "--tolerance", "1"],
     "fault counters (faulted run):", "clients_dropped_total"),
    (["byzantine", "--rounds", "6", "--tolerance", "1"],
     "byzantine counters (defended run):", "byzantine_attacks_total"),
    (["churn", "--rounds", "6", "--tolerance", "1"],
     "membership counters (re-homed run):", "membership_rehomed_total"),
], ids=["degradation", "byzantine", "churn"])
def test_demo_passes_and_prints_its_counters(argv, header, counter, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert header in out
    assert re.search(rf"^  {counter} +[1-9]", out, re.MULTILINE), out


def test_timesim_staleness_zero_reproduces_sync_exactly(capsys):
    assert main(["timesim", "--rounds", "6", "--staleness", "0"]) == 0
    out = capsys.readouterr().out
    assert "staleness=0 reproduction: exact" in out
