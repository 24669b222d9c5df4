"""Byzantine robustness bench — the attack × defense grid.

Runs the ``byzantine`` scenario of :mod:`repro.experiments.scenarios` at its
bench size: HierMinimax on the Fig. 3 layout under a 20% Byzantine roster (one
compromised client in each of the first 20% of edge areas), with the
:mod:`repro.defense` aggregator suite swept against the two attack families
that target the algorithm's two phases:

* ``sign_flip`` — model poisoning aimed at the Phase-1 aggregation, and
* ``loss_inflation`` — score poisoning aimed at the Phase-2 minimax weight
  ascent (Eq. (7)).

The headline numbers the grid must reproduce (the scenario's checks):

* under either attack, the reference **mean** aggregator demonstrably fails —
  its worst-group accuracy collapses more than 20 points below the clean run;
* at least one robust configuration recovers worst-group accuracy to within
  5 points of the clean run; and
* every attacked cell saw tampered uploads, and a robust cell filtered some.

The per-tier structure matters and the grid shows it: the threat model trusts
edge servers, so trimming at the *cloud* tier only discards honest uploads —
the strongest sign-flip defense trims at the edge (where the adversary sits)
and norm-clips at the cloud, while the strongest loss-inflation defense is the
score clip alone with untouched model averaging.
"""

from __future__ import annotations

from repro.experiments.scenarios import BYZANTINE


def test_byzantine_grid(scenario_bench):
    scenario_bench(BYZANTINE, "byzantine_grid")
