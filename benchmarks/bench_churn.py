"""Dynamic-membership bench — the 20% edge-crash campaign.

Runs the ``churn`` scenario of :mod:`repro.experiments.scenarios` at its bench
size: HierMinimax on the Fig. 3 layout while a seeded
:class:`repro.membership.ChurnPlan` crashes edge servers (two-state Markov
episodes tuned so roughly 20% of edges are dark in steady state) and churns
the client population, in three arms:

* ``clean`` — no churn plan bound (the static-hierarchy reference),
* ``re-homed`` — the self-healing run: orphans of a crashed edge are re-homed
  to surviving edges and the edge state is handed off, and
* ``no-failover`` — the same crash campaign with failover disabled: clients
  of a dark edge simply vanish from the round.

The headline numbers the bench must reproduce (the scenario's checks):

* with re-homing, worst-group accuracy survives the campaign — it is at least
  the no-failover arm's and within 15 points of the clean run; and
* self-healing is not free — re-homing and state handoff are charged to the
  cost model and the comm tracker, so the re-homed arm's simulated makespan
  and traffic exceed the no-failover arm's.

The campaign must actually happen (edge crashes, re-homes and handoffs), and
the membership ledger must balance on the re-homed arm: arrivals minus
departures equal the net change of the active population.
"""

from __future__ import annotations

from repro.experiments.scenarios import CHURN


def test_churn_campaign(scenario_bench):
    scenario_bench(CHURN, "churn_campaign")
