"""Time-to-accuracy bench — sync vs semi-async HierMinimax on a virtual clock.

Runs the ``timesim`` scenario of :mod:`repro.experiments.scenarios` at its
bench size: both variants on the Fig. 3 layout under a heterogeneous
device/link cost model with one persistent 10× straggler client, compared on
worst-group accuracy as a function of *simulated* seconds (the cost-model
makespan; the wall-clock of this bench is irrelevant).  The staleness sweep
covers

* ``S=0`` — must reproduce the synchronous trajectory AND makespan exactly
  (the bounded-staleness collect degenerates to the synchronous barrier), and
* ``S>=1`` — overlapping rounds hide the straggler behind the fast cohort.

The headline numbers the bench must reproduce (the scenario's checks):

* with ``staleness=1`` the semi-async variant reaches the synchronous run's
  final worst-group accuracy in **strictly less** simulated time than the
  synchronous run takes, and finishes its whole run sooner, and
* the synchronous trajectory itself is bit-unchanged by the cost model (the
  clock is observational) — asserted against a clock-free control run.
"""

from __future__ import annotations

from repro.experiments.scenarios import TIMESIM


def test_time_to_accuracy(scenario_bench):
    scenario_bench(TIMESIM, "time_to_accuracy")
