"""Byzantine robustness bench — the attack × defense grid.

Trains HierMinimax on the Fig. 3 layout under a 20% Byzantine roster (one
compromised client in each of the first 20% of edge areas) and sweeps the
:mod:`repro.defense` aggregator suite against the two attack families that
target the algorithm's two phases:

* ``sign_flip`` — model poisoning aimed at the Phase-1 aggregation, and
* ``loss_inflation`` — score poisoning aimed at the Phase-2 minimax weight
  ascent (Eq. (7)).

The headline numbers the grid must reproduce:

* under either attack, the reference **mean** aggregator demonstrably fails —
  its worst-group accuracy collapses far below the clean run; and
* at least one robust configuration recovers worst-group accuracy to within
  5 points of the clean run.

The per-tier structure matters and the grid shows it: the threat model trusts
edge servers, so trimming at the *cloud* tier only discards honest uploads —
the strongest sign-flip defense trims at the edge (where the adversary sits)
and norm-clips at the cloud, while the strongest loss-inflation defense is the
score clip alone with untouched model averaging.
"""

from __future__ import annotations

import numpy as np

from repro.core.hierminimax import HierMinimax
from repro.data.registry import make_federated_dataset
from repro.defense import AttackPlan, one_per_edge_roster
from repro.faults import FaultPlan
from repro.nn.models import make_model_factory
from repro.obs import Tracer

#: Defense grid: every single-name aggregator plus the tuned per-tier combo.
DEFENSES = (
    ("mean", "mean"),
    ("median", "median"),
    ("trimmed_mean", "trimmed_mean,trim=0.34"),
    ("krum", "krum"),
    ("norm_clip", "norm_clip,loss_clip=2.0"),
    ("edge_trim+clip", "edge=trimmed_mean,cloud=norm_clip,trim=0.34,"
                       "loss_clip=2.0"),
)

ATTACKS = (
    ("sign_flip", "scale=5.0"),
    ("loss_inflation", "scale=50.0"),
)


def test_byzantine_grid(benchmark, repro_scale, save_report, make_tracer,
                        bench_trajectory):
    scale = "tiny" if repro_scale == "tiny" else "small"
    rounds = 800 if scale == "tiny" else 2000
    eta_w = 0.05 if scale == "tiny" else 0.03
    dataset = make_federated_dataset("emnist_digits", seed=0, scale=scale)
    factory = make_model_factory("logistic", dataset.input_dim,
                                 dataset.num_classes)
    # A 20% roster, one attacker per affected area.
    roster = one_per_edge_roster(dataset, 0.2)

    def train(faults=None, defense=None, obs=None):
        algo = HierMinimax(dataset, factory, batch_size=8, eta_w=eta_w,
                           eta_p=2e-3, tau1=2, tau2=2, m_edges=5, seed=0,
                           faults=faults, defense=defense, obs=obs)
        rec = algo.run(rounds=rounds, eval_every=rounds).history.final().record
        return {"worst_accuracy": float(rec.worst_accuracy),
                "average_accuracy": float(rec.average_accuracy),
                "variance_x1e4": float(rec.variance_x1e4)}

    def run():
        out = {"clean": train(),
               "roster": list(roster),
               "byzantine_fraction": len(roster) / dataset.num_clients,
               "grid": {}}
        for attack, params in ATTACKS:
            plan = FaultPlan(byzantine=AttackPlan.parse(
                f"{attack},clients={'|'.join(map(str, roster))},{params}"))
            row = {}
            for label, defense in DEFENSES:
                obs = Tracer(None)
                row[label] = train(faults=plan, defense=defense, obs=obs)
                counters = obs.snapshot()["counters"]
                row[label]["attacks_injected"] = int(
                    counters.get("byzantine_attacks_total", 0))
                row[label]["uploads_filtered"] = int(
                    counters.get("byzantine_filtered_total", 0))
            out["grid"][attack] = row
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)

    clean = data["clean"]["worst_accuracy"]
    lines = [f"byzantine grid ({len(data['roster'])}/{dataset.num_clients} "
             f"attackers, {rounds} rounds): clean worst acc {clean:.3f}",
             f"{'attack':>15s} {'defense':>15s} {'worst':>7s} {'avg':>7s} "
             f"{'injected':>9s} {'filtered':>9s}"]
    for attack, row in data["grid"].items():
        for label, cell in row.items():
            lines.append(
                f"{attack:>15s} {label:>15s} {cell['worst_accuracy']:7.3f} "
                f"{cell['average_accuracy']:7.3f} "
                f"{cell['attacks_injected']:9d} {cell['uploads_filtered']:9d}")
    save_report(f"byzantine_grid_{repro_scale}", data, "\n".join(lines))

    if scale == "tiny":
        # Perf trajectory (tiny scale only — the baseline is pinned there):
        # tamper/filter totals gate exactly, accuracies are deterministic
        # floats of the fixed-seed run.
        combo_sf = data["grid"]["sign_flip"]["edge_trim+clip"]
        combo_li = data["grid"]["loss_inflation"]["norm_clip"]
        bench_trajectory("byzantine", {
            "sign_flip_attacks_injected": {
                "value": combo_sf["attacks_injected"], "kind": "counter"},
            "sign_flip_uploads_filtered": {
                "value": combo_sf["uploads_filtered"], "kind": "counter"},
            "clean_worst_accuracy": {
                "value": data["clean"]["worst_accuracy"], "kind": "exact"},
            "sign_flip_defended_worst_accuracy": {
                "value": combo_sf["worst_accuracy"], "kind": "exact"},
            "loss_inflation_defended_worst_accuracy": {
                "value": combo_li["worst_accuracy"], "kind": "exact"},
        }, context={"scale": scale, "rounds": rounds,
                    "roster": list(data["roster"])})

    for attack, row in data["grid"].items():
        # The reference mean demonstrably fails under a 20% attack ...
        assert row["mean"]["worst_accuracy"] < clean - 0.20, \
            f"{attack}: mean unexpectedly robust"
        # ... while at least one robust configuration recovers the worst-group
        # accuracy to within 5 points of the clean run.
        best = max(cell["worst_accuracy"] for label, cell in row.items()
                   if label != "mean")
        assert best > clean - 0.05, \
            f"{attack}: best robust defense {best:.3f} vs clean {clean:.3f}"
        # Every attacked cell actually saw tampered uploads; robust cells
        # actually filtered/clipped some of them.
        assert all(cell["attacks_injected"] > 0 for cell in row.values())
        assert any(cell["uploads_filtered"] > 0 for label, cell in row.items()
                   if label != "mean")
