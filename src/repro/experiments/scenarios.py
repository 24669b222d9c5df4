"""The robustness comparisons, each declared once for its demo, bench and gate.

A scenario is a paired comparison: every *arm* trains the same logistic
HierMinimax on the same emnist-digits dataset, seed and hyperparameters, and
differs only in a table of run-wide arguments (``faults=``, ``defense=``,
``timing=``, ``churn=``, or ``cls=`` for another algorithm class).  Its
*check* is a function of the trained arms that returns named metrics, the
verdict lines and whether they hold.  Its sizes are parameters per consumer:

* ``"demo"`` — the defaults of ``python -m repro <name>``, whose flags
  override them;
* ``"tiny"`` / ``"small"`` — the bench at ``--repro-scale``.  Every size but
  the demo's runs ``full``: the check adds the clauses that prove the run
  exercised its mechanism (attacks injected and filtered, edges crashed, a
  clock-free control) and keeps the bench's strict thresholds.  The tiny
  run's ``gated`` metrics are the scenario's ``BENCH_<bench>.json``.

:func:`run_scenario` trains the arms, runs the check and formats the report
that the demo prints and the bench archives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable

__all__ = ["SCENARIOS", "Scenario", "ScenarioRun", "run_scenario"]


@dataclass(frozen=True)
class Layout:
    """The arms of one scenario run and how its report shows them."""

    info: dict      # header lines (name -> value)
    arms: dict      # label -> run-wide arguments
    traced: tuple = ()  # arms trained under a metrics-only tracer each
    rows: tuple = ()    # extra table rows: (label, value of a RunResult, fmt)


@dataclass(frozen=True)
class Scenario:
    """One comparison: its sizes, its arms and its check.

    ``layout(p, dataset)`` returns the :class:`Layout` of the parameters
    ``p``; ``check(run, p)`` returns ``(metrics, lines, ok)``.  ``counters``
    is the ``(title, keys)`` of the counter block printed per traced arm;
    ``witness`` is the ``(arm, counter)`` of a demo arm whose counter a run
    of a few rounds already moves.  ``flags`` maps a CLI flag whose value is
    not a parameter itself to the parameters it sets.  ``bench`` names the
    ``BENCH_<bench>.json`` the ``gated`` metrics (name -> kind) are compared
    against.
    """

    name: str
    sizes: dict
    layout: Callable
    check: Callable
    counters: tuple = ("", ())
    witness: tuple | None = None
    flags: dict = field(default_factory=dict)
    bench: str | None = None
    gated: dict = field(default_factory=dict)
    width: int = 12
    delta: bool = False

    def params(self, size: str, **overrides) -> SimpleNamespace:
        """The parameters of ``size`` with ``overrides`` applied; ``full``
        is set for every size but the demo's."""
        base = self.sizes[size]
        unknown = set(overrides) - set(base)
        if unknown:
            raise TypeError(f"{self.name}: unknown parameters "
                            f"{sorted(unknown)}; options: {sorted(base)}")
        return SimpleNamespace(**{**base, **overrides},
                               full=size != "demo")


@dataclass
class ScenarioRun:
    """A scenario's trained arms, its check's outcome and its report."""

    params: SimpleNamespace
    results: dict   # label -> RunResult
    counters: dict  # traced label -> counter snapshot
    active: dict    # label -> (active clients before, after) the run
    metrics: dict = field(default_factory=dict)
    ok: bool = False
    report: str = ""

    def payload(self) -> dict:
        """The JSON archive of the run: parameters, arm summaries, metrics."""
        arms = {label: {
            "worst_accuracy": float(_worst(res)),
            "average_accuracy": float(_average(res)),
            "traffic_bytes": int(res.comm.total_bytes),
            "sim_time_s": float(res.sim_time_s),
            "active_clients": list(self.active[label]),
            "counters": self.counters.get(label, {}),
        } for label, res in self.results.items()}
        return {"params": vars(self.params), "arms": arms,
                "metrics": self.metrics, "ok": self.ok}


def run_scenario(scenario: Scenario, size: str, **overrides) -> ScenarioRun:
    """Train every arm of ``scenario`` at ``size`` and check the outcome."""
    from repro.core.hierminimax import HierMinimax
    from repro.data.registry import make_federated_dataset
    from repro.nn.models import make_model_factory
    from repro.obs import Tracer

    p = scenario.params(size, **overrides)
    dataset = make_federated_dataset("emnist_digits", seed=p.seed,
                                     scale=p.scale)
    factory = make_model_factory("logistic", dataset.input_dim,
                                 dataset.num_classes)
    layout = scenario.layout(p, dataset)

    def active(algo) -> int:
        return (len(algo.membership.active) if algo.membership.enabled
                else dataset.num_clients)

    run = ScenarioRun(p, {}, {}, {})
    for label, args in layout.arms.items():
        args = {"cls": HierMinimax, **args}
        obs = Tracer(None) if label in layout.traced else None
        algo = args.pop("cls")(
            dataset, factory, batch_size=8, eta_w=p.eta_w, eta_p=2e-3,
            tau1=2, tau2=2, m_edges=5, seed=p.seed, obs=obs, **args)
        before = active(algo)
        run.results[label] = algo.run(rounds=p.rounds,
                                      eval_every=max(1, p.rounds // p.evals))
        run.active[label] = (before, active(algo))
        if obs is not None:
            run.counters[label] = obs.snapshot()["counters"]
    run.metrics, lines, run.ok = scenario.check(run, p)
    run.report = _report(scenario, layout, run, lines)
    return run


def _worst(result) -> float:
    return result.history.final().record.worst_accuracy


def _average(result) -> float:
    return result.history.final().record.average_accuracy


def _report(scenario: Scenario, layout: Layout, run: ScenarioRun,
            lines: list[str]) -> str:
    """Header, accuracy table, counter blocks and verdict lines."""
    pad = max(map(len, layout.info))
    out = [f"{key:<{pad}s} : {value}" for key, value in layout.info.items()]
    width = max(scenario.width, *map(len, run.results))
    out += ["", " ".join([" " * 24] + [f"{a:>{width}s}" for a in run.results]
                         + (["    delta"] if scenario.delta else []))]
    for label, value, fmt in (("worst edge accuracy", _worst, ".4f"),
                              ("average accuracy", _average, ".4f"),
                              *layout.rows):
        vals = [value(res) for res in run.results.values()]
        cells = [f"{v:{width}{fmt}}" for v in vals]
        if scenario.delta:
            cells.append(f"{vals[-1] - vals[0]:+9.4f}")
        out.append(" ".join([f"{label:<24s}"] + cells))
    title, keys = scenario.counters
    for label in layout.traced:
        snapshot = run.counters[label]
        key_width = max(28, 1 + max(map(len, keys)))
        out += ["", f"{title} counters ({label} run):"]
        out += [f"  {key:<{key_width}s} {snapshot[key]:g}"
                for key in keys if key in snapshot]
    return "\n".join(out + [""] + lines)


# --------------------------------------------------------------------------
# degradation: fault-free vs faulted
# --------------------------------------------------------------------------

def _degradation_layout(p, dataset) -> Layout:
    from repro.faults import FaultPlan

    return Layout(
        info={"dataset": dataset, "plan": p.faults},
        arms={"fault-free": {}, "faulted": {"faults": FaultPlan.parse(p.faults)}},
        traced=("faulted",))


def _degradation_check(run, p):
    clean, faulted = map(_worst, run.results.values())
    drop = clean - faulted
    ok = drop <= p.tolerance
    return {"worst_accuracy_drop": drop}, [
        f"worst-edge accuracy drop {drop:+.4f} "
        f"{'within' if ok else 'EXCEEDS'} tolerance {p.tolerance:.2f}"], ok


DEGRADATION = Scenario(
    "degradation", layout=_degradation_layout, check=_degradation_check,
    sizes={"demo": dict(scale="tiny", rounds=300, seed=0, evals=10,
                        eta_w=0.05, tolerance=0.10,
                        faults="client_dropout=0.2,seed=1")},
    counters=("fault", (
        "clients_dropped_total", "stragglers_total", "edge_outages_total",
        "messages_lost_total", "messages_corrupted_total", "retries_total",
        "stale_loss_fallbacks_total", "rounds_degraded",
        "quarantined_senders")),
    witness=("faulted", "clients_dropped_total"), delta=True)


# --------------------------------------------------------------------------
# byzantine: clean vs attacked under each defense
# --------------------------------------------------------------------------

def _attack_plans(p, dataset) -> dict:
    """Attack name -> FaultPlan; a spec without a roster gets ``fraction``'s
    deterministic one-per-area roster."""
    from repro.defense import AttackPlan, one_per_edge_roster
    from repro.faults import FaultPlan

    plans = {}
    for spec in p.attacks:
        attack = AttackPlan.parse(spec)
        if attack.fraction == 0.0 and not attack.clients:
            attack = replace(attack, clients=one_per_edge_roster(
                dataset, p.fraction))
        plans[attack.attack] = FaultPlan(byzantine=attack)
    return plans


def _attack_name(spec: str) -> str:
    from repro.defense import AttackPlan

    return AttackPlan.parse(spec).attack


def _cell(attack: str, defense: str, p) -> str:
    """An attacked arm's label: the defense's, prefixed by the attack's when
    the scenario runs several attacks."""
    return f"{attack} {defense}" if len(p.attacks) > 1 else defense


def _byzantine_layout(p, dataset) -> Layout:
    from repro.defense import resolve_defense

    plans = _attack_plans(p, dataset)
    policies = {label: resolve_defense(spec)
                for label, spec in p.defenses.items()}
    reference = next(iter(policies))
    arms = {"clean": {}}
    for attack, plan in plans.items():
        for label, policy in policies.items():
            arms[_cell(attack, label, p)] = {"faults": plan, "defense": policy}
    n = dataset.num_clients
    return Layout(
        info={"dataset": dataset,
              "attack": "; ".join(
                  f"{spec} ({len(plan.byzantine.roster(n))}/{n} clients "
                  f"byzantine)" for spec, plan in zip(p.attacks,
                                                      plans.values())),
              "defense": " | ".join(
                  policy.describe() if policy else "mean"
                  for label, policy in policies.items()
                  if label != reference)},
        arms=arms,
        traced=tuple(_cell(attack, label, p) for attack in plans
                     for label in policies if p.full or label != reference))


def _byzantine_check(run, p):
    """Per attack: the best robust defense holds the clean worst-edge
    accuracy within ``tolerance`` (strictly under ``full``).  The attack's metrics read the cell of
    its ``defended`` defense.  ``full`` also needs the undefended reference
    (the first defense) to collapse by more than 0.20, every attacked arm to
    see tampered uploads and some robust arm to filter."""
    clean = _worst(run.results["clean"])
    metrics, lines, ok = {"clean_worst_accuracy": clean}, [], True
    for attack in map(_attack_name, p.attacks):
        prefix = f"{attack}: " if len(p.attacks) > 1 else ""
        reference, *robust = (_cell(attack, label, p) for label in p.defenses)
        best = max(_worst(run.results[cell]) for cell in robust)
        drop = clean - best
        mean = _worst(run.results[reference])
        undefended = clean - mean
        within = best > clean - p.tolerance if p.full else drop <= p.tolerance
        ok = ok and within
        gated = _cell(attack, p.defended[attack], p)
        metrics[f"{attack}_defended_worst_accuracy"] = _worst(
            run.results[gated])
        lines.append(
            f"{prefix}defended worst-edge accuracy drop {drop:+.4f} "
            f"{'within' if within else 'EXCEEDS'} tolerance "
            f"{p.tolerance:.2f} (undefended drop {undefended:+.4f})")
        if not p.full:
            continue
        collapsed = mean < clean - 0.20
        ledger = (all(run.counters[cell].get("byzantine_attacks_total", 0) > 0
                      for cell in (reference, *robust))
                  and any(run.counters[cell].get("byzantine_filtered_total", 0)
                          > 0 for cell in robust))
        ok = ok and collapsed and ledger
        metrics[f"{attack}_attacks_injected"] = run.counters[gated].get(
            "byzantine_attacks_total", 0)
        metrics[f"{attack}_uploads_filtered"] = run.counters[gated].get(
            "byzantine_filtered_total", 0)
        lines.append(
            f"{prefix}undefended drop "
            f"{'beyond' if collapsed else 'NOT beyond'} the 0.20 collapse "
            f"bar; tampered uploads {'reach' if ledger else 'DO NOT reach'}"
            f" every attacked arm and a robust defense filters them")
    return metrics, lines, ok


#: The tuned per-tier defense: trim at the edge (where the adversary sits),
#: norm-clip at the cloud, clip the Phase-2 scores.
TUNED_DEFENSE = "edge=trimmed_mean,cloud=norm_clip,trim=0.34,loss_clip=2.0"

_BYZANTINE_BENCH = dict(
    scale="tiny", rounds=800, seed=0, evals=1, eta_w=0.05, tolerance=0.05,
    fraction=0.2,
    attacks=("sign_flip,scale=5.0", "loss_inflation,scale=50.0"),
    defenses={"mean": "mean", "median": "median",
              "trimmed_mean": "trimmed_mean,trim=0.34", "krum": "krum",
              "norm_clip": "norm_clip,loss_clip=2.0",
              "edge_trim+clip": TUNED_DEFENSE},
    # Each attack's strongest defense: the gated cell of its metrics.
    defended={"sign_flip": "edge_trim+clip", "loss_inflation": "norm_clip"})

BYZANTINE = Scenario(
    "byzantine", layout=_byzantine_layout, check=_byzantine_check,
    sizes={"demo": dict(scale="tiny", rounds=400, seed=0, evals=10,
                        eta_w=0.05, tolerance=0.05, fraction=0.2,
                        attacks=("sign_flip,scale=5",),
                        defenses={"attacked": None,
                                  "defended": TUNED_DEFENSE},
                        defended={"sign_flip": "defended"}),
           "tiny": _BYZANTINE_BENCH,
           "small": {**_BYZANTINE_BENCH, "scale": "small", "rounds": 2000,
                     "eta_w": 0.03}},
    counters=("byzantine", ("byzantine_attacks_total",
                            "byzantine_filtered_total",
                            "norm_guard_rejections_total")),
    witness=("defended", "byzantine_attacks_total"),
    flags={"attack": lambda spec: {
               "attacks": (spec,),
               "defended": {_attack_name(spec): "defended"}},
           "defense": lambda spec: {
               "defenses": {"attacked": None, "defended": spec}}},
    bench="byzantine",
    gated={"clean_worst_accuracy": "exact",
           "sign_flip_defended_worst_accuracy": "exact",
           "loss_inflation_defended_worst_accuracy": "exact",
           "sign_flip_attacks_injected": "counter",
           "sign_flip_uploads_filtered": "counter"},
    width=10)


# --------------------------------------------------------------------------
# timesim: sync vs semi-async on the virtual clock
# --------------------------------------------------------------------------

def _timesim_layout(p, dataset) -> Layout:
    from repro.core.semiasync import SemiAsyncHierMinimax

    arms = {"control": {}} if p.full else {}
    arms["sync"] = {"timing": p.cost_model}
    for label, staleness in p.staleness.items():
        arms[label] = {"cls": SemiAsyncHierMinimax, "staleness": staleness,
                       "timing": p.cost_model}
    return Layout(
        info={"dataset": dataset, "cost model": p.cost_model,
              "staleness": ", ".join(map(str, p.staleness.values()))},
        arms=arms,
        rows=(("simulated time (s)", lambda r: r.sim_time_s, ".4f"),))


def _timesim_check(run, p):
    """The headline semi-async arm (the first with ``staleness >= 1``)
    finishes sooner and first reaches the synchronous final worst-edge
    accuracy in less simulated time than sync takes; every ``staleness=0``
    arm reproduces sync exactly.  The first crossing is one evaluation; the
    report adds the time from which the arm holds the target for three
    (:func:`~repro.experiments.figures.sustained_crossing`), ungated.
    ``full`` also needs the clock-free control to match sync bit for bit."""
    import numpy as np

    from repro.experiments.figures import sustained_crossing

    sync = run.results["sync"]
    target = _worst(sync)
    label = next((label for label, s in p.staleness.items() if s),
                 next(iter(p.staleness)))
    staleness, head = p.staleness[label], run.results[label]
    reach = head.history.rounds_to_target(
        "worst_accuracy", target, comm_measure="sim_time_s")
    held = sustained_crossing(*head.history.series(
        "worst_accuracy", comm_measure="sim_time_s"), target)
    reach, held = (float("inf") if t is None else t for t in (reach, held))
    faster = head.sim_time_s < sync.sim_time_s
    reaches = reach < sync.sim_time_s
    speedup = (sync.sim_time_s / head.sim_time_s if head.sim_time_s > 0
               else float("inf"))
    metrics = {"sync_final_sim_s": sync.sim_time_s,
               "sync_final_worst_accuracy": target,
               f"semiasync_s{staleness}_final_sim_s": head.sim_time_s,
               f"semiasync_s{staleness}_time_to_sync_final_s": reach,
               f"semiasync_s{staleness}_sustained_time_to_sync_final_s": held}
    ok = staleness == 0 or (faster and reaches)
    lines = [f"semi-async {'is' if faster else 'is NOT'} faster "
             f"({speedup:.2f}x) and {'reaches' if reaches else 'does NOT reach'}"
             f" the synchronous final worst-edge accuracy {target:.4f} "
             f"before the synchronous {sync.sim_time_s:.4f} simulated s "
             f"(first evaluation at {reach:.4f} s, held for 3 evaluations "
             f"from {held:.4f} s)"
             + (" (vacuous: the synchronous final worst-edge accuracy is 0)"
                if target <= 0 else "")]
    for label, s in p.staleness.items():
        if s == 0:
            semi = run.results[label]
            exact = (semi.sim_time_s == sync.sim_time_s
                     and np.array_equal(semi.final_params, sync.final_params))
            ok = ok and exact
            lines.append(f"staleness=0 reproduction: "
                         f"{'exact' if exact else 'BROKEN'}")
    if p.full:
        unchanged = np.array_equal(run.results["control"].final_params,
                                   sync.final_params)
        ok = ok and unchanged
        lines.append(f"synchronous numerics "
                     f"{'unchanged' if unchanged else 'CHANGED'} by the "
                     f"virtual clock")
    return metrics, lines, ok


_TIMESIM_BENCH = dict(
    scale="tiny", rounds=400, seed=0, evals=20, eta_w=0.05,
    # One persistent 10x straggler (client 0) over mildly lognormal devices.
    cost_model="hetero,seed=1,device_sigma=0.3,slow_clients=0,slow_factor=10",
    staleness={"S=0": 0, "S=1": 1, "S=2": 2})

TIMESIM = Scenario(
    "timesim", layout=_timesim_layout, check=_timesim_check,
    sizes={"demo": dict(scale="tiny", rounds=40, seed=0, evals=10,
                        eta_w=0.05,
                        cost_model="hetero,seed=1,slow_fraction=0.1,"
                                   "slow_factor=10",
                        staleness={"semi-async": 1}),
           "tiny": _TIMESIM_BENCH,
           "small": {**_TIMESIM_BENCH, "scale": "small", "rounds": 1000}},
    flags={"staleness": lambda s: {"staleness": {"semi-async": s}}},
    bench="time_to_accuracy",
    gated={"sync_final_sim_s": "exact", "semiasync_s1_final_sim_s": "exact",
           "semiasync_s1_time_to_sync_final_s": "exact",
           "sync_final_worst_accuracy": "exact"})


# --------------------------------------------------------------------------
# churn: clean vs churned with and without failover
# --------------------------------------------------------------------------

def _churn_layout(p, dataset) -> Layout:
    from repro.membership import ChurnPlan

    plan = ChurnPlan.parse(p.churn)
    arms = {"clean": {}, "re-homed": {"churn": plan},
            "no-failover": {"churn": replace(plan, rehome=False)}}
    rows = [("total traffic (MB)", lambda r: r.comm.total_bytes / 1e6, ".2f")]
    if p.cost_model:
        rows.append(("simulated time (s)", lambda r: r.sim_time_s, ".3f"))
    return Layout(
        info={"dataset": dataset, "churn": p.churn},
        arms={label: {"timing": p.cost_model, **args}
              for label, args in arms.items()},
        traced=("re-homed",), rows=tuple(rows))


def _churn_check(run, p):
    """The membership ledger balances, and re-homing holds the worst-edge
    accuracy within ``tolerance`` of clean (strictly under ``full``) and at
    least at the no-failover arm's.  ``full`` also needs the campaign to have crashed edges, re-homed
    clients and handed state off, at strictly more traffic and simulated
    time than no-failover."""
    counters = run.counters["re-homed"]
    joined = int(counters.get("membership_joined_total", 0))
    left = int(counters.get("membership_left_total", 0))
    initial, final = run.active["re-homed"]
    balanced = joined - left == final - initial
    clean, rehomed, norehome = map(_worst, run.results.values())
    drop = clean - rehomed
    survives = rehomed >= norehome
    within = rehomed > clean - p.tolerance if p.full else drop <= p.tolerance
    ok = balanced and survives and within
    metrics = {
        "edge_crashes": counters.get("membership_edge_crashes_total", 0),
        "clients_rehomed": counters.get("membership_rehomed_total", 0),
        "clean_worst_accuracy": clean, "rehome_worst_accuracy": rehomed}
    lines = [f"ledger: {joined} joined - {left} left == {final} - {initial} "
             f"active ({'balanced' if balanced else 'IMBALANCED'})",
             f"re-homed worst-edge accuracy drop {drop:+.4f} "
             f"{'within' if within else 'EXCEEDS'} tolerance "
             f"{p.tolerance:.2f}; re-homing "
             f"{'recovers' if survives else 'DOES NOT recover'} the "
             f"no-failover accuracy ({rehomed:.4f} vs {norehome:.4f})"]
    if p.full:
        ran = all(counters.get(f"membership_{key}_total", 0) > 0
                  for key in ("edge_crashes", "rehomed", "handoffs"))
        healed, dark = run.results["re-homed"], run.results["no-failover"]
        costs = (healed.comm.total_bytes > dark.comm.total_bytes
                 and healed.sim_time_s > dark.sim_time_s)
        ok = ok and ran and costs
        lines.append(
            f"edge crashes, re-homes and handoffs "
            f"{'all happened' if ran else 'DID NOT all happen'}; "
            f"self-healing {'costs' if costs else 'DOES NOT cost'} more "
            f"traffic and simulated time than no-failover")
    return metrics, lines, ok


_CHURN_BENCH = dict(
    scale="tiny", rounds=300, seed=0, evals=1, eta_w=0.05, tolerance=0.15,
    cost_model="hetero,seed=1",
    # ~20% steady-state edge downtime: mttr / (mttf + mttr) = 0.2.
    churn="arrive=0.05,depart=0.02,edge_mttf=8,edge_mttr=2,seed=1")

CHURN = Scenario(
    "churn", layout=_churn_layout, check=_churn_check,
    sizes={"demo": {**_CHURN_BENCH, "rounds": 150, "evals": 10,
                    # A 20% per-round edge-crash campaign.
                    "churn": "arrive=0.05,depart=0.02,edge_mttf=5,"
                             "edge_mttr=4,seed=1"},
           "tiny": _CHURN_BENCH,
           "small": {**_CHURN_BENCH, "scale": "small", "rounds": 800}},
    counters=("membership", (
        "membership_joined_total", "membership_left_total",
        "membership_rehomed_total", "membership_edge_crashes_total",
        "membership_recovered_total", "membership_partitions_total",
        "membership_heals_total", "membership_handoffs_total")),
    witness=("re-homed", "membership_rehomed_total"), bench="churn",
    gated={"edge_crashes": "counter", "clients_rehomed": "counter",
           "clean_worst_accuracy": "exact", "rehome_worst_accuracy": "exact"})


#: Every scenario by its CLI subcommand.
SCENARIOS = {s.name: s for s in (DEGRADATION, BYZANTINE, TIMESIM, CHURN)}
