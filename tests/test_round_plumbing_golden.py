"""Golden digests of every algorithm under one composed robustness scenario.

Each run stacks client dropouts and stragglers, edge outages, message loss
with retries, corruption with quarantine, the norm z-score guard, a
sign-flip adversary, robust aggregation at both tiers with a loss clip,
client and edge churn, and a heterogeneous cost model.  The digest covers
the final model and weights, the communication snapshot, the simulated
clock, the injector's quarantine and suspicion ledgers and the tracer's
counters, so any change to how a round trains, delivers, combines or
prices its uploads — at any tier, in any order — moves it.  The serial and
vectorized backends must reproduce the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.registry import make_algorithm
from repro.compression import QSGDQuantizer, TopKSparsifier
from repro.core.hierminimax import HierMinimax
from repro.defense.attacks import AttackPlan
from repro.faults.plan import FaultPlan
from repro.multilayer import MultiLevelHierMinimax
from repro.nn.models import make_model_factory
from repro.obs import Tracer

from .test_multilayer_golden import _example_tree

ROUNDS = 10


def _scenario() -> dict:
    plan = FaultPlan.parse("client_dropout=0.15,client_straggle=0.2,"
                           "edge_outage=0.1,msg_loss=0.1,msg_corrupt=0.02,"
                           "guard_zscore=3,seed=3")
    plan = replace(plan, byzantine=AttackPlan.parse(
        "sign_flip,clients=0|7,scale=5"))
    return {"faults": plan,
            "defense": "edge=trimmed_mean,cloud=norm_clip,trim=0.34,"
                       "loss_clip=2.0",
            "churn": "arrive=0.05,depart=0.05,edge_mttf=5,edge_mttr=3,seed=1",
            "timing": "hetero,seed=1",
            "obs": Tracer()}


def _digest(result, algo) -> str:
    sha = hashlib.sha256()
    for array in (result.final_params, result.final_weights):
        if array is None:
            sha.update(b"none")
            continue
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    snap = algo.tracker.snapshot()
    counters = {k: repr(float(v))
                for k, v in algo.obs.snapshot()["counters"].items()
                # Dispatch counters differ by backend by design.
                if not k.startswith("exec_")}
    sha.update(json.dumps({
        "cycles": snap.cycles, "messages": snap.messages,
        "floats": snap.floats,
        "sim_time_s": repr(float(result.sim_time_s)),
        "quarantined": sorted(algo.faults.quarantined),
        "suspicion": algo.faults.suspicion,
        "counters": counters}, sort_keys=True).encode())
    return sha.hexdigest()


def _run_registry(name: str, backend: str, fed, factory):
    algo = make_algorithm(name, fed, factory, tau1=2, tau2=2, m_edges=5,
                          eta_w=0.1, eta_p=0.05, batch_size=4, seed=0,
                          backend=backend, **_scenario())
    with algo:
        return algo, algo.run(rounds=ROUNDS, eval_every=ROUNDS)


def _run_multilevel():
    tree, fed = _example_tree()
    factory = make_model_factory("logistic", fed.input_dim, fed.num_classes)
    with MultiLevelHierMinimax(fed, factory, tree=tree, taus=(2, 2, 2),
                               m_top=2, eta_w=0.1, eta_p=0.05, batch_size=4,
                               seed=0, **_scenario()) as algo:
        return algo, algo.run(rounds=ROUNDS, eval_every=ROUNDS)


def _run_compressed(compressor, fed, factory):
    with HierMinimax(fed, factory, tau1=2, tau2=2, m_edges=5, eta_w=0.1,
                     eta_p=0.05, batch_size=4, seed=0, compressor=compressor,
                     **_scenario()) as algo:
        return algo, algo.run(rounds=ROUNDS, eval_every=ROUNDS)


# Recorded before the round's training, delivery and combining were written
# once for every tier.
GOLDEN = {
    "fedavg":
        "169a967600f0c57adcd7256dcfeece24300e60b9edebf5f1f0da9ae1e8d5f504",
    "stochastic_afl":
        "cce2ea4af0bc04b276381919b33f51e21e65b4aa0b89d0a270a776a8b073309b",
    "drfa":
        "703bece9b87f824302fe592f10551925996b4a3a512e2717dcd2be68e83de4b3",
    "hierfavg":
        "765a8bd7a0167a23d69efbcda96167415cb85a81a9e78e8b05884cf479503821",
    "hierminimax":
        "ea9d40af6435fa159382f9374e732c3bc34129e2db315eb553624c5996227e37",
    "semiasync_hierminimax":
        "731f12226a58d2f6730f2f0c927632980c755595195e321f151738409e719aa2",
    "multilevel_hierminimax":
        "60d25945a331e1e5fa4ec5ada7ab6ca29e0abb622a9d6c0a90dd08094f6ab129",
    "hierminimax+qsgd16":
        "95407ae8c58c2e0a3ee8001133480b2553d2dffe719588c321d82915b976bd20",
    "hierminimax+topk0.25":
        "17ae178ff2eaa83f1593a975cb1e9f907e586fc81a51c8df74a147c6e419d4e7",
}

_PHASE2 = {"stochastic_afl", "drfa", "hierminimax", "semiasync_hierminimax",
           "multilevel_hierminimax", "hierminimax+qsgd16",
           "hierminimax+topk0.25"}
_HIERARCHICAL = _PHASE2 - {"stochastic_afl", "drfa"} | {"hierfavg"}


def _check_exercised(key: str, algo) -> None:
    counters = algo.obs.snapshot()["counters"]
    required = ["clients_dropped_total", "retries_total",
                "messages_corrupted_total", "quarantined_senders",
                "byzantine_attacks_total", "byzantine_filtered_total"]
    if key in _PHASE2:
        required.append("stale_loss_fallbacks_total")
    missing = [k for k in required if not counters.get(k)]
    assert not missing, f"{key}: scenario never drew {missing}"
    if key in _HIERARCHICAL:
        assert (counters.get("membership_rehomed_total")
                or counters.get("membership_edge_crashes_total")), \
            f"{key}: no re-homing or edge crash"


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
@pytest.mark.parametrize("name", ["fedavg", "stochastic_afl", "drfa",
                                  "hierfavg", "hierminimax",
                                  "semiasync_hierminimax"])
def test_registry_algorithm_golden(name, backend, tiny_image_fed,
                                   tiny_logistic_factory):
    algo, result = _run_registry(name, backend, tiny_image_fed,
                                 tiny_logistic_factory)
    _check_exercised(name, algo)
    assert _digest(result, algo) == GOLDEN[name]


def test_multilevel_golden():
    algo, result = _run_multilevel()
    _check_exercised("multilevel_hierminimax", algo)
    assert _digest(result, algo) == GOLDEN["multilevel_hierminimax"]


@pytest.mark.parametrize("key, compressor", [
    ("hierminimax+qsgd16", lambda: QSGDQuantizer(16)),
    ("hierminimax+topk0.25", lambda: TopKSparsifier(0.25)),
])
def test_compressed_hierminimax_golden(key, compressor, tiny_image_fed,
                                       tiny_logistic_factory):
    algo, result = _run_compressed(compressor(), tiny_image_fed,
                                   tiny_logistic_factory)
    _check_exercised(key, algo)
    assert _digest(result, algo) == GOLDEN[key]
