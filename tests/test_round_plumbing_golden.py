"""Golden digests of every algorithm under one composed robustness scenario.

Each run stacks client dropouts and stragglers, edge outages, message loss
with retries, corruption with quarantine, the norm z-score guard, a
sign-flip adversary, robust aggregation at both tiers with a loss clip,
client and edge churn, and a heterogeneous cost model.  Each run has two
digests.  The model digest covers the final model and weights, the
simulated clock, the injector's quarantine and suspicion ledgers and the
tracer's counters, so any change to how a round trains, delivers, combines
or prices its uploads — at any tier, in any order — moves it.  The traffic
digest covers the communication tracker's snapshot (and so the tracer's
``edge_cloud_bytes``, its running twin): what the run billed to each link.
The serial and vectorized backends must reproduce the same bytes.
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


def _sha(payload: dict, *arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        if array is None:
            sha.update(b"none")
            continue
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    sha.update(json.dumps(payload, sort_keys=True).encode())
    return sha.hexdigest()


def _model_digest(result, algo) -> str:
    counters = {k: repr(float(v))
                for k, v in algo.obs.snapshot()["counters"].items()
                # Dispatch counters differ by backend by design; the
                # edge-cloud byte counter is traffic.
                if not k.startswith("exec_") and k != "edge_cloud_bytes"}
    return _sha({"sim_time_s": repr(float(result.sim_time_s)),
                 "quarantined": sorted(algo.faults.quarantined),
                 "suspicion": algo.faults.suspicion,
                 "counters": counters},
                result.final_params, result.final_weights)


def _traffic_digest(algo) -> str:
    snap = algo.tracker.snapshot()
    return _sha({"cycles": snap.cycles, "messages": snap.messages,
                 "floats": snap.floats,
                 "edge_cloud_bytes": repr(float(
                     algo.obs.snapshot()["counters"]["edge_cloud_bytes"]))})


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


# Model digests pin what a run computes, its simulated clock included: a
# change to what the tracker bills alone moves only the traffic digests, and
# the model digests move with it only where the clock prices the same change
# (an upload whose checkpoint equals its model is one model long on both).
MODEL_GOLDEN = {
    "fedavg":
        "dabbbaad2ab6f29d54c4880d736eb0aea594be38fd43c277f2eef9216758792a",
    "stochastic_afl":
        "b4bb5a68902aab5cb042bcd218407b9e11e8fb2ddd92c7bb4317d8a4dc47dc57",
    "drfa":
        "c0493d852720790d827590b8a26d45825441e790c0a2de05e026cc61bb685523",
    "hierfavg":
        "41477ed3344a643c9a058355af671ab5083b34e31ea57368a9da6dc123fd623a",
    "hierminimax":
        "8191268a184d8bf6521bfa38c9124ab241c69400e640651a52b237ac78cf4206",
    "semiasync_hierminimax":
        "42d9d91117948a8918aaff95ea785a006e3c1c4de6fa84dba30027504219d698",
    "multilevel_hierminimax":
        "ea265820e9a18502d60c947a64c18e31fde0789aa53ac70d96aa3ebf39c6cdc9",
    "hierminimax+qsgd16":
        "7abbc882fbdd0a13d633b68c6730ac1d1de190935818dd0201778b8a869b42ff",
    "hierminimax+topk0.25":
        "0ae3b3bb6e414842f98bc5bc622d434d6c1dbac6d3fdc39816edc6882d9f5cd6",
}

TRAFFIC_GOLDEN = {
    "fedavg":
        "4b7b9862dcfea2ddeecda8224f40ea564b929c98f6adf5d4379829afad392766",
    "stochastic_afl":
        "cd7938a845880f598799a27ecb00745786a2258223dd3ce3c4d05edffe542961",
    "drfa":
        "30ea5df227b302773bdea8cdbd898201bb57ae55bad4999d0ad66a596707fe13",
    "hierfavg":
        "273cb09a44dcfdf66123573df80b9bf3df66a2180dff7061baf23b9c1168e51e",
    "hierminimax":
        "284c9bd612f6498640ffd98b39b00e0579ba5d3f974f07424fe499b46a0bbe4d",
    "semiasync_hierminimax":
        "bd6115b0714852efec7aa064ae2bba7ad423e256160fb5ded8c47a97dff1b6a8",
    "multilevel_hierminimax":
        "58a51d515987e3f703904fb4af4cccea318c0123c6b86af9bf7e0e3821eca5c5",
    "hierminimax+qsgd16":
        "fea5365f1f059155666a4e5261b9f2328ff072268b59465ffecd4e3e59ff3b5a",
    "hierminimax+topk0.25":
        "edb75831d65143e60d76f559034aeb12181d9f42e6df4590e2ece61f4d7a4c74",
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


def _check_digests(key: str, result, algo) -> None:
    assert _model_digest(result, algo) == MODEL_GOLDEN[key], \
        f"{key}: the model, clock or ledgers moved"
    assert _traffic_digest(algo) == TRAFFIC_GOLDEN[key], \
        f"{key}: the billed traffic moved"


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
@pytest.mark.parametrize("name", ["fedavg", "stochastic_afl", "drfa",
                                  "hierfavg", "hierminimax",
                                  "semiasync_hierminimax"])
def test_registry_algorithm_golden(name, backend, tiny_image_fed,
                                   tiny_logistic_factory):
    algo, result = _run_registry(name, backend, tiny_image_fed,
                                 tiny_logistic_factory)
    _check_exercised(name, algo)
    _check_digests(name, result, algo)


def test_multilevel_golden():
    algo, result = _run_multilevel()
    _check_exercised("multilevel_hierminimax", algo)
    _check_digests("multilevel_hierminimax", result, algo)
    # Churn traffic (heartbeats, re-syncs, warm joins) goes on the tree's
    # own links, level_1 … level_L, like every other message of the run.
    snap = algo.tracker.snapshot()
    stray = {key: value for key, value in {**snap.messages,
                                           **snap.floats}.items()
             if key.startswith(("edge_cloud", "client_edge")) and value}
    assert not stray, f"billed off the tree's links: {stray}"
    assert not any(snap.cycles[link] for link in ("edge_cloud",
                                                  "client_edge"))


@pytest.mark.parametrize("key, compressor", [
    ("hierminimax+qsgd16", lambda: QSGDQuantizer(16)),
    ("hierminimax+topk0.25", lambda: TopKSparsifier(0.25)),
])
def test_compressed_hierminimax_golden(key, compressor, tiny_image_fed,
                                       tiny_logistic_factory):
    algo, result = _run_compressed(compressor(), tiny_image_fed,
                                   tiny_logistic_factory)
    _check_exercised(key, algo)
    _check_digests(key, result, algo)
