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


# Model digests pin what a run computes and must not move for a change to
# what the tracker bills; only traffic digests may be re-recorded for one.
MODEL_GOLDEN = {
    "fedavg":
        "eeeb66190272260970d914c89b9204965779640c5e2dafe82294a4a0261ea2c0",
    "stochastic_afl":
        "58f8c63ea550b00256eb3219c0c200ae1de65072b903ee29d62a6b16d33b59d2",
    "drfa":
        "2a10285c09c056d7f54245275e2f1a0ae797bc19dacdc9f0b5ef653759aaac7f",
    "hierfavg":
        "41477ed3344a643c9a058355af671ab5083b34e31ea57368a9da6dc123fd623a",
    "hierminimax":
        "6f668e08cd99df38de9e365dcd11959907ed46f9a2a501281fcecf38ed30d55e",
    "semiasync_hierminimax":
        "42d9d91117948a8918aaff95ea785a006e3c1c4de6fa84dba30027504219d698",
    "multilevel_hierminimax":
        "f21ad2e83ab986b93080ed9b6cc9509204b947239af6e7bf0493a9df06290fc4",
    "hierminimax+qsgd16":
        "7abbc882fbdd0a13d633b68c6730ac1d1de190935818dd0201778b8a869b42ff",
    "hierminimax+topk0.25":
        "0ae3b3bb6e414842f98bc5bc622d434d6c1dbac6d3fdc39816edc6882d9f5cd6",
}

TRAFFIC_GOLDEN = {
    "fedavg":
        "c40ca4cd6d0e92fc0e5904c74c36586fedd12e32de332888b5d7c4d5a067670f",
    "stochastic_afl":
        "e89362dbac6ec3d9d30720d81f9b11ae8f2fac0f0ee2d1b35fde34231d1deafd",
    "drfa":
        "36c51cdd4ca39f8dc55671a6993a8d68aab0466869cdad18e26a2defe93979ce",
    "hierfavg":
        "273cb09a44dcfdf66123573df80b9bf3df66a2180dff7061baf23b9c1168e51e",
    "hierminimax":
        "fd3203239d6efbefd75b2c17622c36111d9a398e8eabe6018ed1569a16e557e3",
    "semiasync_hierminimax":
        "6405ca273e3c7ca01ea56c7481eb515dc7eaa536ad8391da75b964961000bab9",
    "multilevel_hierminimax":
        "a2d3bdfe50ee491e279dc404511eba60619f236a84c870c9e6b35a424544e13c",
    "hierminimax+qsgd16":
        "fea5365f1f059155666a4e5261b9f2328ff072268b59465ffecd4e3e59ff3b5a",
    "hierminimax+topk0.25":
        "b30771de4090049da590534c7d7242d5e915e9f4bcb6dc516deb47fc2925813e",
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
