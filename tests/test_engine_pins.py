"""Pins on what every registry algorithm exposes and checkpoints.

The five methods share one round engine; these pins hold the surface that
sharing must not move, for each registry name:

* the keywords :func:`~repro.baselines.registry.make_algorithm` forwards to
  it (``_accepted_keywords``);
* the sha256 of its ``state_dict()`` after five rounds, under the composed
  robustness scenario of ``test_round_plumbing_golden`` and on a virtual
  population with faults and churn.  The digest covers every checkpoint
  key, so a checkpoint written before a change still loads after it, and a
  resumed run restores exactly that state;
* the names the end-to-end benchmark's ledger wraps: every target still
  resolves, and each baseline's ``run_round`` is its own attribute, not
  HierMinimax's inherited one, so a traced run wraps each round once.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from importlib import import_module
from pathlib import Path

import pytest

from repro.baselines.registry import ALGORITHMS, _accepted_keywords, \
    make_algorithm
from repro.core.hierminimax import HierMinimax
from repro.faults.plan import FaultPlan
from repro.metrics.history import history_state
from repro.nn.models import make_model_factory
from repro.population import PopulationSpec
from repro.utils.serialization import canonical_bytes

from .test_round_plumbing_golden import _scenario

_RUN = frozenset({"backend", "batch_size", "churn", "defense", "eta_w",
                  "faults", "logger", "obs", "population", "projection_w",
                  "seed", "timing"})

KEYWORDS = {
    "fedavg": _RUN | {"m_clients", "tau1", "weight_by_data"},
    "stochastic_afl": _RUN | {"eta_q", "m_clients", "projection_q"},
    "drfa": _RUN | {"eta_q", "m_clients", "projection_q", "tau1"},
    "hierfavg": _RUN | {"m_edges", "tau1", "tau2", "weight_by_data"},
    "hierminimax": _RUN | {"compressor", "eta_p", "m_edges", "projection_p",
                           "tau1", "tau2", "use_checkpoint"},
    "semiasync_hierminimax": _RUN | {"compressor", "eta_p", "m_edges",
                                     "projection_p", "staleness", "tau1",
                                     "tau2", "use_checkpoint"},
}

STATE_GOLDEN = {
    "fedavg":
        "69c49d04e0ff644afacecb9b3c37a28a7b5d186eae861816173d76a9aca87694",
    "stochastic_afl":
        "5bdeade6e48c9776408d372d86c34b877bcfde01b7264e9a0084a5ed1902c56b",
    "drfa":
        "3da2683faa84f8d85cb2685d12f6fc6632df05712179df3af3794d01aa4ca211",
    "hierfavg":
        "7d8e734eb0f60ad8279048832c5fcae183ba2260854ecac371fc1899ed06f972",
    "hierminimax":
        "77bb4a133e1006d33717575f599c71d4b4a7bcc16d71648e1db5dfcbf07856c6",
    "semiasync_hierminimax":
        "a5abce9b36da18eb532375b607dc098740108fd3e4e1190f5591a51ae9a65a4f",
}

POPULATION_STATE_GOLDEN = {
    "fedavg":
        "167952880c17bd103b2986c8613a81c0354998704b9d8033889e54c46b83902a",
    "stochastic_afl":
        "f12e6ff19550c3bb90ab0bf131cb29fde17a64645559e5835e987216494edab1",
    "drfa":
        "e5d5ca308ba75ffe64073d7e3e3c8abd7c07a86a28c829b686d206a45d341259",
    "hierfavg":
        "b69cf03048361f47607d6eff6b77c48728bb1d53a2d545ebe1c26e463c6b1ffb",
    "hierminimax":
        "24ddc064c49fda7a840a1b7310e0ab4f54fb1402cc664fb579268a88e1ed76b6",
    "semiasync_hierminimax":
        "0ca821ac723e82d2302e2cb084a2c13668a000172a37581baa1acc59dad1703e",
}

_HYPER = dict(tau1=2, tau2=2, eta_w=0.1, eta_p=0.05, batch_size=4, seed=0)


def _class_of(name: str) -> type:
    module, _, class_name = ALGORITHMS[name].partition(":")
    return getattr(import_module(module), class_name)


def _digest(algo) -> str:
    state = algo.state_dict()
    if state["history"] is None and algo._resume_history is not None:
        # A restored run holds its history aside until run() continues it.
        state["history"] = history_state(algo._resume_history)
    return hashlib.sha256(canonical_bytes(state)).hexdigest()


def test_registry_names_are_pinned():
    assert set(ALGORITHMS) == set(KEYWORDS) == set(STATE_GOLDEN)


@pytest.mark.parametrize("name", sorted(KEYWORDS))
def test_accepted_keywords(name):
    assert _accepted_keywords(_class_of(name)) == KEYWORDS[name]


@pytest.mark.parametrize("name", sorted(STATE_GOLDEN))
def test_state_dict_digest_and_resume(name, tiny_image_fed,
                                      tiny_logistic_factory, tmp_path):
    def build():
        return make_algorithm(name, tiny_image_fed, tiny_logistic_factory,
                              m_edges=5, backend="serial", **_HYPER,
                              **_scenario())

    path = tmp_path / "run.ckpt.json"
    with build() as algo:
        algo.run(rounds=5, eval_every=5, checkpoint_path=path,
                 checkpoint_every=5)
        assert _digest(algo) == STATE_GOLDEN[name], \
            f"{name}: the checkpoint state moved"
    with build() as resumed:
        assert resumed.load_checkpoint(path) == 5
        assert _digest(resumed) == STATE_GOLDEN[name], \
            f"{name}: a resumed run restores a different state"


@pytest.mark.parametrize("name", sorted(POPULATION_STATE_GOLDEN))
def test_virtual_population_state_dict_digest(name):
    spec = PopulationSpec.parse("clients=60,edges=6,samples=8,test=12,seed=3")
    factory = make_model_factory("logistic", spec.input_dim, spec.num_classes)
    with make_algorithm(
            name, spec, factory, m_edges=3, **_HYPER,
            faults=FaultPlan.parse("client_dropout=0.2,msg_loss=0.1,seed=5"),
            churn="arrive=0.05,depart=0.05,edge_mttf=5,edge_mttr=3,seed=1",
    ) as algo:
        algo.run(rounds=5, eval_every=5)
        assert _digest(algo) == POPULATION_STATE_GOLDEN[name], \
            f"{name}: the virtual-population checkpoint state moved"


def _ledger_module(monkeypatch):
    """``benchmarks/e2e/ledger.py``, imported read-only from its file."""
    path = (Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
            / "ledger.py")
    spec = importlib.util.spec_from_file_location("_e2e_ledger", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class body runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_ledger_targets_resolve_and_rounds_are_wrapped_once(monkeypatch):
    ledger = _ledger_module(monkeypatch)
    for target in ledger.TARGETS:
        owner = ledger._resolve(target)
        assert hasattr(owner, target.attr), target
    rounds = [t for t in ledger.TARGETS if t.attr == "run_round"]
    assert {t.owner for t in rounds} >= {"HierMinimax", "FedAvg", "DRFA",
                                         "StochasticAFL", "HierFAVG"}
    hm_round = vars(HierMinimax)["run_round"]
    for target in rounds:
        owner = ledger._resolve(target)
        assert "run_round" in vars(owner), \
            f"{target.owner}.run_round is inherited: a traced run wraps it twice"
        if owner is not HierMinimax:
            assert vars(owner)["run_round"] is not hm_round, target.owner
