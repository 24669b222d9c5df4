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
from repro.faults.checkpoint import load_checkpoint_file
from repro.faults.plan import FaultPlan
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

# The state's ``comm``, ``sim_time_s`` and ``history`` (whose points carry
# both) move with what uploads are billed and priced; a change to billing
# alone keeps every other key.
STATE_GOLDEN = {
    "fedavg":
        "aa6007d88d3d0ebb9eed126d056676221d86fdb552c0ad4a72ba3a0bfcdb2fdd",
    "stochastic_afl":
        "4482aea04e662a6f88f9c97f34483e7a6eb90d8c3dbd235f881e375c53d0bb89",
    "drfa":
        "48aab3f4fd1e8a27e9447841c17809cf6bbb90e353ca972520f7bf39805950f9",
    "hierfavg":
        "7d8e734eb0f60ad8279048832c5fcae183ba2260854ecac371fc1899ed06f972",
    "hierminimax":
        "0c1eed46b7cb1e25aa9320ead963baada791329ac6c024090b9317d5025ea4fd",
    "semiasync_hierminimax":
        "fdcf6ce460f25465707036d502d6df23226e9164b0d55484804e2ecc584bfedf",
}

POPULATION_STATE_GOLDEN = {
    "fedavg":
        "5a3bc498d7a627866d724379e80e402a8f8b2f00c4174fe7c259df9f1e3762e2",
    "stochastic_afl":
        "1172ebb492df992da0b5b53768058381e70a2936ed448b4ae7e83009017fdb87",
    "drfa":
        "a268b7ce75ab3ade3b1569ad13745b833881522f81ed0f5435037005ecc5b90e",
    "hierfavg":
        "b69cf03048361f47607d6eff6b77c48728bb1d53a2d545ebe1c26e463c6b1ffb",
    "hierminimax":
        "a4f44602c907dca6bba822f118d8cc07d387ab5650e22772b5d0cd6b88e5eda7",
    "semiasync_hierminimax":
        "0a9a446a4c1c4b4b65df8b56bf75fe8f8c395b3a6dc244d808653a951cea3f38",
}

_HYPER = dict(tau1=2, tau2=2, eta_w=0.1, eta_p=0.05, batch_size=4, seed=0)


def _class_of(name: str) -> type:
    module, _, class_name = ALGORITHMS[name].partition(":")
    return getattr(import_module(module), class_name)


def _digest(algo) -> str:
    return hashlib.sha256(canonical_bytes(algo.state_dict())).hexdigest()


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


@pytest.mark.parametrize("name", ["fedavg", "drfa", "hierminimax"])
def test_state_dict_after_restore_is_the_saved_state(name, tiny_image_fed,
                                                     tiny_logistic_factory,
                                                     tmp_path):
    # A restored run that has not run since checkpoints what it restored,
    # its evaluation history included.
    def build():
        return make_algorithm(name, tiny_image_fed, tiny_logistic_factory,
                              m_edges=5, backend="serial", **_HYPER,
                              **_scenario())

    path = tmp_path / "run.ckpt.json"
    with build() as algo:
        algo.run(rounds=3, eval_every=1, checkpoint_path=path,
                 checkpoint_every=3)
    saved = load_checkpoint_file(path)
    saved.pop("format")
    assert saved["history"] is not None
    with build() as resumed:
        resumed.load_checkpoint(path)
        assert canonical_bytes(resumed.state_dict()) == canonical_bytes(saved)


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
