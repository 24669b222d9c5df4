"""Golden digests of multi-layer HierMinimax runs.

Each digest is a sha256 over a short run's final model, final weights,
communication snapshot and simulated elapsed time, for a depth-3 regular tree
and the four-layer tree of ``examples/multilayer_hierarchy.py``.  Every
fan-in and period here is a power of two, where the depth-L schedule's
arithmetic is exact enough that any refactor of the tree recursion must
reproduce these bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.multilayer import HierarchyTree, MultiLevelHierMinimax
from repro.nn.models import make_model_factory
from repro.population import as_population

from .conftest import make_blob_fed


def _regular_tree():
    # 2 top areas x 2 edges x 2 clients over a 2-area x 4-client dataset.
    return (HierarchyTree.regular([2, 2, 2]),
            make_blob_fed(num_edges=2, clients_per_edge=4, n_per_client=12,
                          dim=4, seed=1))


def _example_tree():
    # cloud -> 2 regions -> 4 edges each -> 2 clients each.
    tree = HierarchyTree([
        [[0, 1]],
        [[0, 1, 2, 3], [4, 5, 6, 7]],
        [[2 * e, 2 * e + 1] for e in range(8)],
    ])
    return tree, make_blob_fed(num_edges=8, clients_per_edge=2,
                               n_per_client=12, dim=4, seed=1)


_TREES = {"regular222": _regular_tree, "example4": _example_tree}

_RUNS = {
    "plain": {},
    "median": {"defense": "median"},
    "faults": {"faults": FaultPlan(client_dropout=0.2, client_straggle=0.2,
                                   edge_outage=0.1, seed=7)},
    "cost": {"timing": "hetero,seed=1,link_sigma=0.3,slow_clients=3"},
    "population": {},
}

# Recorded before the tree recursion was rebuilt on EdgeServer.  On the
# depth-3 regular tree every node has two children, so the median of two
# uploads is their mean and the ``median`` run pins the plain bytes.
GOLDEN = {
    ("example4", "cost"):
        "a648483a0183614796653f14ea8457a7770954709c8cac1046fbadd97731b627",
    ("example4", "faults"):
        "82ad61734d59b58aa39a3fa92173b203ad62b0bc41d8db1efd4dd25efb32325e",
    ("example4", "median"):
        "878032dda9e10897079e3523556c3b57313e289651b3e26ab810cda789fb48c0",
    ("example4", "plain"):
        "1837de8803f03518483e1609fe622d16f18058c5a9b69bb635f097812235025a",
    ("example4", "population"):
        "1837de8803f03518483e1609fe622d16f18058c5a9b69bb635f097812235025a",
    ("regular222", "cost"):
        "40fbcc5f1d35c5ebe8d4eab099e3323f0fd6cce401ac2875dfc015574cabaedc",
    ("regular222", "faults"):
        "132fb053f6219e172078b2b0d55af8de7d415a252449fa8834e992a2b974f4f4",
    ("regular222", "median"):
        "577c28b1725b42e2470f4fd4f0f06fe0130244ea36bd89f9b95a00f9679b5944",
    ("regular222", "plain"):
        "577c28b1725b42e2470f4fd4f0f06fe0130244ea36bd89f9b95a00f9679b5944",
    ("regular222", "population"):
        "577c28b1725b42e2470f4fd4f0f06fe0130244ea36bd89f9b95a00f9679b5944",
}


def _digest(result, algo) -> str:
    sha = hashlib.sha256()
    for array in (result.final_params, result.final_weights):
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    snap = algo.tracker.snapshot()
    sha.update(json.dumps({"cycles": snap.cycles, "messages": snap.messages,
                           "floats": snap.floats}, sort_keys=True).encode())
    sha.update(repr(float(algo.timing.elapsed_s)).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("tree_name,run_name", sorted(GOLDEN))
def test_multilayer_golden_digest(tree_name, run_name):
    tree, fed = _TREES[tree_name]()
    factory = make_model_factory("logistic", fed.input_dim, fed.num_classes)
    kwargs = dict(_RUNS[run_name])
    data = fed
    if run_name == "population":
        data, kwargs["population"] = None, as_population(fed)
    with MultiLevelHierMinimax(data, factory, tree=tree, taus=(2, 2, 2),
                               m_top=2, eta_w=0.1, eta_p=0.05, batch_size=4,
                               seed=0, **kwargs) as algo:
        result = algo.run(rounds=8, eval_every=8)
    assert _digest(result, algo) == GOLDEN[(tree_name, run_name)]
