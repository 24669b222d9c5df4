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

# Recorded before the tree recursion was rebuilt on EdgeServer, then again
# when an upload whose checkpoint equals its model came to be billed and
# priced as one model (only the ``level_*:up`` floats and the ``cost`` runs'
# clocks moved).  On the depth-3 regular tree every node has two children,
# so the median of two uploads is their mean and the ``median`` run pins
# the plain bytes.
GOLDEN = {
    ("example4", "cost"):
        "820cde1bee4c89e4bc5a66c37e60687cceaefd04722332110c01d1edaad26903",
    ("example4", "faults"):
        "76a56c94d747e05a08e46323615f013b70c72658996c4fc5ec1830bb8db5f999",
    ("example4", "median"):
        "061046db24b501ccd4334b979cfd74fca7f8db3b76ba32e2b9694c2774785693",
    ("example4", "plain"):
        "da5d4e258de47b027b22fc214e3de8870424fc48c695467f900df1e7c1be5cbc",
    ("example4", "population"):
        "da5d4e258de47b027b22fc214e3de8870424fc48c695467f900df1e7c1be5cbc",
    ("regular222", "cost"):
        "f16b3c4afd228a9166c082997605f6ce53e2f1350caffec0a2781bfb70955d01",
    ("regular222", "faults"):
        "856bef4b989f70523d6e6ab27506e3a12021833211d9afed10aacbb50ef08a02",
    ("regular222", "median"):
        "99883f8d123bcc55b571901f92434a1d404c478cc4f82aa20706aab51e350743",
    ("regular222", "plain"):
        "99883f8d123bcc55b571901f92434a1d404c478cc4f82aa20706aab51e350743",
    ("regular222", "population"):
        "99883f8d123bcc55b571901f92434a1d404c478cc4f82aa20706aab51e350743",
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
