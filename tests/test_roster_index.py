"""The membership manager's edge -> homed-ids index against the scan it
replaced: over random churn (crashes with re-homing, partitions, joins with
adoption, leaves) every roster equals the ascending scan over all client ids,
also after a checkpoint round trip, which does not store the index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.membership import ChurnPlan, MembershipManager
from repro.sim.builder import build_edge_servers
from repro.utils.rng import RngFactory

from .conftest import make_blob_fed, round_context


def make_edges(fed):
    return build_edge_servers(fed, batch_size=4, rng_factory=RngFactory(0))


@pytest.mark.parametrize("seed", range(6))
def test_roster_index_matches_the_scan(seed):
    gen = np.random.default_rng(seed)
    fed = make_blob_fed(num_edges=4, clients_per_edge=5)
    plan = ChurnPlan(arrive=float(gen.uniform(0.05, 0.5)),
                     depart=float(gen.uniform(0.05, 0.5)),
                     edge_mttf=float(gen.uniform(1.5, 6)),
                     edge_mttr=float(gen.uniform(1.5, 6)),
                     link_mttf=float(gen.uniform(2, 8)),
                     seed=seed)

    def scan(mgr, eid):
        return [cid for cid in mgr._client_ids
                if cid in mgr.active and mgr.home.get(cid) == eid]

    mgr = MembershipManager(plan)
    mgr.bind(make_edges(fed))
    moved = 0
    for k in range(30):
        homes = dict(mgr.home)
        mgr.begin_round(round_context(round_index=k))
        moved += homes != mgr.home
        assert [mgr.roster_ids(e) for e in range(4)] == \
            [scan(mgr, e) for e in range(4)]
        state = mgr.state_dict()
        other = MembershipManager(plan)
        other.bind(make_edges(fed))
        other.load_state_dict(state)
        assert other.state_dict() == state
        assert [other.roster_ids(e) for e in range(4)] == \
            [scan(mgr, e) for e in range(4)]
    assert moved > 0
    assert sorted(mgr.state_dict()) == ["active", "edge_up", "home",
                                        "partitioned"]
