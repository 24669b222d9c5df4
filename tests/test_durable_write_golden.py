"""Golden byte pins for every durable file the runtime writes.

The checkpoint writer and the store's shard-file writer share one durable-write
primitive (:func:`repro.utils.serialization.durable_write`).  These digests pin
the exact bytes on disk: a short faulted HierMinimax run's checkpoint and its
``.prev`` generation after a second save, and every shard file (current and
``.prev``) of a virtual-population run saved with ``checkpoint_shard_dir``.
Any change to the JSON layout, the CRC envelope, the shard
``{"crc32", "entries"}`` document or the rotation law fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.hierminimax import HierMinimax
from repro.faults.checkpoint import previous_checkpoint_path
from repro.faults.plan import FaultPlan
from repro.nn.models import make_model_factory
from repro.population.spec import PopulationSpec

from .conftest import make_blob_fed

# sha256 of each file, keyed by its name relative to the run directory.
_FAULTED_DIGESTS = {
    "ckpt.json":
        "545deac412a4e30fccab312f356cb3e5fa479afec33bff67f54f97cca7649bed",
    "ckpt.json.prev":
        "80bd2978df6b5652d527196c23476c4fe656c226d8f01b8db5789d4ba1f7a952",
}

_POPULATION_DIGESTS = {
    "ckpt.json":
        "9372013d541f298f2671c5cee00a4cd8709c4a64bf6ec6ada1321a3bf408ccbe",
    "ckpt.json.prev":
        "b458a4f87b5b78f699ed491d34c9de74efd47713c84b544eb7381a6452e20d38",
    "shards/shard-00000.json":
        "8e743c920bdca2b5a35ab370ed3a0e2b5889c799341d81a16a61651628e09e97",
    "shards/shard-00000.json.prev":
        "3f06bd9784dbe73155369632a1d461760650058b8b5ae01dd43d356441af7b34",
    "shards/shard-00001.json":
        "ad2988d622400ca6a00fd45521086e2f70a78bbd7286f93966422754842041a7",
    "shards/shard-00001.json.prev":
        "393ae2ab41905bf8949ec16a91253115ece85227ad70053203179ce45b685456",
    "shards/shard-00002.json":
        "34223857d241cf252ebdf696720a0c33555f9f098efee94da4d888cea0d1e857",
    "shards/shard-00002.json.prev":
        "02338a474dec2df1c109230a9a4e73c92d82095dae49e8552a0fbba463966856",
    "shards/shard-00003.json":
        "58c5ff3122244b858b3ead9f046473f8c08e9dabd2614737d46eeaf2b6431a42",
    "shards/shard-00003.json.prev":
        "f72c346a298a72fa9963a31440dbc7118d77be83ef604b485ec053a49a6f4087",
    "shards/shard-00004.json":
        "b715d31f0df0d966b3c0a763d2f10906a726ef53e272516498bad89e58e0c76c",
    "shards/shard-00004.json.prev":
        "56b6f2dd1ddd6d770cc77be6865b2055dc8544cb223474fe21c507a73bed49d5",
    "shards/shard-00005.json":
        "03932c9d5b92a4586f87980fd954bb42aa822df2755b3a7ac83c7b48e3e8d28c",
    "shards/shard-00005.json.prev":
        "0ec56d3e6d7675df87ca3eb345efc0a5bbcf0506053c37b7152bb0b872160043",
    "shards/shard-00006.json":
        "04a3e528f98e1b4369dbae3b75bb670b8585384a763dbf7852bd42177ba78217",
    "shards/shard-00006.json.prev":
        "4f855db614f0b8e9dccf1d6fbf1c82d301186c007e4a67ebfc0c450ef1b169fd",
    "shards/shard-00007.json":
        "d9124314ddd9505ef01d19773ab5f13cbc573a5b264062989baeead278aa755a",
    "shards/shard-00007.json.prev":
        "a3bcea2212d3c63f5c34308125c7f417df47ee29f57ad0cf5869606e7ad4a54f",
    "shards/shard-00008.json":
        "f4199c36e91b2396b1e4990ecceaf2c37dca1f4fc1ef4c4063e0f5d4d6abd365",
    "shards/shard-00008.json.prev":
        "6fd8535e82401a67181a074b257d916939332db8d2c7e070392e598c0b9b67ae",
    "shards/shard-00009.json":
        "93573502e07e5e8f51923e44e0c51606ad854774e95a4be1ccecf5cbaf90d58b",
    "shards/shard-00009.json.prev":
        "186b438f6beff3b086ac4cfb8ade1830dc81a3496c4dc0d21a336b7476609f17",
    "shards/shard-00010.json":
        "c2ea4172204657da9960a590a398a2ec6460059f58f4e79111494ede07959865",
    "shards/shard-00010.json.prev":
        "11013bd31ed585bf6b839b8be616ee3e36a3dcef9d9225a4b7856d05689b1a8d",
    "shards/shard-00011.json":
        "ce2843b556249305fcc1a152215202b37030baa9ebb84e0afa13d07a3c0f7782",
    "shards/shard-00011.json.prev":
        "5ba9371ee0691b4a0d4bd9a92caf87d611dc98e0d31ebc75efdd88775d645062",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(root) -> dict[str, str]:
    return {str(p.relative_to(root)): _sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_faulted_checkpoint_and_prev_bytes(tmp_path):
    fed = make_blob_fed()
    factory = make_model_factory("logistic", fed.input_dim, fed.num_classes)
    faults = FaultPlan(client_dropout=0.2, msg_loss=0.2, edge_outage=0.1,
                       seed=1)
    path = tmp_path / "ckpt.json"
    with HierMinimax(fed, factory, batch_size=4, eta_w=0.1, eta_p=0.05,
                     tau1=2, tau2=2, m_edges=2, seed=0,
                     faults=faults) as algo:
        algo.run(rounds=4, eval_every=2, checkpoint_path=path,
                 checkpoint_every=2)
    assert previous_checkpoint_path(path).exists()
    assert _digests(tmp_path) == _FAULTED_DIGESTS


def test_population_shard_file_bytes(tmp_path):
    spec = PopulationSpec(num_edges=4, clients_per_edge=3,
                          samples_per_client=16, test_per_edge=16, dim=16,
                          num_classes=10, seed=100)
    factory = make_model_factory("logistic", spec.input_dim, spec.num_classes)
    with HierMinimax(spec, factory, tau1=2, tau2=2, m_edges=3, eta_w=0.05,
                     eta_p=2e-3, batch_size=8, seed=3) as algo:
        algo.run(rounds=4, eval_every=2, checkpoint_path=tmp_path / "ckpt.json",
                 checkpoint_every=2, checkpoint_shard_dir=tmp_path / "shards")
    digests = _digests(tmp_path)
    assert any(name.startswith("shards/shard-") and name.endswith(".prev")
               for name in digests)
    assert digests == _POPULATION_DIGESTS
