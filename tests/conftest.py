"""Shared fixtures: tiny federated datasets, model factories, RNGs.

Fixtures are deliberately small (8×8 images, few samples) so the full suite runs
in seconds; the paper-shape assertions live in the benchmarks, not here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset, EdgeAreaData, FederatedDataset
from repro.data.registry import make_federated_dataset
from repro.exec.serial import SERIAL_BACKEND
from repro.faults import FaultInjector, FaultPlan
from repro.nn.models import logistic_regression, make_model_factory
from repro.obs import NULL_TRACER
from repro.ops.projections import identity_projection
from repro.sim.edge import RoundContext
from repro.simtime import NULL_TIMING
from repro.topology.comm import CommunicationTracker


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_image_fed() -> FederatedDataset:
    """10 edges × 3 clients, 8×8 EMNIST-like images, one class per edge."""
    return make_federated_dataset("emnist_digits", scale="tiny", seed=7)


@pytest.fixture(scope="session")
def tiny_logistic_factory(tiny_image_fed):
    return make_model_factory("logistic", tiny_image_fed.input_dim,
                              tiny_image_fed.num_classes)


@pytest.fixture(scope="session")
def tiny_mlp_factory(tiny_image_fed):
    return make_model_factory("mlp", tiny_image_fed.input_dim,
                              tiny_image_fed.num_classes, hidden=(16,))


def make_blob_dataset(n_per_class: int, num_classes: int, dim: int,
                      seed: int = 0, separation: float = 3.0) -> Dataset:
    """Well-separated Gaussian blobs — an easy, fast classification task."""
    gen = np.random.default_rng(seed)
    centers = separation * gen.normal(size=(num_classes, dim))
    X = np.concatenate([centers[c] + gen.normal(size=(n_per_class, dim))
                        for c in range(num_classes)])
    y = np.repeat(np.arange(num_classes), n_per_class)
    return Dataset(X, y, num_classes)


def make_blob_fed(num_edges: int = 3, clients_per_edge: int = 2,
                  n_per_client: int = 12, dim: int = 5, seed: int = 0,
                  ) -> FederatedDataset:
    """A tiny heterogeneous federated layout over Gaussian blobs.

    Edge ``e`` holds classes ``{e}`` only (one-class-per-edge heterogeneity) with
    ``num_edges`` classes overall.
    """
    gen = np.random.default_rng(seed)
    centers = 3.0 * gen.normal(size=(num_edges, dim))
    edges = []
    for e in range(num_edges):
        clients = []
        for _ in range(clients_per_edge):
            X = centers[e] + gen.normal(size=(n_per_client, dim))
            y = np.full(n_per_client, e, dtype=np.int64)
            clients.append(Dataset(X, y, num_edges))
        X_test = centers[e] + gen.normal(size=(n_per_client, dim))
        test = Dataset(X_test, np.full(n_per_client, e, dtype=np.int64), num_edges)
        edges.append(EdgeAreaData(clients, test, name=f"blob{e}"))
    return FederatedDataset(edges, name="blobs")


@pytest.fixture()
def blob_fed() -> FederatedDataset:
    return make_blob_fed()


@pytest.fixture()
def blob_factory(blob_fed):
    return make_model_factory("logistic", blob_fed.input_dim, blob_fed.num_classes)


def round_context(engine=None, **fields) -> RoundContext:
    """A :class:`~repro.sim.edge.RoundContext` for calling a leg directly.

    Round 0, ``lr=0.1``, the identity projection, the serial backend, a
    fresh tracker, a disabled injector, the no-op tracer and clock, no
    defense and no compression, unless ``fields`` names its own; ``engine``
    defaults to a 4-feature, 3-class logistic model.
    """
    defaults = dict(
        round_index=0,
        engine=engine if engine is not None else logistic_regression(
            4, 3, rng=0),
        lr=0.1, projection=identity_projection, backend=SERIAL_BACKEND,
        tracker=CommunicationTracker(),
        faults=FaultInjector(FaultPlan.none()), obs=NULL_TRACER,
        timing=NULL_TIMING, edge_agg=None, cloud_agg=None, loss_clip=None,
        compressor=None, comp_rng=None)
    return RoundContext(**{**defaults, **fields})
