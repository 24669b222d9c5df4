"""Named federated-dataset builders mirroring the paper's §6 setups.

Every experiment in the paper is reproduced from one of the named layouts below via
:func:`make_federated_dataset`.  Two size scales are provided:

* ``"paper"`` — 28×28 images, dataset sizes comparable to the real corpora's
  per-round footprint;
* ``"small"`` — 12×12 images and reduced pools, preserving the experiments'
  structure (same edge/client topology and heterogeneity) at laptop/CI cost.

The topology knobs (``num_edges``, ``clients_per_edge``) default to the paper's
values and can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import FederatedDataset
from repro.data.partition import (
    federated_from_group_pools,
    partition_one_class_per_edge,
    partition_similarity,
)
from repro.data.synthetic_images import make_image_dataset
from repro.utils.rng import as_generator

__all__ = ["DATASET_NAMES", "ScaleSpec", "SCALES", "make_federated_dataset"]

DATASET_NAMES = ("emnist_digits", "fashion_mnist", "mnist", "adult", "synthetic")


@dataclass(frozen=True)
class ScaleSpec:
    """Size knobs for one scale tier."""

    side: int            # image side length
    train_per_class: int  # pooled training samples per class (image datasets)
    test_per_class: int   # pooled test samples per class (image datasets)
    adult_train_per_group: int
    adult_test_per_group: int
    synthetic_devices: int


SCALES: dict[str, ScaleSpec] = {
    "paper": ScaleSpec(side=28, train_per_class=600, test_per_class=200,
                       adult_train_per_group=2000, adult_test_per_group=500,
                       synthetic_devices=100),
    "small": ScaleSpec(side=12, train_per_class=120, test_per_class=120,
                       adult_train_per_group=400, adult_test_per_group=150,
                       synthetic_devices=20),
    "tiny": ScaleSpec(side=8, train_per_class=45, test_per_class=30,
                      adult_train_per_group=120, adult_test_per_group=60,
                      synthetic_devices=8),
}

_IMAGE_FAMILIES = {
    "emnist_digits": "emnist_digits_like",
    "fashion_mnist": "fashion_mnist_like",
    "mnist": "mnist_like",
}


def make_federated_dataset(name: str, *,
                           seed: int | np.random.Generator = 0,
                           scale: str = "small",
                           num_edges: int | None = None,
                           clients_per_edge: int | None = None,
                           partition: str | None = None,
                           similarity: float = 0.5) -> FederatedDataset:
    """Build one of the paper's federated layouts by name.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES`.
    seed:
        Root seed or generator for all sampling.
    scale:
        ``"paper"``, ``"small"``, or ``"tiny"`` (see :data:`SCALES`).
    num_edges, clients_per_edge:
        Topology overrides; defaults are the paper's (10 edges × 3 clients for the
        image datasets, 2 edges for Adult, ``scale.synthetic_devices`` for
        Synthetic).
    partition:
        For the image datasets: ``"one_class"`` (default, §6.1 / Table 2) or
        ``"similarity"`` (§6.2); ignored for Adult/Synthetic.
    similarity:
        The ``s`` of the similarity partition (paper presents s = 0.5).
    """
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}; options: {DATASET_NAMES}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; options: {sorted(SCALES)}")
    sizes = SCALES[scale]
    rng = as_generator(seed)

    if name in _IMAGE_FAMILIES:
        family = _IMAGE_FAMILIES[name]
        edges = num_edges if num_edges is not None else 10
        per_edge = clients_per_edge if clients_per_edge is not None else 3
        train_pool = make_image_dataset(family, sizes.train_per_class, rng,
                                        side=sizes.side)
        test_pool = make_image_dataset(family, sizes.test_per_class, rng,
                                       side=sizes.side)
        mode = partition if partition is not None else "one_class"
        if mode == "one_class":
            fed = partition_one_class_per_edge(
                train_pool, test_pool, num_edges=edges, clients_per_edge=per_edge,
                rng=rng)
        elif mode == "similarity":
            fed = partition_similarity(
                train_pool, test_pool, num_edges=edges, clients_per_edge=per_edge,
                similarity=similarity, rng=rng)
        else:
            raise ValueError(f"unknown partition {mode!r}; "
                             "options: 'one_class', 'similarity'")
        fed.name = f"{name}[{scale},{mode}]"
        return fed

    if name == "adult":
        from repro.data.adult import AdultLikeSpec, make_adult_groups

        per_edge = clients_per_edge if clients_per_edge is not None else 3
        trains, tests = make_adult_groups(
            sizes.adult_train_per_group, sizes.adult_test_per_group, rng,
            spec=AdultLikeSpec())
        fed = federated_from_group_pools(trains, tests, clients_per_edge=per_edge,
                                         rng=rng, name=f"adult[{scale}]")
        return fed

    # name == "synthetic"
    from repro.data.synthetic_fl import SyntheticFLSpec, generate_synthetic_fl

    devices = num_edges if num_edges is not None else sizes.synthetic_devices
    per_edge = clients_per_edge if clients_per_edge is not None else 1
    spec = SyntheticFLSpec(num_devices=devices)
    trains, tests = generate_synthetic_fl(spec, rng)
    fed = federated_from_group_pools(trains, tests, clients_per_edge=per_edge,
                                     rng=rng, name=f"synthetic[{scale}]")
    return fed
