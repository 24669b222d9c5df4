"""Dataset containers for federated simulation.

:class:`Dataset` is an immutable-by-convention (features, labels) pair.
:class:`EdgeAreaData` groups the client shards and the test set of one edge area —
the paper assumes all clients in an edge area share a distribution (§3), so the test
set lives at the edge-area level.  :class:`FederatedDataset` is the full three-layer
data layout consumed by every algorithm in this library.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["Dataset", "EdgeAreaData", "FederatedDataset", "concat_datasets"]


class Dataset:
    """A supervised dataset: features ``X`` (n, d) and integer labels ``y`` (n,)."""

    __slots__ = ("X", "y", "num_classes")

    def __init__(self, X: np.ndarray, y: np.ndarray, num_classes: int) -> None:
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (n, d), got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(f"y must be (n,) matching X {X.shape}, got {y.shape}")
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        if y.size and (y.min() < 0 or y.max() >= num_classes):
            raise ValueError(
                f"labels out of range [0, {num_classes}): [{y.min()}, {y.max()}]")
        self.X = X
        self.y = y
        self.num_classes = int(num_classes)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def input_dim(self) -> int:
        """Feature dimension ``d``."""
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the rows selected by ``indices`` (copies)."""
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset(self.X[indices], self.y[indices], self.num_classes)

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """Row-permuted copy."""
        perm = rng.permutation(len(self))
        return self.subset(perm)

    def split(self, fraction: float, rng: np.random.Generator | None = None,
              ) -> tuple["Dataset", "Dataset"]:
        """Split into (first, second) with ``fraction`` of rows in the first part.

        When ``rng`` is given, rows are shuffled before splitting.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        n = len(self)
        order = rng.permutation(n) if rng is not None else np.arange(n)
        cut = int(round(fraction * n))
        cut = max(1, min(n - 1, cut))
        return self.subset(order[:cut]), self.subset(order[cut:])

    def class_counts(self) -> np.ndarray:
        """Histogram of labels, length ``num_classes``."""
        return np.bincount(self.y, minlength=self.num_classes)

    def row_blocks(self, rows: int) -> list["Dataset"]:
        """Consecutive ``rows``-row blocks as datasets over views of this one.

        This dataset was validated when it was built, so the blocks skip the
        constructor's checks; each block's arrays are C-contiguous views.
        """
        n = len(self)
        if rows < 1 or n % rows:
            raise ValueError(f"cannot split {n} rows into blocks of {rows}")
        blocks = []
        for lo in range(0, n, rows):
            block = Dataset.__new__(Dataset)
            block.X = self.X[lo:lo + rows]
            block.y = self.y[lo:lo + rows]
            block.num_classes = self.num_classes
            blocks.append(block)
        return blocks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Dataset(n={len(self)}, d={self.input_dim}, "
                f"classes={self.num_classes})")


def concat_datasets(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets with matching dims/classes into one."""
    if not datasets:
        raise ValueError("need at least one dataset to concatenate")
    num_classes = datasets[0].num_classes
    input_dim = datasets[0].input_dim
    for ds in datasets[1:]:
        if ds.num_classes != num_classes or ds.input_dim != input_dim:
            raise ValueError("datasets have incompatible shapes or class counts")
    return Dataset(np.concatenate([ds.X for ds in datasets]),
                   np.concatenate([ds.y for ds in datasets]),
                   num_classes)


class EdgeAreaData:
    """Data of one edge area: one train shard per client plus a shared test set."""

    __slots__ = ("clients", "test", "name")

    def __init__(self, clients: Sequence[Dataset], test: Dataset,
                 name: str = "") -> None:
        if not clients:
            raise ValueError("an edge area needs at least one client shard")
        dims = {c.input_dim for c in clients} | {test.input_dim}
        classes = {c.num_classes for c in clients} | {test.num_classes}
        if len(dims) != 1 or len(classes) != 1:
            raise ValueError("client shards and test set must share dims and classes")
        self.clients = list(clients)
        self.test = test
        self.name = name

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def train_size(self) -> int:
        """Total training samples across the area's clients."""
        return sum(len(c) for c in self.clients)

    def train_pool(self) -> Dataset:
        """All the area's training data as one dataset (for diagnostics)."""
        return concat_datasets(self.clients)


class FederatedDataset:
    """Three-layer data layout: edge areas, each with client shards and a test set."""

    def __init__(self, edges: Sequence[EdgeAreaData], *, name: str = "") -> None:
        if not edges:
            raise ValueError("a federated dataset needs at least one edge area")
        dims = {e.clients[0].input_dim for e in edges}
        classes = {e.clients[0].num_classes for e in edges}
        if len(dims) != 1 or len(classes) != 1:
            raise ValueError("edge areas must share feature dims and class counts")
        self.edges = list(edges)
        self.name = name

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_clients(self) -> int:
        return sum(e.num_clients for e in self.edges)

    @property
    def input_dim(self) -> int:
        return self.edges[0].clients[0].input_dim

    @property
    def num_classes(self) -> int:
        return self.edges[0].clients[0].num_classes

    def client_shards(self) -> list[Dataset]:
        """Flat list of all client train shards, edge-major order."""
        return [shard for edge in self.edges for shard in edge.clients]

    def iter_clients(self) -> Iterator[tuple[int, int, Dataset]]:
        """Yield (edge_index, client_index_within_edge, shard)."""
        for e, edge in enumerate(self.edges):
            for c, shard in enumerate(edge.clients):
                yield e, c, shard

    def global_test(self) -> Dataset:
        """Union of all edge-area test sets."""
        return concat_datasets([e.test for e in self.edges])

    def clients_per_edge(self) -> list[int]:
        """Client count of each edge area (the paper's N0 when uniform)."""
        return [e.num_clients for e in self.edges]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FederatedDataset({self.name or 'unnamed'}: edges={self.num_edges}, "
                f"clients={self.num_clients}, d={self.input_dim}, "
                f"classes={self.num_classes})")
