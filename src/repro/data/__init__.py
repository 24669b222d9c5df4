"""Federated datasets: containers, synthetic generators, and partitioners."""

from repro._lazy import lazy_exports

__all__ = [
    "AdultLikeGenerator",
    "AdultLikeSpec",
    "make_adult_groups",
    "MinibatchSampler",
    "Dataset",
    "EdgeAreaData",
    "FederatedDataset",
    "concat_datasets",
    "federated_from_group_pools",
    "partition_dirichlet",
    "partition_iid",
    "partition_one_class_per_edge",
    "partition_similarity",
    "split_evenly",
    "stratified_test_subset",
    "DATASET_NAMES",
    "SCALES",
    "ScaleSpec",
    "make_federated_dataset",
    "SyntheticFLSpec",
    "generate_synthetic_fl",
    "EMNIST_DIGITS_LIKE",
    "FASHION_MNIST_LIKE",
    "MNIST_LIKE",
    "ImageGeneratorSpec",
    "SyntheticImageGenerator",
    "make_image_dataset",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.data.adult": (
        "AdultLikeGenerator", "AdultLikeSpec", "make_adult_groups",
    ),
    "repro.data.batching": ("MinibatchSampler",),
    "repro.data.dataset": (
        "Dataset", "EdgeAreaData", "FederatedDataset", "concat_datasets",
    ),
    "repro.data.partition": (
        "federated_from_group_pools", "partition_dirichlet", "partition_iid",
        "partition_one_class_per_edge", "partition_similarity",
        "split_evenly", "stratified_test_subset",
    ),
    "repro.data.registry": (
        "DATASET_NAMES", "SCALES", "ScaleSpec", "make_federated_dataset",
    ),
    "repro.data.synthetic_fl": ("SyntheticFLSpec", "generate_synthetic_fl"),
    "repro.data.synthetic_images": (
        "EMNIST_DIGITS_LIKE", "FASHION_MNIST_LIKE", "MNIST_LIKE",
        "ImageGeneratorSpec", "SyntheticImageGenerator", "make_image_dataset",
    ),
})
