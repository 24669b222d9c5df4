"""Numerically-stable primitives shared by the NN substrate and the algorithms.

All functions are vectorized over a leading batch dimension and avoid temporary
copies where a fused expression exists (guides: broadcast first, allocate once).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "logsumexp",
    "one_hot",
    "clip_by_norm",
    "weighted_average",
    "flat_norm",
    "median",
]


def logsumexp(z: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Stable ``log(sum(exp(z)))`` along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    zmax = np.max(z, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(z - zmax), axis=axis, keepdims=True)) + zmax
    return out if keepdims else np.squeeze(out, axis=axis)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``; rows sum to exactly 1 up to float error."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    return z - logsumexp(z, axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` of shape (B,) into a (B, num_classes) 0/1 matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"one_hot expects 1-D labels, got shape {labels.shape}")
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): min={labels.min()}, max={labels.max()}")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def clip_by_norm(v: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale ``v`` so that ``||v||_2 <= max_norm`` (no-op if already inside)."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = float(np.linalg.norm(v))
    if norm <= max_norm or norm == 0.0:
        return v
    return v * (max_norm / norm)


def weighted_average(vectors: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Average the rows of ``vectors`` (shape (n, d)) with optional ``weights``.

    Weights are normalized to sum to 1; a uniform average is used when omitted.
    This is the aggregation kernel behind every client-edge / edge-cloud merge.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError(f"weighted_average expects shape (n, d), got {vectors.shape}")
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot average zero vectors")
    if weights is None:
        return vectors.mean(axis=0)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"weights shape {weights.shape} incompatible with {n} vectors")
    if np.any(weights < 0):
        raise ValueError("aggregation weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("aggregation weights must not all be zero")
    return (weights / total) @ vectors


def flat_norm(v: np.ndarray) -> float:
    """Euclidean norm of a flattened array as a Python float."""
    return float(np.linalg.norm(np.asarray(v).ravel()))


def median(values) -> np.float64:
    """``np.median`` of a 1-D float sample, bit for bit, without ``numpy.ma``.

    ``np.median``'s NaN check touches ``np.ma``, which imports all of
    ``numpy.ma`` (about 1.2 MB resident).  This runs the same steps without
    it: one ``np.partition`` with ``kth`` at the middle element or two and
    at ``n - 1`` (a NaN sorts last); the NaN when the last element is one;
    else ``np.mean`` of the middle one or two elements.
    """
    a = np.asarray(values, dtype=np.float64)
    n = a.size
    if a.ndim != 1 or n == 0:
        raise ValueError(f"median needs a non-empty 1-D sample, got shape "
                         f"{a.shape}")
    half = n // 2
    kth = [half, n - 1] if n % 2 else [half - 1, half, n - 1]
    part = np.partition(a, kth)
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[half - 1 + n % 2:half + 1])
