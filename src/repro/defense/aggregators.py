"""Pluggable Byzantine-robust aggregation rules.

A :class:`RobustAggregator` combines the model vectors one aggregation point
received this round into a single vector, flagging the uploads it rejected or
clipped so the caller can feed the per-round suspicion metrics.  Aggregators
are stateless strategy objects: the same instance may serve the edge tier, the
cloud tier, several algorithms, and every execution backend — combine() is
pure NumPy on the already-delivered payload list, so it is orthogonal to *how*
the local steps ran.

Provable tolerance (n uploads, f Byzantine; see DESIGN.md §8):

================  =============================================================
``mean``          f = 0 (the reference rule; one attacker controls the output)
``median``        f ≤ ⌊(n-1)/2⌋ per coordinate
``trimmed_mean``  f ≤ ⌊trim·n⌋ per coordinate (trim each tail)
``krum``          f ≤ (n-3)/2 via distance scores (needs n ≥ f+3)
``norm_clip``     unbounded-magnitude attacks reduced to bounded perturbations
================  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ops.numerics import median

__all__ = ["AGGREGATORS", "AggregationOutcome", "RobustAggregator",
           "WeightedMean", "CoordinateMedian", "TrimmedMean", "Krum",
           "NormClip", "resolve_aggregator"]


@dataclass(frozen=True)
class AggregationOutcome:
    """The combined vector plus who the rule distrusted.

    ``rejected`` indices contributed nothing (or almost nothing) to the
    output; ``clipped`` indices contributed a deliberately attenuated version
    of their upload.  Indices refer to positions in the ``vectors`` argument
    of :meth:`RobustAggregator.combine`.
    """

    value: np.ndarray
    rejected: tuple[int, ...] = ()
    clipped: tuple[int, ...] = ()


class RobustAggregator:
    """Strategy interface: combine one round's uploads at one aggregation point."""

    #: Registry/display name.
    name = "abstract"
    #: True only for the reference rule — call sites keep their original
    #: inline accumulation (bit-identical to a build without this subsystem).
    reference = False

    def combine(self, vectors, weights=None, ref=None) -> AggregationOutcome:
        """Aggregate ``vectors`` (list of 1-D float64 arrays).

        Parameters
        ----------
        weights:
            Optional per-upload aggregation weights (client data shares, …).
            Rules that sort per coordinate ignore them — robustness comes from
            order statistics, which have no natural weighting.
        ref:
            The broadcast model the uploads responded to; used by rules that
            operate on update deltas (norm clipping).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _stack(vectors) -> np.ndarray:
    if not vectors:
        raise ValueError("combine() needs at least one vector")
    return np.stack([np.asarray(v, dtype=np.float64) for v in vectors])


def _weighted_mean(mat: np.ndarray, weights) -> np.ndarray:
    if weights is None:
        return mat.mean(axis=0)
    w = np.asarray(weights, dtype=np.float64)
    return (w[:, None] * mat).sum(axis=0) / w.sum()


class WeightedMean(RobustAggregator):
    """The reference (non-robust) rule: the plain weighted average.

    Installed explicitly this class *is* exercised, but resolve paths mark it
    ``reference`` so algorithm call sites keep their original accumulation
    loop — guaranteeing the mean-aggregator configuration stays bit-identical
    to a build without the defense subsystem.
    """

    name = "mean"
    reference = True

    def combine(self, vectors, weights=None, ref=None) -> AggregationOutcome:
        """Weighted average of the uploads; never rejects anyone."""
        mat = _stack(vectors)
        return AggregationOutcome(value=_weighted_mean(mat, weights))


class CoordinateMedian(RobustAggregator):
    """Coordinate-wise median — breakdown point ⌊(n-1)/2⌋ per coordinate."""

    name = "median"

    def combine(self, vectors, weights=None, ref=None) -> AggregationOutcome:
        """Per-coordinate median; flags uploads unusually far from it."""
        mat = _stack(vectors)
        value = np.median(mat, axis=0)
        # Suspicion: uploads far from the median in aggregate (> 3x the
        # median distance) likely sat in the trimmed tails everywhere.
        dist = np.linalg.norm(mat - value, axis=1)
        cutoff = 3.0 * max(float(np.median(dist)), 1e-12)
        rejected = tuple(int(i) for i in np.nonzero(dist > cutoff)[0])
        return AggregationOutcome(value=value, rejected=rejected)


@dataclass(repr=False)
class TrimmedMean(RobustAggregator):
    """Coordinate-wise trimmed mean: drop the ``trim`` fraction of each tail.

    With ``k = ⌊trim·n⌋`` values removed from both ends of every coordinate,
    the rule tolerates up to ``k`` Byzantine uploads per coordinate; ``trim``
    must therefore exceed the expected attacker fraction.
    """

    trim: float = 0.2
    name: str = field(default="trimmed_mean", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.trim < 0.5:
            raise ValueError(f"trim must be in (0, 0.5), got {self.trim}")

    def combine(self, vectors, weights=None, ref=None) -> AggregationOutcome:
        """Mean of each coordinate after trimming ``k`` values off both tails."""
        mat = _stack(vectors)
        n = mat.shape[0]
        k = min(int(self.trim * n), (n - 1) // 2)
        if k < 1:
            return AggregationOutcome(value=_weighted_mean(mat, weights))
        order = np.argsort(mat, axis=0, kind="stable")
        kept = np.sort(mat, axis=0)[k:n - k]
        value = kept.mean(axis=0)
        # Suspicion: how often each upload landed in a trimmed tail.
        tails = np.concatenate([order[:k], order[n - k:]]).ravel()
        counts = np.bincount(tails, minlength=n)
        rejected = tuple(int(i) for i in np.nonzero(
            2 * counts > mat.shape[1])[0])  # trimmed in > half the coords
        return AggregationOutcome(value=value, rejected=rejected)


@dataclass(repr=False)
class Krum(RobustAggregator):
    """Krum / multi-Krum (Blanchard et al., NeurIPS '17).

    Each upload is scored by the sum of its squared distances to its
    ``n - f - 2`` nearest peers; the ``m`` lowest-scored uploads are averaged
    (``m = 1`` is classic Krum).  ``f`` defaults to the largest tolerable
    value ``⌊(n-3)/2⌋`` per combine call; with fewer than 3 uploads the rule
    degenerates to the weighted mean (scores are undefined).
    """

    f: int | None = None
    m: int = 1
    name: str = field(default="krum", init=False)

    def __post_init__(self) -> None:
        if self.f is not None and self.f < 0:
            raise ValueError(f"f must be >= 0 or None, got {self.f}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.m > 1:
            self.name = "multi_krum"

    def combine(self, vectors, weights=None, ref=None) -> AggregationOutcome:
        """Average the ``m`` uploads with the lowest Krum distance scores."""
        mat = _stack(vectors)
        n = mat.shape[0]
        f = (max(0, (n - 3) // 2) if self.f is None
             else min(self.f, max(0, n - 3)))
        n_near = n - f - 2
        if n < 3 or n_near < 1:
            return AggregationOutcome(value=_weighted_mean(mat, weights))
        sq = np.sum((mat[:, None, :] - mat[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(sq, np.inf)
        scores = np.sum(np.sort(sq, axis=1)[:, :n_near], axis=1)
        m = min(self.m, n)
        chosen = np.sort(np.argsort(scores, kind="stable")[:m])
        value = mat[chosen].mean(axis=0)
        rejected = tuple(int(i) for i in range(n) if i not in set(chosen))
        return AggregationOutcome(value=value, rejected=rejected)


@dataclass(repr=False)
class NormClip(RobustAggregator):
    """Clip update-delta norms before averaging.

    Each upload's delta against the broadcast model ``ref`` is rescaled to at
    most ``max_norm`` (or ``factor ×`` the round's median delta norm when
    ``max_norm`` is unset), then the weighted mean is taken.  This does not
    exclude attackers but bounds the damage any single upload can do —
    effective against magnitude attacks, not direction attacks.
    """

    max_norm: float | None = None
    factor: float = 2.0
    name: str = field(default="norm_clip", init=False)

    def __post_init__(self) -> None:
        if self.max_norm is not None and self.max_norm <= 0:
            raise ValueError(f"max_norm must be > 0 or None, got {self.max_norm}")
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")

    def combine(self, vectors, weights=None, ref=None) -> AggregationOutcome:
        """Weighted mean of deltas vs ``ref`` after rescaling oversized norms."""
        mat = _stack(vectors)
        origin = (np.zeros(mat.shape[1]) if ref is None
                  else np.asarray(ref, dtype=np.float64))
        deltas = mat - origin
        norms = np.linalg.norm(deltas, axis=1)
        bound = (self.max_norm if self.max_norm is not None
                 else self.factor * float(median(norms)))
        if bound <= 0.0:  # all uploads identical to ref: nothing to clip
            return AggregationOutcome(value=_weighted_mean(mat, weights))
        scale = np.minimum(1.0, bound / np.maximum(norms, 1e-300))
        clipped = tuple(int(i) for i in np.nonzero(scale < 1.0)[0])
        value = origin + _weighted_mean(scale[:, None] * deltas, weights)
        return AggregationOutcome(value=value, clipped=clipped)


#: Name → zero-argument constructor for :func:`resolve_aggregator`.
AGGREGATORS = {
    "mean": WeightedMean,
    "median": CoordinateMedian,
    "trimmed_mean": TrimmedMean,
    "krum": Krum,
    "multi_krum": lambda: Krum(m=3),
    "norm_clip": NormClip,
}


def resolve_aggregator(spec) -> RobustAggregator | None:
    """Coerce ``spec`` (``None`` | name | instance) into an aggregator."""
    if spec is None or isinstance(spec, RobustAggregator):
        return spec
    if isinstance(spec, str):
        try:
            return AGGREGATORS[spec]()
        except KeyError:
            raise ValueError(f"unknown aggregator {spec!r}; options: "
                             f"{sorted(AGGREGATORS)}") from None
    raise TypeError(f"aggregator must be None, a name, or a RobustAggregator, "
                    f"got {type(spec).__name__}")
