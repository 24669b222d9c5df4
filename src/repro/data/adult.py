"""Synthetic Adult-like census data with a Doctorate / non-Doctorate group split.

Table 2 of the paper uses the UCI Adult dataset with **two edge areas**: one holding
Doctorate records, the other non-Doctorate, training a logistic-regression income
classifier on categorical features.  This module generates data with exactly that
structure (no network access is available to fetch UCI):

* categorical features (work class, marital status, occupation, relationship, sex,
  age bucket, hours bucket) drawn from group-conditional distributions,
* binary income labels produced by a logistic ground-truth model whose coefficients
  receive a group-dependent shift — so the two groups genuinely have different
  conditional label distributions, the source of the fairness gap the paper reports.

Features are one-hot encoded; the generator is deterministic given the RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import keyed_rng

__all__ = ["AdultLikeSpec", "AdultLikeGenerator", "make_adult_groups"]

# Cardinalities of the categorical fields (loosely matching UCI Adult).
_FIELDS: tuple[tuple[str, int], ...] = (
    ("workclass", 7),
    ("marital_status", 5),
    ("occupation", 12),
    ("relationship", 6),
    ("sex", 2),
    ("age_bucket", 8),
    ("hours_bucket", 5),
)


@dataclass(frozen=True)
class AdultLikeSpec:
    """Parameters of the Adult-like generator.

    Attributes
    ----------
    group_shift:
        Scale of the group-dependent coefficient shift between Doctorate and
        non-Doctorate populations — the heterogeneity knob.
    base_rate_doctorate / base_rate_other:
        Intercepts controlling the income-positive rates of the two groups
        (Doctorate earners skew high-income in UCI Adult).
    noise:
        Std of the logit noise (label difficulty).
    seed:
        Seed of the ground-truth model (distinct from the sampling RNG).
    """

    group_shift: float = 3.0
    base_rate_doctorate: float = 1.6
    base_rate_other: float = -1.2
    noise: float = 1.0
    coef_scale: float = 0.5
    doctorate_fraction: float = 0.12
    seed: int = 7
    fields: tuple[tuple[str, int], ...] = field(default=_FIELDS)

    def __post_init__(self) -> None:
        if self.group_shift < 0 or self.noise < 0:
            raise ValueError("group_shift and noise must be nonnegative")
        if not 0.0 < self.doctorate_fraction <= 1.0:
            raise ValueError(
                f"doctorate_fraction must be in (0, 1], got {self.doctorate_fraction}")
        if not self.fields:
            raise ValueError("need at least one categorical field")


class AdultLikeGenerator:
    """Samples one-hot-encoded census-like records for the two education groups."""

    def __init__(self, spec: AdultLikeSpec | None = None) -> None:
        self.spec = spec if spec is not None else AdultLikeSpec()
        truth_rng = keyed_rng(self.spec.seed, 0xAD01)
        self._cards = [card for _, card in self.spec.fields]
        self._dim = sum(self._cards)
        # Shared ground-truth coefficients plus a per-group shift.
        self._coef_common = truth_rng.normal(0.0, self.spec.coef_scale,
                                             size=self._dim)
        shift_direction = truth_rng.normal(0.0, 1.0, size=self._dim)
        shift_direction /= np.linalg.norm(shift_direction)
        self._coef_shift = self.spec.group_shift * shift_direction
        # Group-conditional category preferences: Dirichlet-distributed marginals.
        self._marginals: dict[bool, list[np.ndarray]] = {}
        for is_doctorate in (False, True):
            self._marginals[is_doctorate] = [
                truth_rng.dirichlet(np.full(card, 0.8 if is_doctorate else 1.2))
                for card in self._cards
            ]

    @property
    def input_dim(self) -> int:
        """One-hot feature dimension."""
        return self._dim

    def sample_group(self, is_doctorate: bool, n: int,
                     rng: np.random.Generator) -> Dataset:
        """Draw ``n`` records of one education group; returns a binary Dataset."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        X = np.zeros((n, self._dim), dtype=np.float64)
        offset = 0
        for card, marginal in zip(self._cards, self._marginals[bool(is_doctorate)]):
            cats = rng.choice(card, size=n, p=marginal)
            X[np.arange(n), offset + cats] = 1.0
            offset += card
        coef = self._coef_common + (self._coef_shift if is_doctorate
                                    else -self._coef_shift)
        intercept = (self.spec.base_rate_doctorate if is_doctorate
                     else self.spec.base_rate_other)
        logits = X @ coef + intercept + self.spec.noise * rng.normal(size=n)
        y = (logits > 0).astype(np.int64)
        return Dataset(X, y, num_classes=2)


def make_adult_groups(n_train_per_group: int, n_test_per_group: int,
                      rng: np.random.Generator, *,
                      spec: AdultLikeSpec | None = None,
                      ) -> tuple[list[Dataset], list[Dataset]]:
    """Build ([train_doctorate, train_other], [test_doctorate, test_other]).

    The Doctorate group's *training* pool holds only ``spec.doctorate_fraction``
    of ``n_train_per_group`` samples (min 30), mirroring UCI Adult where advanced
    degrees are a small minority — the scarcity that makes the group worst-off
    under data-weighted minimization.  Test sets are equal-sized per group.
    """
    spec = spec if spec is not None else AdultLikeSpec()
    gen = AdultLikeGenerator(spec)
    n_doc = max(30, int(round(spec.doctorate_fraction * n_train_per_group)))
    trains = [gen.sample_group(True, n_doc, rng),
              gen.sample_group(False, n_train_per_group, rng)]
    tests = [gen.sample_group(is_doc, n_test_per_group, rng) for is_doc in (True, False)]
    return trains, tests
