"""Class-conditional synthetic image generators (MNIST / EMNIST / Fashion stand-ins).

The evaluation datasets of the paper (EMNIST-Digits, MNIST, Fashion-MNIST) cannot be
downloaded in this offline environment, so we generate image-like data with the same
interface and — for the purposes of the experiments — the same *relevant structure*:

* ``C`` classes of ``side × side`` grayscale images in [0, 1];
* each class is a smooth random prototype (a low-resolution random field upsampled
  bilinearly, thresholded into stroke-like bright regions);
* each sample perturbs its class prototype with a random sub-pixel translation, a
  multiplicative intensity jitter, an *instance-specific* smooth deformation field,
  and additive pixel noise;
* a single ``difficulty`` scalar controls class overlap, calibrated so a linear
  model reaches roughly the paper's accuracy ladder
  (MNIST ≈ easiest < EMNIST-Digits < Fashion-MNIST ≈ hardest).

What the experiments exercise is label-skew heterogeneity across edge areas on a
multi-class problem of a given difficulty — exactly what these generators provide.
See DESIGN.md §1 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import keyed_rng

__all__ = [
    "ImageGeneratorSpec",
    "SyntheticImageGenerator",
    "MNIST_LIKE",
    "EMNIST_DIGITS_LIKE",
    "FASHION_MNIST_LIKE",
    "make_image_dataset",
    "resized_spec",
]


@dataclass(frozen=True)
class ImageGeneratorSpec:
    """Tunable knobs of a synthetic image family.

    Attributes
    ----------
    name:
        Family label, e.g. ``"mnist_like"``.
    num_classes:
        Number of classes ``C``.
    side:
        Image side length (images are ``side*side`` flattened features).
    grid:
        Resolution of the low-frequency random field behind each prototype; smaller
        values give blobbier, more distinct prototypes.
    deform_scale:
        Amplitude of the per-sample smooth deformation (class overlap knob #1).
    pixel_noise:
        Std of additive i.i.d. pixel noise (class overlap knob #2).
    intensity_jitter:
        Multiplicative brightness jitter std.
    max_shift:
        Maximum absolute translation (pixels) applied per sample.
    prototype_seed:
        Extra seed offset so that different families have unrelated prototypes.
    class_difficulty_spread:
        Asymmetry of per-class difficulty in [0, 1): class ``c`` has its
        deformation and pixel noise multiplied by a factor ramping linearly from
        ``1 - spread`` (class 0) to ``1 + spread`` (class C-1).  Real image
        datasets have intrinsically unequal class difficulty (some digits/garments
        confuse more), which is the asymmetry minimax fairness exploits; a spread
        of 0 gives fully symmetric classes.
    max_modes:
        Maximum number of prototype *modes* per class (>= 1).  Class ``c`` has
        ``1 + floor(c/(C-1) · (max_modes-1))`` modes, each an independent smooth
        prototype, and samples draw a mode uniformly.  Multi-modal classes need
        more model capacity / more effective training weight to fit — a
        *capacity-driven* difficulty asymmetry (in contrast to the noise-driven
        ``class_difficulty_spread``), which is what lets minimax reweighting
        actually raise the hard classes' accuracy in the non-convex experiments.
    """

    name: str
    num_classes: int = 10
    side: int = 28
    grid: int = 7
    deform_scale: float = 0.35
    pixel_noise: float = 0.12
    intensity_jitter: float = 0.10
    max_shift: int = 2
    prototype_seed: int = 0
    class_difficulty_spread: float = 0.0
    max_modes: int = 1

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        if self.side < 4:
            raise ValueError(f"side must be >= 4, got {self.side}")
        if not 2 <= self.grid <= self.side:
            raise ValueError(f"grid must be in [2, side], got {self.grid}")
        if self.pixel_noise < 0 or self.deform_scale < 0 or self.intensity_jitter < 0:
            raise ValueError("noise scales must be nonnegative")
        if self.max_shift < 0 or self.max_shift >= self.side // 2:
            raise ValueError(f"max_shift must be in [0, side/2), got {self.max_shift}")
        if not 0.0 <= self.class_difficulty_spread < 1.0:
            raise ValueError(
                f"class_difficulty_spread must be in [0, 1), got "
                f"{self.class_difficulty_spread}")
        if self.max_modes < 1:
            raise ValueError(f"max_modes must be >= 1, got {self.max_modes}")

    def class_mode_count(self, label: int) -> int:
        """Number of prototype modes of class ``label`` (ramping to max_modes)."""
        if not 0 <= label < self.num_classes:
            raise ValueError(f"label {label} out of range [0, {self.num_classes})")
        if self.max_modes == 1 or self.num_classes == 1:
            return 1
        ramp = label / (self.num_classes - 1)
        return 1 + int(ramp * (self.max_modes - 1))

    def class_noise_factor(self, label: int) -> float:
        """The difficulty multiplier of class ``label`` (see the attribute docs)."""
        if not 0 <= label < self.num_classes:
            raise ValueError(f"label {label} out of range [0, {self.num_classes})")
        if self.num_classes == 1 or self.class_difficulty_spread == 0.0:
            return 1.0
        ramp = 2.0 * label / (self.num_classes - 1) - 1.0  # in [-1, 1]
        return 1.0 + self.class_difficulty_spread * ramp


# Calibrated so linear-model accuracy ranks mnist > emnist-digits > fashion, in the
# spirit of the real datasets' difficulty ordering in the paper's Table 2.
MNIST_LIKE = ImageGeneratorSpec(
    name="mnist_like", deform_scale=0.55, pixel_noise=0.22, prototype_seed=11,
    class_difficulty_spread=0.35)
EMNIST_DIGITS_LIKE = ImageGeneratorSpec(
    name="emnist_digits_like", deform_scale=0.65, pixel_noise=0.26, prototype_seed=23,
    class_difficulty_spread=0.5)
FASHION_MNIST_LIKE = ImageGeneratorSpec(
    name="fashion_mnist_like", deform_scale=0.50, pixel_noise=0.16,
    prototype_seed=37, class_difficulty_spread=0.2, max_modes=6)


def _upsample_bilinear(field: np.ndarray, side: int) -> np.ndarray:
    """Bilinearly upsample fields of shape (..., g, g) to (..., side, side).

    Any leading axes are a batch: each (g, g) slice is interpolated on its own,
    with the same operations in the same order as for a lone (g, g) field, so
    a batch gives the same bits as its slices one at a time.
    """
    g = field.shape[-1]
    # Sample positions in field coordinates.
    pos = np.linspace(0.0, g - 1.0, side)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, g - 1)
    frac = pos - i0
    # Interpolate rows then columns via outer-product weights.
    rows = (field[..., i0, :] * (1.0 - frac)[:, None]
            + field[..., i1, :] * frac[:, None])
    return rows[..., i0] * (1.0 - frac) + rows[..., i1] * frac


def _smooth_fields(rng: np.random.Generator, n: int, grid: int,
                   side: int) -> np.ndarray:
    """``n`` zero-mean smooth random fields, shape (n, side, side).

    One ``(n, grid, grid)`` normal draw consumes the stream exactly as ``n``
    consecutive ``(grid, grid)`` draws would.
    """
    return _upsample_bilinear(rng.normal(size=(n, grid, grid)), side)


class SyntheticImageGenerator:
    """Generator of one synthetic image family.

    Prototypes are fixed by ``spec.prototype_seed``; sampling takes an explicit
    generator so different consumers (train vs test pools, different edge areas)
    draw independent samples from identical class-conditional distributions.
    """

    def __init__(self, spec: ImageGeneratorSpec) -> None:
        self.spec = spec
        proto_rng = keyed_rng(spec.prototype_seed, 0xB10B)
        # One bank of mode prototypes per class (hard classes have several).
        self._prototypes: list[np.ndarray] = []
        for c in range(spec.num_classes):
            fields = _smooth_fields(proto_rng, spec.class_mode_count(c),
                                    spec.grid, spec.side)
            # Threshold into bright stroke-like regions on dark background.
            self._prototypes.append(1.0 / (1.0 + np.exp(-4.0 * (fields - 0.3))))

    @property
    def input_dim(self) -> int:
        """Flattened feature dimension (side*side)."""
        return self.spec.side * self.spec.side

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    def prototypes(self) -> np.ndarray:
        """Copy of the primary (first-mode) prototype of each class, (C, side, side)."""
        return np.stack([bank[0] for bank in self._prototypes])

    def prototype_bank(self, label: int) -> np.ndarray:
        """All prototype modes of one class, shape (modes, side, side) (copy)."""
        if not 0 <= label < self.spec.num_classes:
            raise ValueError(
                f"label {label} out of range [0, {self.spec.num_classes})")
        return self._prototypes[label].copy()

    def sample_class(self, label: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` flattened samples of class ``label``; shape (n, side*side).

        All ``n`` samples are drawn as one batch: modes, shifts, gains, the
        ``(n, grid, grid)`` deformation fields and the pixel noise are each one
        draw, in that order, and every sample's arithmetic is elementwise.
        """
        spec = self.spec
        if not 0 <= label < spec.num_classes:
            raise ValueError(f"label {label} out of range [0, {spec.num_classes})")
        if n < 0:
            raise ValueError(f"cannot draw {n} samples")
        side = spec.side
        factor = spec.class_noise_factor(label)
        bank = self._prototypes[label]
        modes = rng.integers(0, bank.shape[0], size=n)
        shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
        gains = 1.0 + spec.intensity_jitter * rng.normal(size=n)
        deform = spec.deform_scale * factor
        # np.roll of each sample's mode by its shift, as one modular gather.
        pixels = np.arange(side)
        rows = (pixels - shifts[:, :1]) % side
        cols = (pixels - shifts[:, 1:]) % side
        img = bank[modes[:, None, None], rows[:, :, None], cols[:, None, :]]
        if deform > 0:
            img = img + deform * _smooth_fields(rng, n, spec.grid, side)
        out = gains[:, None, None] * img
        if spec.pixel_noise > 0:
            out += spec.pixel_noise * factor * rng.normal(size=out.shape)
        np.clip(out, 0.0, 1.0, out=out)
        return out.reshape(n, side * side)

    def sample(self, labels: np.ndarray, rng: np.random.Generator) -> Dataset:
        """Draw one sample per entry of ``labels``; returns a :class:`Dataset`.

        Samples are generated class-by-class, each class as one batch
        (:meth:`sample_class`), and then restored to the requested label order.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        X = np.empty((labels.shape[0], self.input_dim), dtype=np.float64)
        for c in range(self.spec.num_classes):
            idx = np.nonzero(labels == c)[0]
            if idx.size:
                X[idx] = self.sample_class(c, idx.size, rng)
        return Dataset(X, labels, self.spec.num_classes)

    def balanced_dataset(self, n_per_class: int, rng: np.random.Generator) -> Dataset:
        """A class-balanced dataset with ``n_per_class`` samples of each class."""
        if n_per_class < 1:
            raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
        labels = np.repeat(np.arange(self.spec.num_classes), n_per_class)
        return self.sample(labels, rng)


_FAMILIES = {
    "mnist_like": MNIST_LIKE,
    "emnist_digits_like": EMNIST_DIGITS_LIKE,
    "fashion_mnist_like": FASHION_MNIST_LIKE,
}


def _difficulty_factor(side: int) -> float:
    """Noise rescaling that keeps linear-model accuracy roughly side-independent.

    Small images lose the noise-averaging benefit of high dimension, so the same
    deformation/noise amplitudes make an 8×8 task far harder than a 28×28 one.
    Factors calibrated empirically (see tests/test_synthetic_images.py):
    1.0 at side >= 12, 0.5 at side 8, linear in between.
    """
    if side >= 12:
        return 1.0
    if side <= 8:
        return 0.5
    return 0.5 + 0.5 * (side - 8) / 4.0


def resized_spec(spec: ImageGeneratorSpec, side: int) -> ImageGeneratorSpec:
    """A family spec re-targeted at image size ``side`` with matched difficulty."""
    factor = _difficulty_factor(side)
    grid = min(spec.grid, side)
    max_shift = 2 if side >= 20 else 1
    max_shift = min(max_shift, max(0, side // 2 - 1))
    return ImageGeneratorSpec(
        name=spec.name, num_classes=spec.num_classes, side=side, grid=grid,
        deform_scale=spec.deform_scale * factor,
        pixel_noise=spec.pixel_noise * factor,
        intensity_jitter=spec.intensity_jitter, max_shift=max_shift,
        prototype_seed=spec.prototype_seed,
        class_difficulty_spread=spec.class_difficulty_spread,
        max_modes=spec.max_modes)


def make_image_dataset(family: str, n_per_class: int, rng: np.random.Generator, *,
                       side: int | None = None) -> Dataset:
    """Build a balanced pool from a named family, optionally at reduced resolution.

    ``side`` overrides the family's image size — the CI presets use 12×12 or 8×8
    images to keep benches fast while preserving the experiments' structure; the
    per-family difficulty (linear-model accuracy) is held approximately constant
    across sizes via :func:`resized_spec`.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown image family {family!r}; options: {sorted(_FAMILIES)}")
    spec = _FAMILIES[family]
    if side is not None and side != spec.side:
        spec = resized_spec(spec, side)
    return SyntheticImageGenerator(spec).balanced_dataset(n_per_class, rng)
