"""Tests for the synthetic image generators (the EMNIST/MNIST/Fashion stand-ins)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.synthetic_images import (
    EMNIST_DIGITS_LIKE,
    FASHION_MNIST_LIKE,
    MNIST_LIKE,
    ImageGeneratorSpec,
    SyntheticImageGenerator,
    make_image_dataset,
    resized_spec,
)


class TestSpecValidation:
    def test_defaults_valid(self):
        ImageGeneratorSpec(name="x")

    def test_rejects_one_class(self):
        with pytest.raises(ValueError):
            ImageGeneratorSpec(name="x", num_classes=1)

    def test_rejects_tiny_side(self):
        with pytest.raises(ValueError):
            ImageGeneratorSpec(name="x", side=3)

    def test_rejects_grid_above_side(self):
        with pytest.raises(ValueError):
            ImageGeneratorSpec(name="x", side=8, grid=9)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            ImageGeneratorSpec(name="x", pixel_noise=-0.1)

    def test_rejects_huge_shift(self):
        with pytest.raises(ValueError):
            ImageGeneratorSpec(name="x", side=8, max_shift=4)

    def test_rejects_bad_spread(self):
        with pytest.raises(ValueError):
            ImageGeneratorSpec(name="x", class_difficulty_spread=1.0)

    def test_class_noise_factor_ramp(self):
        spec = ImageGeneratorSpec(name="x", num_classes=10,
                                  class_difficulty_spread=0.4)
        assert spec.class_noise_factor(0) == pytest.approx(0.6)
        assert spec.class_noise_factor(9) == pytest.approx(1.4)
        factors = [spec.class_noise_factor(c) for c in range(10)]
        assert factors == sorted(factors)

    def test_class_noise_factor_no_spread(self):
        spec = ImageGeneratorSpec(name="x")
        assert spec.class_noise_factor(3) == 1.0

    def test_class_noise_factor_range_check(self):
        spec = ImageGeneratorSpec(name="x")
        with pytest.raises(ValueError):
            spec.class_noise_factor(10)


class TestGenerator:
    @pytest.fixture(scope="class")
    def gen(self):
        return SyntheticImageGenerator(
            ImageGeneratorSpec(name="t", side=10, grid=5, max_shift=1,
                               deform_scale=0.3, pixel_noise=0.1))

    def test_prototypes_shape_and_range(self, gen):
        protos = gen.prototypes()
        assert protos.shape == (10, 10, 10)
        assert np.all(protos >= 0) and np.all(protos <= 1)

    def test_prototypes_deterministic(self):
        spec = ImageGeneratorSpec(name="t", side=10, grid=5, prototype_seed=5,
                                  max_shift=1)
        a = SyntheticImageGenerator(spec).prototypes()
        b = SyntheticImageGenerator(spec).prototypes()
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_prototypes(self):
        base = dict(name="t", side=10, grid=5, max_shift=1)
        a = SyntheticImageGenerator(ImageGeneratorSpec(**base, prototype_seed=1))
        b = SyntheticImageGenerator(ImageGeneratorSpec(**base, prototype_seed=2))
        assert not np.allclose(a.prototypes(), b.prototypes())

    def test_sample_class_shape_and_range(self, gen):
        X = gen.sample_class(2, 7, np.random.default_rng(0))
        assert X.shape == (7, 100)
        assert np.all(X >= 0) and np.all(X <= 1)

    def test_sample_class_validates(self, gen):
        with pytest.raises(ValueError):
            gen.sample_class(10, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen.sample_class(0, -1, np.random.default_rng(0))

    def test_sample_deterministic_given_rng(self, gen):
        a = gen.sample(np.array([0, 1, 2]), np.random.default_rng(3))
        b = gen.sample(np.array([0, 1, 2]), np.random.default_rng(3))
        np.testing.assert_array_equal(a.X, b.X)

    def test_sample_preserves_label_order(self, gen):
        labels = np.array([3, 0, 3, 7])
        ds = gen.sample(labels, np.random.default_rng(0))
        np.testing.assert_array_equal(ds.y, labels)

    def test_balanced_dataset(self, gen):
        ds = gen.balanced_dataset(4, np.random.default_rng(0))
        assert len(ds) == 40
        np.testing.assert_array_equal(ds.class_counts(), np.full(10, 4))

    def test_balanced_rejects_zero(self, gen):
        with pytest.raises(ValueError):
            gen.balanced_dataset(0, np.random.default_rng(0))

    def test_within_class_variation(self, gen):
        """Samples of one class must differ from each other (noise is applied)."""
        X = gen.sample_class(0, 2, np.random.default_rng(0))
        assert not np.allclose(X[0], X[1])

    def test_classes_are_separable(self):
        """Same-class samples must be closer to their prototype than to others."""
        spec = ImageGeneratorSpec(name="t", side=10, grid=5, deform_scale=0.1,
                                  pixel_noise=0.05, max_shift=0)
        gen = SyntheticImageGenerator(spec)
        protos = gen.prototypes().reshape(10, -1)
        X = gen.sample_class(4, 20, np.random.default_rng(0))
        dists = np.linalg.norm(X[:, None, :] - protos[None, :, :], axis=2)
        assert np.all(np.argmin(dists, axis=1) == 4)


class TestResizing:
    def test_resized_spec_keeps_family_identity(self):
        spec = resized_spec(EMNIST_DIGITS_LIKE, 12)
        assert spec.side == 12
        assert spec.prototype_seed == EMNIST_DIGITS_LIKE.prototype_seed
        assert spec.class_difficulty_spread == EMNIST_DIGITS_LIKE.class_difficulty_spread

    def test_difficulty_factor_shrinks_noise_at_small_sides(self):
        spec8 = resized_spec(MNIST_LIKE, 8)
        assert spec8.pixel_noise < MNIST_LIKE.pixel_noise

    def test_make_image_dataset_families(self):
        rng = np.random.default_rng(0)
        for fam in ("mnist_like", "emnist_digits_like", "fashion_mnist_like"):
            ds = make_image_dataset(fam, 3, rng, side=8)
            assert ds.input_dim == 64
            assert len(ds) == 30

    def test_make_image_dataset_unknown_family(self):
        with pytest.raises(ValueError):
            make_image_dataset("cifar_like", 3, np.random.default_rng(0))

    def test_native_side_uses_family_spec(self):
        rng = np.random.default_rng(0)
        ds = make_image_dataset("mnist_like", 1, rng, side=28)
        assert ds.input_dim == 784


class TestDifficultyStructure:
    def test_harder_family_is_harder(self):
        """Linear separability must rank mnist > fashion (the paper's ordering)."""
        from repro.nn.models import logistic_regression

        rng = np.random.default_rng(0)
        accs = {}
        for fam in ("mnist_like", "fashion_mnist_like"):
            train = make_image_dataset(fam, 40, rng, side=12)
            test = make_image_dataset(fam, 20, rng, side=12)
            net = logistic_regression(train.input_dim, 10, rng=0)
            for _ in range(150):
                _, g = net.loss_and_gradient(train.X, train.y)
                net.params_view()[:] -= 0.5 * g
            accs[fam] = net.accuracy(test.X, test.y)
        assert accs["mnist_like"] > accs["fashion_mnist_like"]

    def test_class_difficulty_ramp_in_accuracy(self):
        """With a strong spread, the high-index classes must be harder to classify."""
        from repro.nn.models import logistic_regression

        spec = ImageGeneratorSpec(name="t", side=10, grid=5, deform_scale=0.45,
                                  pixel_noise=0.18, max_shift=1,
                                  class_difficulty_spread=0.7)
        gen = SyntheticImageGenerator(spec)
        rng = np.random.default_rng(0)
        train = gen.balanced_dataset(60, rng)
        test = gen.balanced_dataset(40, rng)
        net = logistic_regression(train.input_dim, 10, rng=0)
        for _ in range(200):
            _, g = net.loss_and_gradient(train.X, train.y)
            net.params_view()[:] -= 0.5 * g
        per_class = [net.accuracy(test.X[test.y == c], test.y[test.y == c])
                     for c in range(10)]
        easy = np.mean(per_class[:3])
        hard = np.mean(per_class[-3:])
        assert easy > hard


def _sha256(arrays) -> str:
    """sha256 over each array's dtype, shape and C-order bytes."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


_FAMILY_SPECS = {spec.name: spec
                 for spec in (MNIST_LIKE, EMNIST_DIGITS_LIKE, FASHION_MNIST_LIKE)}


def _family_generator(family: str, side: int) -> SyntheticImageGenerator:
    spec = _FAMILY_SPECS[family]
    return SyntheticImageGenerator(
        spec if side == spec.side else resized_spec(spec, side))


def _bank_digest(family: str, side: int) -> str:
    gen = _family_generator(family, side)
    return _sha256(gen.prototype_bank(c) for c in range(gen.num_classes))


def _sample_digest(family: str, side: int) -> str:
    """Every class at n = 0, 1, 7 from one stream, then four more draws (which
    pin how much of the stream the sampler consumed)."""
    gen = _family_generator(family, side)
    rng = np.random.default_rng(2024)
    arrays = [gen.sample_class(c, n, rng)
              for n in (0, 1, 7) for c in range(gen.num_classes)]
    arrays.append(rng.random(4))
    return _sha256(arrays)


def _dataset_digest(figure: str, scale: str, seed: int) -> str:
    from repro.experiments.presets import fig3_preset, fig4_preset
    from repro.experiments.runner import build_preset_dataset

    preset = {"fig3": fig3_preset, "fig4": fig4_preset}[figure](scale)
    data = build_preset_dataset(preset, seed=seed)
    arrays = []
    for edge in data.edges:
        for shard in edge.clients:
            arrays += [shard.X, shard.y]
        arrays += [edge.test.X, edge.test.y]
    return _sha256(arrays)


GOLDEN_BANKS = {
    ("mnist_like", 28):
        "e1aaeecc4466a075165437d05053289858405ad5fdc6e6fc31df8487209ed352",
    ("mnist_like", 8):
        "33e8f8f280dd0e2ac46707436307c7463448c2014100b3e4a1da4b69b048d5ec",
    ("mnist_like", 10):
        "aa02ad8f002a31e771fdbdbcdaf8314cc7ee50305b8bd600ad6a7f1adfde04b1",
    ("mnist_like", 12):
        "eec6bac28d87fdaf0531452c092f60e6fd4883ff072d8bb6db69a88669cf3e4b",
    ("emnist_digits_like", 28):
        "ff8d209bf1bfb821e4c7bd06e5cdad07bf051f8c12fb2adc036bf84edacc92aa",
    ("emnist_digits_like", 8):
        "8563715e5e460a1a758fd44d3058bb521ee97e065ce86d0aeed61d04b683eb70",
    ("emnist_digits_like", 10):
        "88377852dd81e6b3fe35d24708cdbbdae85f6f9e1fd35b2e0bb6b9ffcd326d9c",
    ("emnist_digits_like", 12):
        "31504a8256a57ea6eff88c45063d626e733d8e64b76fa2618c86108e8cda4ddd",
    ("fashion_mnist_like", 28):
        "96a43f4b8df48f4acb49eb072fe3f6d099cdbde509dcb0f7ca66df0359ef7a1b",
    ("fashion_mnist_like", 8):
        "993b6448b8ceb8b8ef6cbfc48824755c24f18cd4d2d4f10f78056d15acd7bbad",
    ("fashion_mnist_like", 10):
        "79de8612b71bf37a9eab55c1cc5f60587f65f81168119097fcf4ab8c44b2e48a",
    ("fashion_mnist_like", 12):
        "61715ae3f96fa3acf7946e6fa8a3b3e5f4806890f8e0918d65726de85ef6bbef",
}

GOLDEN_SAMPLES = {
    ("mnist_like", 28):
        "27882de0d7f1973f2aedc9adc4075a6c83dc9cf406116f850a663ee4efbc3b73",
    ("mnist_like", 8):
        "bf5a7c2a198bee1e93611cfbf4105fcc66b657e40f29f926fcba2484a3e9db4f",
    ("mnist_like", 10):
        "61636fd6839a5d9b6200755c2fbb6041a6c8d4808fb630f346c388ce3ab0a1ff",
    ("mnist_like", 12):
        "a7a9db9445d1b487acf85179b5a8bc1ce212697a9bebd1a287ef256a595683cd",
    ("emnist_digits_like", 28):
        "427d2fc03967e3fcf26a1ea44d3d8e135868ec20ed910acb5b73e951d5477b75",
    ("emnist_digits_like", 8):
        "29261f184b10c0fe217a3abd90f33d1fb27ae41cc5d4671402a8f877aaa4c5bd",
    ("emnist_digits_like", 10):
        "ff6c87907b73977c1950eeca4231e622eb4295e0ca2d37436c2833b22ec0b7c3",
    ("emnist_digits_like", 12):
        "b9172cc5bd5b4f28504fddb74584f3caf5d0cca41c151b198d8916bb2adefc0d",
    ("fashion_mnist_like", 28):
        "8a078b98704ef8c67e1e984bf3f5ba8b7d2797e935757f9c37debbabc700e3c6",
    ("fashion_mnist_like", 8):
        "d344a0baf8cfcbbbfbe0760de28fedc8b593d5e28d01ac2fe53d68ff0505c56d",
    ("fashion_mnist_like", 10):
        "236ce63077734eb2f0d7f4953ac7c0803136ab8253264da1ad3ca26b13cd08e3",
    ("fashion_mnist_like", 12):
        "defe71072003b6e1b921b4b5f738e1e8bac691034aed3eac82092b7500adb0ca",
}

GOLDEN_DATASETS = {
    ("fig3", "tiny", 0):
        "4cda69a5e54c0002415d486c47601964d22df94696ad07cfefbc64c224a5f4ad",
    ("fig3", "tiny", 3):
        "2c6e30dd78a207378734c9e0ecc8a29898e17686eb6a91f321920c94b8299be9",
    ("fig3", "small", 0):
        "ebad406a7d091755f089a45a315028e54b546c784dc0c3acf1ac69bc80e8e4b4",
    ("fig3", "small", 3):
        "b08a9be89fa584d34c46f790f579dbb1338181823f097619ae304c6996b0f8c7",
    ("fig4", "tiny", 0):
        "a7fe297ae145b90e0a719aa5e74e6aa7edc61d0a09b30a5087bbb26005fffe73",
    ("fig4", "tiny", 3):
        "d0a28d1692d150d80d6c402a4df359087d3426223f0ce668f6ca0d729a22c151",
    ("fig4", "small", 0):
        "2578f7d3ad54be57a1545827ec73b333ca444aebe80d1234f02be0327c8d4e12",
    ("fig4", "small", 3):
        "5008fc074ed7cfa3a4b3072f1d41b05f5ce2a30c99b284d5daefd7c9713465b1",
}


class TestGoldenBits:
    """Pinned sha256 digests of the generator's output.

    Shape and range checks cannot catch a change to the random stream or to
    the order of floating-point operations; these can.  The digests were
    recorded from the per-sample reference sampler.
    """

    @pytest.mark.parametrize("family, side", sorted(GOLDEN_BANKS))
    def test_prototype_banks(self, family, side):
        assert _bank_digest(family, side) == GOLDEN_BANKS[family, side]

    @pytest.mark.parametrize("family, side", sorted(GOLDEN_SAMPLES))
    def test_sample_class(self, family, side):
        assert _sample_digest(family, side) == GOLDEN_SAMPLES[family, side]

    @pytest.mark.parametrize("figure, scale, seed", sorted(GOLDEN_DATASETS))
    def test_preset_datasets(self, figure, scale, seed):
        assert (_dataset_digest(figure, scale, seed)
                == GOLDEN_DATASETS[figure, scale, seed])
