"""Tests for repro.ops.numerics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ops.numerics import (
    clip_by_norm,
    flat_norm,
    log_softmax,
    logsumexp,
    median,
    one_hot,
    softmax,
    weighted_average,
)

logit_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(2, 8)),
    elements=st.floats(-30, 30, allow_nan=False),
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        s = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(s.sum(axis=1), [1.0, 1.0])

    def test_uniform_for_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros((1, 4))), np.full((1, 4), 0.25))

    def test_stability_with_huge_logits(self):
        s = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(s))
        assert s[0, 0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, -1.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0))

    @settings(max_examples=100, deadline=None)
    @given(z=logit_matrices)
    def test_property_simplex_rows(self, z):
        s = softmax(z)
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(z.shape[0]), atol=1e-9)


class TestLogSoftmaxAndLogSumExp:
    def test_log_softmax_consistency(self):
        z = np.array([[0.3, -1.2, 2.0]])
        np.testing.assert_allclose(np.exp(log_softmax(z)), softmax(z))

    def test_logsumexp_matches_naive_small(self):
        z = np.array([0.1, 0.2, 0.3])
        assert logsumexp(z) == pytest.approx(np.log(np.exp(z).sum()))

    def test_logsumexp_stable(self):
        assert np.isfinite(logsumexp(np.array([1e4, 1e4])))

    def test_logsumexp_keepdims(self):
        out = logsumexp(np.zeros((2, 3)), axis=1, keepdims=True)
        assert out.shape == (2, 1)

    @settings(max_examples=100, deadline=None)
    @given(z=logit_matrices)
    def test_property_logsumexp_bounds(self, z):
        """max <= logsumexp <= max + log(n)."""
        lse = logsumexp(z, axis=1)
        zmax = z.max(axis=1)
        assert np.all(lse >= zmax - 1e-9)
        assert np.all(lse <= zmax + np.log(z.shape[1]) + 1e-9)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty(self):
        assert one_hot(np.array([], dtype=int), 4).shape == (0, 4)


class TestClipByNorm:
    def test_inside_untouched(self):
        v = np.array([0.3, 0.4])
        assert clip_by_norm(v, 1.0) is v

    def test_outside_scaled(self):
        out = clip_by_norm(np.array([3.0, 4.0]), 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_zero_vector_ok(self):
        np.testing.assert_array_equal(clip_by_norm(np.zeros(3), 1.0), np.zeros(3))

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            clip_by_norm(np.ones(2), 0.0)


class TestWeightedAverage:
    def test_uniform_default(self):
        v = np.array([[0.0, 0.0], [2.0, 4.0]])
        np.testing.assert_allclose(weighted_average(v), [1.0, 2.0])

    def test_weights_normalized(self):
        v = np.array([[0.0], [10.0]])
        np.testing.assert_allclose(weighted_average(v, np.array([1.0, 3.0])), [7.5])

    def test_single_row(self):
        np.testing.assert_allclose(weighted_average(np.array([[5.0, 6.0]])), [5.0, 6.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            weighted_average(np.zeros((0, 3)))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            weighted_average(np.ones((2, 2)), np.array([1.0, -1.0]))

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            weighted_average(np.ones((2, 2)), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_average(np.ones((2, 2)), np.ones(3))

    @settings(max_examples=100, deadline=None)
    @given(m=hnp.arrays(dtype=np.float64, shape=st.tuples(st.integers(1, 5), st.integers(1, 4)),
                        elements=st.floats(-10, 10, allow_nan=False)))
    def test_property_in_convex_hull_bounds(self, m):
        avg = weighted_average(m)
        assert np.all(avg <= m.max(axis=0) + 1e-9)
        assert np.all(avg >= m.min(axis=0) - 1e-9)


class TestFlatNorm:
    def test_matrix(self):
        assert flat_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)


#: Samples drawn from a few values (ties, ±0, ±inf, NaN) or from the whole
#: float range, odd and even lengths, n = 1 included.
median_samples = hnp.arrays(
    dtype=np.float64, shape=st.integers(1, 12),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
        st.floats(allow_nan=True, allow_infinity=True)))


class TestMedian:
    @settings(max_examples=400, deadline=None)
    @given(x=median_samples)
    def test_bits_equal_np_median(self, x):
        # inf - inf and overflowing sums warn in both; only bits matter.
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.median(x)
            got = median(x)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_accepts_a_list_and_leaves_the_input_alone(self):
        values = [3.0, -1.0, 2.0, 8.0]
        assert median(values) == 2.5
        assert values == [3.0, -1.0, 2.0, 8.0]

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]]])
    def test_rejects_empty_or_non_1d(self, bad):
        with pytest.raises(ValueError):
            median(bad)
