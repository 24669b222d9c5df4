"""Tests for repro.utils.rng: determinism, independence, stability of streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import RngFactory, as_generator, keyed_rng, stable_key


class TestStableKey:
    def test_deterministic(self):
        assert stable_key("cloud") == stable_key("cloud")

    def test_distinct_names(self):
        assert stable_key("cloud") != stable_key("client")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_key("anything") < 2**64


class TestAsGenerator:
    def test_from_int(self):
        g = as_generator(3)
        assert isinstance(g, np.random.Generator)

    def test_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_from_seed_sequence(self):
        g = as_generator(np.random.SeedSequence(5))
        assert isinstance(g, np.random.Generator)

    def test_same_int_same_stream(self):
        a = as_generator(9).random(4)
        b = as_generator(9).random(4)
        np.testing.assert_array_equal(a, b)


class TestKeyedRng:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           key=st.lists(st.one_of(st.text(max_size=12),
                                  st.integers(0, 2**64 - 1)), max_size=4))
    def test_matches_hand_built_seed_sequence(self, seed, key):
        spawn_key = tuple(stable_key(k) if isinstance(k, str) else k
                          for k in key)
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))
        np.testing.assert_array_equal(keyed_rng(seed, *key).random(4),
                                      expected.random(4))

    def test_deterministic(self):
        np.testing.assert_array_equal(keyed_rng(42, "a", 1).random(8),
                                      keyed_rng(42, "a", 1).random(8))

    def test_distinct_keys_distinct_streams(self):
        draws = [keyed_rng(0, *key).random(8)
                 for key in [("a", 0), ("a", 1), ("b", 0), (0, "a")]]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.allclose(draws[i], draws[j])


class TestRngFactory:
    def test_stream_reproducible(self):
        f = RngFactory(seed=1)
        x = f.stream("cloud").random(5)
        y = f.stream("cloud").random(5)
        np.testing.assert_array_equal(x, y)

    def test_distinct_names_distinct_streams(self):
        f = RngFactory(seed=1)
        assert not np.allclose(f.stream("a").random(8), f.stream("b").random(8))

    def test_distinct_seeds_distinct_streams(self):
        assert not np.allclose(RngFactory(0).stream("a").random(8),
                               RngFactory(1).stream("a").random(8))

    def test_streams_count_and_independence(self):
        f = RngFactory(seed=2)
        gens = f.streams("client", 4)
        assert len(gens) == 4
        draws = [g.random(6) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_streams_match_individual_indexing(self):
        f = RngFactory(seed=2)
        a = f.streams("client", 3)[1].random(4)
        b = f.streams("client", 5)[1].random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_negative_raises(self):
        with pytest.raises(ValueError):
            RngFactory(0).streams("x", -2)

    def test_stream_at_matches_streams(self):
        f = RngFactory(seed=3)
        for i, expected in enumerate(f.streams("worker", 3)):
            np.testing.assert_array_equal(f.stream_at("worker", i).random(4),
                                          expected.random(4))

    def test_seed_property(self):
        assert RngFactory(seed=77).seed == 77
