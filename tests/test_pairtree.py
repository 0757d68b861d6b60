"""Tests for the pair-rate sampling tree (a lazily repaired binary sum tree)."""

import numpy as np
import pytest

from repro.core.pairtree import PairRateTree


class TestPairRateTree:
    def test_total_matches_sum(self, rng):
        fw = rng.random(13)
        bw = rng.random(13)
        tree = PairRateTree(fw, bw)
        assert tree.total == pytest.approx(float(np.sum(fw + bw)), rel=1e-12)

    def test_sample_agrees_with_cumsum(self, rng):
        fw = rng.random(10)
        bw = rng.random(10)
        tree = PairRateTree(fw, bw)
        pair = fw + bw
        cumulative = np.cumsum(pair)
        for target in np.linspace(1e-6, tree.total * (1 - 1e-9), 50):
            j, residual = tree.sample(target)
            expected = int(np.searchsorted(cumulative, target, side="right"))
            expected = min(expected, 9)
            assert j == expected
            base = cumulative[expected - 1] if expected else 0.0
            assert residual == pytest.approx(target - base, abs=1e-12)

    def test_update_changes_sampling(self):
        fw = np.array([1.0, 0.0, 0.0])
        bw = np.zeros(3)
        tree = PairRateTree(fw, bw)
        assert tree.sample(0.5)[0] == 0
        tree.update(0, 0.0)
        tree.update(2, 4.0)
        assert tree.total == pytest.approx(4.0)
        assert tree.sample(0.5)[0] == 2

    def test_update_total_consistency(self, rng):
        fw = rng.random(31)
        bw = rng.random(31)
        tree = PairRateTree(fw, bw)
        for j in (0, 7, 30, 15):
            fw[j] = rng.random()
            bw[j] = rng.random()
            tree.update(j, fw[j] + bw[j])
        assert tree.total == pytest.approx(float(np.sum(fw + bw)), rel=1e-12)

    def test_rebuild_resets_state(self, rng):
        fw = rng.random(5)
        bw = rng.random(5)
        tree = PairRateTree(fw, bw)
        tree.update(2, 100.0)
        tree.rebuild(fw, bw)
        assert tree.total == pytest.approx(float(np.sum(fw + bw)), rel=1e-12)

    def test_non_power_of_two_sizes(self, rng):
        for n in (1, 3, 6, 17):
            fw = rng.random(n)
            bw = rng.random(n)
            tree = PairRateTree(fw, bw)
            j, _ = tree.sample(tree.total * 0.999999)
            assert 0 <= j < n

    def test_edge_target_clamped_into_range(self):
        tree = PairRateTree(np.array([1.0, 2.0]), np.zeros(2))
        j, residual = tree.sample(3.0)  # exactly the total
        assert j == 1
        assert residual <= 2.0

    def test_sampling_distribution(self, rng):
        fw = np.array([1.0, 2.0, 3.0])
        bw = np.array([0.0, 1.0, 2.0])
        tree = PairRateTree(fw, bw)
        counts = np.zeros(3)
        n = 30000
        for _ in range(n):
            j, _ = tree.sample(rng.random() * tree.total)
            counts[j] += 1
        probabilities = (fw + bw) / (fw + bw).sum()
        np.testing.assert_allclose(counts / n, probabilities, atol=0.02)
