"""Exact N-best pose enumeration against brute-force oracles.

The canonical pose order is (descending score, ascending index tuple);
the brute-force oracle sums scores left to right exactly like the
implementation, so comparisons are bitwise, not approximate.
"""

import itertools

import numpy as np
import pytest

from poselift.nbest import PoseAssignment, n_best_poses


def oracle_sort(values):
    """All poses of the full product in the canonical order, scored left to right."""
    poses = []
    for indices in itertools.product(*(range(len(v)) for v in values)):
        total = 0.0
        for i, idx in enumerate(indices):
            total += float(values[i][idx])
        poses.append(PoseAssignment(indices=indices, score=total))
    poses.sort(key=lambda p: (-p.score, p.indices))
    return poses


def random_instance(rng, max_joints=4, max_candidates=5):
    m = rng.integers(1, max_joints + 1)
    values = []
    for _ in range(m):
        k = rng.integers(1, max_candidates + 1)
        v = np.sort(rng.uniform(0, 1, size=k))[::-1]
        values.append(v)
    return values


class TestNBestPoses:
    def test_documented_example(self):
        values = [np.array([0.9, 0.5]), np.array([0.8, 0.7])]
        poses = n_best_poses(values, 3)
        assert [p.score for p in poses] == pytest.approx([1.7, 1.6, 1.3])
        assert [p.indices for p in poses] == [(0, 0), (0, 1), (1, 0)]

    def test_n_equals_one_is_greedy(self):
        rng = np.random.default_rng(4)
        values = random_instance(rng)
        poses = n_best_poses(values, 1)
        assert len(poses) == 1
        assert poses[0].indices == tuple(0 for _ in values)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            values = random_instance(rng)
            n = int(rng.integers(1, 11))
            expected = oracle_sort(values)[:n]
            got = n_best_poses(values, n)
            assert got == expected  # bitwise: same indices AND same scores

    def test_handles_exact_ties(self):
        values = [np.array([0.5, 0.5, 0.5]), np.array([0.25, 0.25])]
        expected = oracle_sort(values)
        assert n_best_poses(values, 10) == expected

    def test_ragged_candidate_counts(self):
        values = [np.array([0.7]), np.array([0.6, 0.3, 0.1]), np.array([0.5, 0.2])]
        expected = oracle_sort(values)[:4]
        assert n_best_poses(values, 4) == expected

    def test_exhausts_small_products(self):
        values = [np.array([0.9, 0.1])]
        poses = n_best_poses(values, 10)
        assert len(poses) == 2

    def test_scores_non_increasing_and_tuples_distinct(self):
        rng = np.random.default_rng(6)
        values = [np.sort(rng.uniform(0, 1, 5))[::-1] for _ in range(4)]
        poses = n_best_poses(values, 50)
        scores = [p.score for p in poses]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert len({p.indices for p in poses}) == len(poses)

    def test_validation(self):
        with pytest.raises(ValueError):
            n_best_poses([np.array([1.0])], 0)
        with pytest.raises(ValueError):
            n_best_poses([np.array([])], 2)

    def test_throughput_17_joints_128_candidates(self):
        import time

        rng = np.random.default_rng(7)
        values = [np.sort(rng.uniform(0, 1, 128))[::-1] for _ in range(17)]
        n_best_poses(values, 128)  # warm-up
        t0 = time.perf_counter()
        n_best_poses(values, 128)
        assert time.perf_counter() - t0 < 0.05
