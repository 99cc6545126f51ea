"""Mann-Whitney U and summary statistics tests, with an enumeration oracle."""

import math
import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest

from coreval.stats import EXACT_MAX_N, mann_whitney_u, summarize


def u_statistic(xs, ys) -> float:
    return sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in xs for y in ys)


def exact_p_by_enumeration(xs, ys) -> float:
    """Two-sided p over all C(n1+n2, n1) label assignments of the pooled values."""
    pooled = list(xs) + list(ys)
    n1 = len(xs)
    u_obs = u_statistic(xs, ys)
    indices = range(len(pooled))
    count_le = 0
    count_ge = 0
    total = 0
    for chosen in combinations(indices, n1):
        chosen_set = set(chosen)
        sample_x = [pooled[i] for i in chosen]
        sample_y = [pooled[i] for i in indices if i not in chosen_set]
        u = u_statistic(sample_x, sample_y)
        count_le += u <= u_obs
        count_ge += u >= u_obs
        total += 1
    return min(1.0, 2 * min(count_le, count_ge) / total)


class TestMannWhitney:
    def test_disjoint_samples_exact_p(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.u == 0.0
        assert res.method == "exact"
        assert res.p_value == 2 / comb(6, 3)
        assert res.p_value == 0.1

    def test_identical_multisets(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        res = mann_whitney_u(xs, list(xs))
        assert res.u == len(xs) ** 2 / 2
        assert res.p_value == 1.0
        assert res.tie_corrected

    def test_u_complement_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            xs = rng.integers(0, 6, n1).astype(float).tolist()  # ties likely
            ys = rng.integers(0, 6, n2).astype(float).tolist()
            u_xy = mann_whitney_u(xs, ys).u
            u_yx = mann_whitney_u(ys, xs).u
            assert u_xy + u_yx == n1 * n2

    def test_exact_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            values = rng.permutation(100)[: n1 + n2].astype(float)
            xs, ys = values[:n1].tolist(), values[n1:].tolist()
            res = mann_whitney_u(xs, ys)
            assert res.method == "exact"
            assert res.p_value == exact_p_by_enumeration(xs, ys)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=8).tolist()
        ys = rng.normal(size=9).tolist()
        base = mann_whitney_u(xs, ys)
        shifted = mann_whitney_u([x + 17.5 for x in xs], [y + 17.5 for y in ys])
        assert shifted.u == base.u
        assert shifted.p_value == base.p_value

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        xs = (rng.random(6) * 10).tolist()
        ys = (rng.random(7) * 10).tolist()
        base = mann_whitney_u(xs, ys)
        transformed = mann_whitney_u([np.exp(x / 3) for x in xs],
                                     [np.exp(y / 3) for y in ys])
        assert transformed.u == base.u

    def test_exact_vs_normal_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            values = rng.permutation(1000)[:20].astype(float)
            xs, ys = values[:10].tolist(), values[10:].tolist()
            exact = mann_whitney_u(xs, ys)
            assert exact.method == "exact"
            # recompute the normal path by inflating one sample size cap
            mu = 100 / 2.0
            sigma = (10 * 10 / 12.0 * 21) ** 0.5
            from math import erfc, sqrt
            z = max(0.0, abs(exact.u - mu) - 0.5) / sigma
            p_norm = min(1.0, erfc(z / sqrt(2.0)))
            assert abs(exact.p_value - p_norm) < 0.02

    def test_ties_force_normal_approx(self):
        res = mann_whitney_u([1, 2, 2], [2, 3, 4])
        assert res.method == "normal_approx"
        assert res.tie_corrected

    def test_large_samples_use_normal(self):
        xs = list(range(13))
        ys = [x + 0.5 for x in range(13)]
        res = mann_whitney_u(xs, ys)
        assert min(res.n1, res.n2) > EXACT_MAX_N
        assert res.method == "normal_approx"
        assert not res.tie_corrected

    def test_all_equal_values(self):
        res = mann_whitney_u([5.0, 5.0], [5.0, 5.0, 5.0])
        assert res.p_value == 1.0

    def test_u_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            xs = rng.normal(size=rng.integers(1, 8)).tolist()
            ys = rng.normal(size=rng.integers(1, 8)).tolist()
            res = mann_whitney_u(xs, ys)
            assert 0.0 <= res.u <= len(xs) * len(ys)
            assert 0.0 < res.p_value <= 1.0

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestSummarize:
    def test_constant(self):
        row = summarize([1.0, 1.0, 1.0])
        assert (row.mean, row.std_dev, row.range) == (1.0, 0.0, 0.0)

    def test_two_values(self):
        row = summarize([0.0, 2.0])
        assert row.mean == 1.0
        assert row.std_dev == 1.0  # population divisor
        assert row.max == 2.0
        assert row.min == 0.0
        assert row.range == 2.0

    def test_sample_divisor_flagged(self):
        row = summarize([0.0, 2.0], ddof=1)
        assert row.std_dev == pytest.approx(2 ** 0.5)

    def test_sample_divisor_of_one_value_is_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on std with ddof >= size
            row = summarize([3.0], ddof=1)
        assert math.isnan(row.std_dev)
        assert (row.mean, row.max, row.min, row.range) == (3.0, 3.0, 3.0, 0.0)

    def test_seeded_uniform_mean(self):
        rng = np.random.default_rng(7)
        row = summarize(rng.random(1000).tolist())
        assert abs(row.mean - 0.5) < 0.05
        assert row.min <= row.mean <= row.max

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
