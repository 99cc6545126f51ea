"""Clustering and entropy tests: blob oracles, determinism, invariances."""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from coreval import modes
from coreval.corpus import Corpus, parse_corpus
from coreval.embeddings import load_embeddings
from coreval.modes import (
    ModeAssignment, ModeDistribution, cluster_modes, entropy, mode_distribution,
    normalized_entropy,
)
from conftest import DATA_DIR, adjusted_rand_index


def gaussian_blobs(rng, centers, n_per, sigma=0.01):
    points = []
    labels = []
    for i, center in enumerate(centers):
        points.append(center + rng.normal(size=(n_per, len(center))) * sigma)
        labels.extend([i] * n_per)
    return np.vstack(points), np.array(labels)


def loop_silhouette(dist, labels, k) -> float:
    """Per-point silhouette loop: the reference for the vectorized form."""
    n = dist.shape[0]
    sizes = np.bincount(labels, minlength=k)
    scores = np.zeros(n)
    for i in range(n):
        own = labels[i]
        if sizes[own] <= 1:
            continue
        a = dist[i, labels == own].sum() / (sizes[own] - 1)
        b = math.inf
        for j in range(k):
            if j == own or sizes[j] == 0:
                continue
            b = min(b, dist[i, labels == j].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def far_from_origin(seed):
    return 1e7 + np.random.default_rng(seed).normal(size=(60, 3)) * 1e4


def blob_sets():
    """The point sets the clustering tests below run on, plus the fixture's
    embeddings and their condition subsets, as (name, points, k_max)."""
    sets = []
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    sets.append(("three_blobs", gaussian_blobs(rng, centers, 50)[0], 10))
    sets.append(("normal_40x5", np.random.default_rng(1).normal(size=(40, 5)), 6))
    rng = np.random.default_rng(2)
    for trial in range(10):
        sets.append((f"normal_{trial}", rng.normal(size=(rng.integers(4, 25), 3)), 10))
    sets.append(("two_distinct", np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]]), 10))
    rng = np.random.default_rng(3)
    base = rng.integers(0, 1024, size=(30, 4)).astype(np.float64) / 1024.0
    base[:10] += 8.0
    base[10:20] += 16.0
    sets += [("quantized", base, 6), ("quantized_shifted", base + 1024.0, 6)]
    rng = np.random.default_rng(6)
    points, _ = gaussian_blobs(rng, np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]]), 20)
    sets += [("blobs_60", points, 8), ("blobs_doubled", np.vstack([points, points]), 8)]
    rng = np.random.default_rng(7)
    for k_true in (2, 4, 5):
        sets.append((f"eye_{k_true}", gaussian_blobs(rng, np.eye(k_true) * 20.0, 25)[0], 10))
    for seed in range(3):
        sets.append((f"far_{seed}", far_from_origin(seed), 10))
    with open(DATA_DIR / "fixture_corpus.jsonl", "rb") as fh:
        corpus = parse_corpus(fh)
    matrix = load_embeddings(DATA_DIR / "fixture_embeddings.jsonl", corpus)
    sets.append(("fixture", matrix.rows, 10))
    for condition in sorted({d.condition for d in corpus.dialogs}):
        sub = Corpus(dialogs=tuple(d for d in corpus.dialogs if d.condition == condition))
        sets.append((f"fixture_{condition}", matrix.subset(sub).rows, 10))
    return sets


def assignment_from_labels(labels) -> ModeAssignment:
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1
    return ModeAssignment(k=k, labels=labels, centroids=np.zeros((k, 2)),
                          inertia=0.0, seed=0)


class TestClusterModes:
    def test_three_blobs_recovered(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        points, truth = gaussian_blobs(rng, centers, 50)
        assignment = cluster_modes(points, k_max=10, seed=42)
        assert assignment.k == 3
        assert adjusted_rand_index(assignment.labels, truth) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(40, 5))
        a = cluster_modes(points, k_max=6, seed=42)
        b = cluster_modes(points, k_max=6, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert a.k == b.k
        assert a.inertia == b.inertia

    def test_all_identical_rows(self):
        points = np.tile(np.array([1.0, 2.0, 3.0]), (7, 1))
        assignment = cluster_modes(points, k_max=5, seed=42)
        assert assignment.k == 1
        assert np.array_equal(assignment.labels, np.zeros(7, dtype=np.int64))
        assert assignment.inertia == 0.0

    def test_every_cluster_id_appears(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            points = rng.normal(size=(rng.integers(4, 25), 3))
            assignment = cluster_modes(points, k_max=10, seed=trial)
            present = set(assignment.labels.tolist())
            assert present == set(range(assignment.k))

    def test_k_capped_by_distinct_rows(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        assignment = cluster_modes(points, k_max=10, seed=42)
        assert assignment.k == 2

    def test_translation_invariance(self):
        # data quantized to 1/1024 so adding 1024 is exact in float64 and the
        # squared-distance geometry is bit-identical after translation
        rng = np.random.default_rng(3)
        base = rng.integers(0, 1024, size=(30, 4)).astype(np.float64) / 1024.0
        base[:10] += 8.0
        base[10:20] += 16.0
        shifted = base + 1024.0
        a = cluster_modes(base, k_max=6, seed=42)
        b = cluster_modes(shifted, k_max=6, seed=42)
        assert a.k == b.k
        assert np.array_equal(a.labels, b.labels)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            cluster_modes(np.ones((4, 2)), k_max=1)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            cluster_modes(np.ones((1, 2)), k_max=3)


class TestModeDistribution:
    def test_half_half(self):
        dist = mode_distribution(assignment_from_labels([0, 0, 1, 1]))
        assert dist.probs == (0.5, 0.5)

    def test_point_mass(self):
        dist = mode_distribution(assignment_from_labels([0, 0, 0]))
        assert dist.probs == (1.0,)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            labels = np.concatenate([np.arange(k), rng.integers(0, k, 30)])
            dist = mode_distribution(assignment_from_labels(labels))
            assert abs(sum(dist.probs) - 1.0) < 1e-12

    def test_positive_probs_enforced(self):
        with pytest.raises(ValueError):
            ModeDistribution(probs=(0.5, 0.5, 0.0))


class TestEntropy:
    def test_point_mass_zero(self):
        assert entropy(ModeDistribution(probs=(1.0,))) == 0.0

    def test_uniform_four(self):
        dist = ModeDistribution(probs=(0.25,) * 4)
        assert entropy(dist) == pytest.approx(math.log(4), abs=1e-12)

    def test_half_quarter_quarter(self):
        dist = ModeDistribution(probs=(0.5, 0.25, 0.25))
        assert entropy(dist) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_permutation_invariant(self):
        a = ModeDistribution(probs=(0.6, 0.3, 0.1))
        b = ModeDistribution(probs=(0.1, 0.6, 0.3))
        assert entropy(a) == pytest.approx(entropy(b), abs=1e-12)


class TestNormalizedEntropy:
    def test_uniform_over_kmax(self):
        dist = ModeDistribution(probs=(0.2,) * 5)
        assert normalized_entropy(dist, 5) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert normalized_entropy(ModeDistribution(probs=(1.0,)), 10) == 0.0

    def test_half_split_kmax_four(self):
        dist = ModeDistribution(probs=(0.5, 0.5))
        assert normalized_entropy(dist, 4) == pytest.approx(0.5, abs=1e-12)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(2, 8))
            raw = rng.random(k) + 0.01
            dist = ModeDistribution(probs=tuple(raw / raw.sum()))
            value = normalized_entropy(dist, int(rng.integers(2, 11)))
            assert 0.0 <= value <= 1.0

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            normalized_entropy(ModeDistribution(probs=(1.0,)), 1)


class TestClusterQuality:
    def test_duplicated_points_same_distribution(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
        points, _ = gaussian_blobs(rng, centers, 20)
        doubled = np.vstack([points, points])
        a = cluster_modes(points, k_max=8, seed=42)
        b = cluster_modes(doubled, k_max=8, seed=42)
        assert a.k == b.k
        da = mode_distribution(a)
        db = mode_distribution(b)
        assert sorted(da.probs) == pytest.approx(sorted(db.probs), abs=1e-12)

    def test_silhouette_prefers_true_k(self):
        rng = np.random.default_rng(7)
        for k_true in (2, 4, 5):
            centers = np.eye(k_true) * 20.0
            points, truth = gaussian_blobs(rng, centers, 25)
            assignment = cluster_modes(points, k_max=10, seed=42)
            assert assignment.k == k_true
            assert adjusted_rand_index(assignment.labels, truth) == 1.0


class TestSilhouette:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(60):
            n = int(rng.integers(3, 301))
            k = int(rng.integers(2, min(n, 10) + 1))
            if trial % 3 == 0:  # repeated rows make zero distances and zero denominators
                pool = rng.normal(size=(int(rng.integers(1, 6)), 3))
                points = pool[rng.integers(0, len(pool), n)]
            else:
                points = rng.normal(size=(n, int(rng.integers(1, 9)))) * rng.random() * 10
            # lopsided sizes over clusters 0..k-2, then one singleton in cluster k-1
            weights = rng.dirichlet(np.full(k - 1, 0.3))
            labels = rng.choice(k - 1, size=n, p=weights)
            labels[int(rng.integers(n))] = k - 1
            k_arg = k + int(rng.integers(0, 2))  # sometimes a trailing empty cluster id
            dist = cdist(points, points)
            fast = modes._mean_silhouette(dist, labels, k_arg)
            assert abs(fast - loop_silhouette(dist, labels, k_arg)) <= 1e-12, (trial, n, k)

    @pytest.mark.parametrize("points,k_max", [pytest.param(p, k, id=name) for name, p, k in blob_sets()])
    def test_selection_matches_loop_oracle(self, monkeypatch, points, k_max):
        fast = cluster_modes(points, k_max=k_max, seed=42)
        monkeypatch.setattr(modes, "_mean_silhouette", loop_silhouette)
        slow = cluster_modes(points, k_max=k_max, seed=42)
        assert fast.k == slow.k
        assert np.array_equal(fast.labels, slow.labels)

    def test_one_pairwise_matrix_per_call(self, monkeypatch):
        pairwise, shapes = [], []
        real_pairwise, real_cdist = modes._pairwise_distances, modes.cdist

        def counting_pairwise(points):
            pairwise.append(len(points))
            return real_pairwise(points)

        def counting_cdist(xa, xb, *args, **kwargs):
            shapes.append((len(xa), len(xb)))
            return real_cdist(xa, xb, *args, **kwargs)

        monkeypatch.setattr(modes, "_pairwise_distances", counting_pairwise)
        monkeypatch.setattr(modes, "cdist", counting_cdist)
        for _, points, k_max in blob_sets():
            n = len(points)
            pairwise.clear()
            shapes.clear()
            cluster_modes(points, k_max=k_max, seed=42)
            assert pairwise == [n]
            # what is left on cdist is Lloyd's points-to-centroids distances
            assert shapes and all(rows == n and k <= k_max for rows, k in shapes)
        pairwise.clear()
        shapes.clear()
        assignment = cluster_modes(np.tile([1.0, 2.0], (12, 1)), k_max=5, seed=42)
        assert assignment.k == 1
        assert pairwise == [] and shapes == []


class TestPairwiseDistances:
    def test_matches_cdist(self):
        rng = np.random.default_rng(10)
        for trial in range(90):
            n = int(rng.integers(3, 301))
            dim = int(rng.integers(1, 401))
            if trial % 3 == 0:  # repeated rows: their distances must come out (near) zero
                pool = rng.normal(size=(int(rng.integers(2, 6)), dim))
                points = pool[rng.integers(0, len(pool), n)]
                points[:2] = pool[:2]  # at least two distinct rows
            else:
                points = rng.normal(size=(n, dim)) * rng.random() * 10
            points = points + (0.0, 1e3, 1e7)[trial // 3 % 3]
            dist = modes._pairwise_distances(points)
            exact = cdist(points, points)
            scale = exact.max()
            assert np.abs(dist - dist.T).max() <= 1e-7 * scale, (trial, n, dim)
            assert (np.diagonal(dist) == 0.0).all()
            assert np.abs(dist - exact).max() <= 1e-7 * scale, (trial, n, dim)

    @pytest.mark.parametrize("points,k_max", [pytest.param(p, k, id=name) for name, p, k in blob_sets()])
    def test_selection_matches_cdist(self, monkeypatch, points, k_max):
        fast = cluster_modes(points, k_max=k_max, seed=42)
        monkeypatch.setattr(modes, "_pairwise_distances", lambda p: cdist(p, p))
        slow = cluster_modes(points, k_max=k_max, seed=42)
        assert fast.k == slow.k
        assert np.array_equal(fast.labels, slow.labels)


class TestLloyd:
    def test_far_from_origin_clusters(self):
        # inertia near 1e10 carries rounding far above any fixed absolute tolerance
        for seed in range(3):
            assignment = cluster_modes(far_from_origin(seed), k_max=10, seed=seed)
            assert set(assignment.labels.tolist()) == set(range(assignment.k))

    def test_inertia_increase_raises(self, monkeypatch):
        # a uniform, growing offset keeps every argmin but raises the inertia each iteration
        real = modes.cdist
        calls = itertools.count(1)
        monkeypatch.setattr(modes, "cdist",
                            lambda xa, xb, **kw: real(xa, xb, **kw) + 1e3 * next(calls))
        points = np.random.default_rng(9).normal(size=(20, 2))
        with pytest.raises(RuntimeError, match="inertia increased"):
            modes._lloyd(points, points[:2].copy())
