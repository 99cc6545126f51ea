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

# The oracle Lloyds below also stop once no centroid moves by this much, an
# exit ``modes._lloyd`` does not have: it stops only at an exact fixed point
# or the iteration cap.  The exit never fires on the point sets here, so
# their equality with ``modes._lloyd`` also shows Lloyd needs no such exit.
ORACLE_SHIFT_TOL = 1e-6


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


def direct_kmeans_pp_init(points, k, rng):
    """k-means++ seeding with squared distances from the direct difference
    form: the reference for seeding from the Gram-form matrix."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def cdist_lloyd(points, centers):
    """Lloyd iterations on scipy's exact point-to-centroid distances: the
    reference for the Gram-form assignment with exact inertia."""
    k = centers.shape[0]
    prev_inertia = math.inf
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(modes._MAX_LLOYD_ITERS):
        d2 = cdist(points, centers, metric="sqeuclidean")
        labels = np.argmin(d2, axis=1)
        nearest = d2[np.arange(points.shape[0]), labels]
        inertia = float(nearest.sum())
        if inertia > prev_inertia * (1 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
        empty = [j for j in range(k) if not (labels == j).any()]
        if empty:
            claimed = set()
            order = np.argsort(-nearest)
            for j in empty:
                for cand in order:
                    if int(cand) not in claimed:
                        claimed.add(int(cand))
                        new_centers[j] = points[cand]
                        break
        shift = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        if shift < ORACLE_SHIFT_TOL and not empty:
            break
    d2 = cdist(points, centers, metric="sqeuclidean")
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, centers, inertia


def final_assign_lloyd(points, centers):
    """The Lloyd loop before the fixed-point return, which always ends with
    one more assignment: the reference for returning at an exact fixed point."""
    (n, dim), k = points.shape, centers.shape[0]
    mean = points.mean(axis=0)
    centered = points - mean
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    tol = 4 * (dim + 2) * np.finfo(np.float64).eps * 2 * sq_norms.max()
    rows = np.arange(n)
    diff = np.empty_like(points)

    def assign(centers):
        d2 = modes.cdist(centered, centers - mean, sq_norms)
        labels = np.argmin(d2, axis=1)
        ties = d2 <= d2[rows, labels][:, None] + tol
        if np.count_nonzero(ties) > n:
            unsure = np.flatnonzero(ties.sum(axis=1) > 1)
            close = points[unsure]
            labels[unsure] = np.argmin(
                np.stack([np.sum((close - c) ** 2, axis=1) for c in centers], axis=1), axis=1)
        np.take(centers, labels, axis=0, out=diff, mode="clip")
        np.subtract(points, diff, out=diff)
        return labels, np.einsum("ij,ij->i", diff, diff)

    prev_inertia = math.inf
    for _ in range(modes._MAX_LLOYD_ITERS):
        labels, nearest = assign(centers)
        inertia = float(nearest.sum())
        if inertia > prev_inertia * (1 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
        empty = [j for j in range(k) if not (labels == j).any()]
        if empty:
            claimed = set()
            order = np.argsort(-nearest)
            for j in empty:
                for cand in order:
                    if int(cand) not in claimed:
                        claimed.add(int(cand))
                        new_centers[j] = points[cand]
                        break
        shift = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        if shift < ORACLE_SHIFT_TOL and not empty:
            break
    labels, nearest = assign(centers)
    return labels, centers, float(nearest.sum())


def choice_kmeans_pp_init(points, sq_dist, k, rng):
    """k-means++ seeding that draws each seed with ``Generator.choice``: the
    reference for the draw without choice's validation of ``p``."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = sq_dist[chosen[0]].copy()
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        np.minimum(d2, sq_dist[idx], out=d2)
    return points[chosen]


def masked_mean_lloyd(points, centers):
    """Lloyd that builds its centered rows, tie tolerance and buffer on every
    call, takes one masked ``.mean`` per cluster and tests the fixed point
    with ``np.array_equal``: the reference for the shared frame, the
    one-gather means and the exact ``new - old`` fixed-point test."""
    (n, dim), k = points.shape, centers.shape[0]
    mean = points.mean(axis=0)
    centered = points - mean
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    tol = 4 * (dim + 2) * np.finfo(np.float64).eps * 2 * sq_norms.max()
    rows = np.arange(n)
    diff = np.empty_like(points)

    def assign(centers):
        d2 = modes.cdist(centered, centers - mean, sq_norms)
        labels = np.argmin(d2, axis=1)
        ties = d2 <= d2[rows, labels][:, None] + tol
        if np.count_nonzero(ties) > n:
            unsure = np.flatnonzero(ties.sum(axis=1) > 1)
            close = points[unsure]
            labels[unsure] = np.argmin(
                np.stack([np.sum((close - c) ** 2, axis=1) for c in centers], axis=1), axis=1)
        np.take(centers, labels, axis=0, out=diff, mode="clip")
        np.subtract(points, diff, out=diff)
        return labels, np.einsum("ij,ij->i", diff, diff)

    prev_inertia = math.inf
    for _ in range(modes._MAX_LLOYD_ITERS):
        labels, nearest = assign(centers)
        inertia = float(nearest.sum())
        if inertia > prev_inertia * (1 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia
        sizes = np.bincount(labels, minlength=k)
        new_centers = centers.copy()
        for j in np.flatnonzero(sizes):
            new_centers[j] = points[labels == j].mean(axis=0)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            new_centers[empty] = points[np.argsort(-nearest)[:empty.size]]
        elif np.array_equal(new_centers, centers):
            return labels, new_centers, inertia
        shift = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        if shift < ORACLE_SHIFT_TOL and not empty.size:
            break
    labels, nearest = assign(centers)
    return labels, centers, float(nearest.sum())


def matvec_silhouette(dist, labels, k):
    """Mean silhouette from one matrix-vector product per cluster: the
    reference for the one-product form."""
    n = labels.shape[0]
    sizes = np.bincount(labels, minlength=k)
    a = np.zeros(n)
    b = np.full(n, math.inf)
    for j in np.flatnonzero(sizes):
        members = labels == j
        others = ~members
        sums = dist @ members.astype(np.float64)
        if sizes[j] > 1:
            a[members] = sums[members] / (sizes[j] - 1)
        b[others] = np.minimum(b[others], sums[others] / sizes[j])
    denom = np.maximum(a, b)
    scored = (sizes[labels] > 1) & (denom != 0)
    scores = np.zeros(n)
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(scores.mean())


def draw_weights(kind, n, rng):
    """Weights for k-means++ draws: all zero, uniform, half zeros, one
    nonzero entry, or spread over 600 orders of magnitude."""
    if kind == "all_zero":
        return np.zeros(n)
    if kind == "one_nonzero":
        w = np.zeros(n)
        w[int(rng.integers(n))] = rng.random() + 0.5
        return w
    w = rng.random(n)
    if kind == "zeros":
        w[rng.random(n) < 0.5] = 0.0
    elif kind == "wide_range":
        w = 10.0 ** rng.uniform(-300, 300, n)
    return w


def signed_zero_grid(seed):
    """Points on a {-1, 0, 1} grid with some zeros negative, repeated rows included."""
    rng = np.random.default_rng(seed)
    points = rng.integers(-1, 2, size=(int(rng.integers(4, 60)), int(rng.integers(1, 6))))
    points = points.astype(np.float64)
    points[(points == 0) & (rng.random(points.shape) < 0.5)] = -0.0
    return points


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
    # unit spread 1e8 from the origin, where uncentered Gram-form entries
    # would round by more than the distances
    sets.append(("far_unit", 1e8 + np.random.default_rng(11).normal(size=(60, 3)), 10))
    # blobs 1e4 apart with spread 1e-4: Gram-form distances within a blob
    # are mostly rounding, so Lloyd needs its exact near-tie decision and its
    # exact inertia here
    rng = np.random.default_rng(12)
    sets.append(("tight_far_apart", gaussian_blobs(rng, np.array([[0.0] * 3, [1e4] * 3]), 20,
                                                   sigma=1e-4)[0], 10))
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

    def test_rows_differing_in_zero_sign_count_once(self, monkeypatch):
        # as in np.unique, -0.0 equals 0.0: these rows are all one point
        calls = []
        monkeypatch.setattr(modes, "cdist", lambda *args: calls.append(args))
        monkeypatch.setattr(modes, "_pairwise_distances", lambda p: calls.append(p))
        same = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
        assignment = cluster_modes(same, k_max=5, seed=42)
        assert assignment.k == 1
        assert np.array_equal(assignment.labels, np.zeros(4, dtype=np.int64))
        assert calls == []
        monkeypatch.undo()
        two = np.vstack([same, [[-0.0, 5.0], [0.0, 5.0]]])
        assert cluster_modes(two, k_max=10, seed=42).k == 2

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
            sq_dist = modes._pairwise_distances(points)
            exact = cdist(points, points, "sqeuclidean")
            scale = exact.max()
            assert np.abs(sq_dist - sq_dist.T).max() <= 1e-13 * scale, (trial, n, dim)
            assert (np.diagonal(sq_dist) == 0.0).all()
            assert np.abs(sq_dist - exact).max() <= 1e-13 * scale, (trial, n, dim)

    @pytest.mark.parametrize("points,k_max", [pytest.param(p, k, id=name) for name, p, k in blob_sets()])
    def test_selection_matches_cdist(self, monkeypatch, points, k_max):
        fast = cluster_modes(points, k_max=k_max, seed=42)
        monkeypatch.setattr(modes, "_pairwise_distances", lambda p: cdist(p, p, "sqeuclidean"))
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
        # after the first assignment every point goes to its farthest center,
        # which raises the exact inertia
        real = modes.cdist
        calls = itertools.count()

        def farthest_after_first(points, centers, *args):
            d2 = real(points, centers, *args)
            return d2 if next(calls) == 0 else -d2

        monkeypatch.setattr(modes, "cdist", farthest_after_first)
        points = np.random.default_rng(9).normal(size=(20, 2))
        with pytest.raises(RuntimeError, match="inertia increased"):
            modes._lloyd(modes._frame(points), points[:2].copy())

    def test_cdist_matches_scipy(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            n, dim, k = int(rng.integers(2, 200)), int(rng.integers(1, 100)), int(rng.integers(1, 11))
            points = rng.normal(size=(n, dim)) * rng.random() * 10 + (0.0, 1e3, 1e7)[trial % 3]
            # centers on points give zero distances, which rounding can push below 0
            mean = points.mean(axis=0)
            centers = np.vstack([points[rng.integers(0, n, k)], rng.normal(size=(k, dim)) + mean])
            centered = points - mean
            d2 = modes.cdist(centered, centers - mean, np.einsum("ij,ij->i", centered, centered))
            exact = cdist(points, centers, "sqeuclidean")
            assert (d2 >= 0.0).all()
            assert np.abs(d2 - exact).max() <= 1e-13 * exact.max(), trial

    @pytest.mark.parametrize("points,k_max", [pytest.param(p, k, id=name) for name, p, k in blob_sets()])
    def test_matches_cdist_oracle(self, monkeypatch, points, k_max):
        fast = cluster_modes(points, k_max=k_max, seed=42)
        monkeypatch.setattr(modes, "_lloyd",
                            lambda frame, centers: cdist_lloyd(frame.points, centers))
        slow = cluster_modes(points, k_max=k_max, seed=42)
        assert fast.k == slow.k
        assert np.array_equal(fast.labels, slow.labels)
        assert fast.inertia == pytest.approx(slow.inertia, rel=1e-9, abs=0.0)


class TestFixedPoint:
    def test_start_at_exact_means_assigns_once(self, monkeypatch):
        rng = np.random.default_rng(16)
        points, truth = gaussian_blobs(rng, np.eye(3) * 50.0, 30)
        start = np.stack([points[truth == j].mean(axis=0) for j in range(3)])
        calls = []
        real = modes.cdist

        def counting_cdist(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(modes, "cdist", counting_cdist)
        labels, centers, inertia = modes._lloyd(modes._frame(points), start.copy())
        assert calls == [3]
        assert np.array_equal(labels, truth)
        assert np.array_equal(centers, start)
        assert inertia == pytest.approx(float(np.sum((points - start[truth]) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("points,k_max", [pytest.param(p, k, id=name) for name, p, k in blob_sets()])
    def test_matches_final_assign_reference(self, monkeypatch, points, k_max):
        fast = cluster_modes(points, k_max=k_max, seed=42)
        monkeypatch.setattr(modes, "_lloyd",
                            lambda frame, centers: final_assign_lloyd(frame.points, centers))
        slow = cluster_modes(points, k_max=k_max, seed=42)
        assert fast.k == slow.k
        assert fast.labels.tobytes() == slow.labels.tobytes()
        assert fast.centroids.tobytes() == slow.centroids.tobytes()
        assert fast.inertia == slow.inertia

    def test_signed_zeros_match_final_assign_reference(self):
        # -0.0 and 0.0 compare equal in the fixed-point test, but the centroids
        # returned must carry the same bits as after a final assignment
        rng = np.random.default_rng(17)
        for seed in range(40):
            points = signed_zero_grid(seed)
            k = int(rng.integers(1, min(len(points), 6) + 1))
            start = points[rng.choice(len(points), k, replace=False)]
            got = modes._lloyd(modes._frame(points), start.copy())
            want = final_assign_lloyd(points, start.copy())
            assert got[0].tobytes() == want[0].tobytes(), seed
            assert got[1].tobytes() == want[1].tobytes(), seed
            assert got[2] == want[2], seed


    @pytest.mark.parametrize("cap", [1, 2])
    def test_iteration_cap_matches_final_assign_reference(self, monkeypatch, cap):
        # the cap is the one exit that is not a fixed point: it ends with one
        # more assignment, to the means the last iteration computed
        monkeypatch.setattr(modes, "_MAX_LLOYD_ITERS", cap)
        for name, points, k_max in blob_sets():
            fast = cluster_modes(points, k_max=k_max, seed=42)
            with monkeypatch.context() as patch:
                patch.setattr(modes, "_lloyd",
                              lambda frame, centers: final_assign_lloyd(frame.points, centers))
                slow = cluster_modes(points, k_max=k_max, seed=42)
            assert fast.k == slow.k, name
            assert fast.labels.tobytes() == slow.labels.tobytes(), name
            assert fast.centroids.tobytes() == slow.centroids.tobytes(), name
            assert fast.inertia == slow.inertia, name
        for seed in range(40):
            points = signed_zero_grid(seed)
            start = points[:min(len(points), 1 + seed % 5)]
            got = modes._lloyd(modes._frame(points), start.copy())
            want = final_assign_lloyd(points, start.copy())
            assert got[0].tobytes() == want[0].tobytes(), seed
            assert got[1].tobytes() == want[1].tobytes(), seed
            assert got[2] == want[2], seed


class TestSeeding:
    @pytest.mark.parametrize("points,k_max", [pytest.param(p, k, id=name) for name, p, k in blob_sets()])
    def test_matches_direct_form_oracle(self, monkeypatch, points, k_max):
        fast = cluster_modes(points, k_max=k_max, seed=42)
        monkeypatch.setattr(modes, "_kmeans_pp_init",
                            lambda points, sq_dist, k, rng: direct_kmeans_pp_init(points, k, rng))
        slow = cluster_modes(points, k_max=k_max, seed=42)
        assert fast.k == slow.k
        assert np.array_equal(fast.labels, slow.labels)


    @pytest.mark.parametrize("kind", ["all_zero", "uniform", "zeros", "one_nonzero", "wide_range"])
    def test_draw_matches_choice(self, kind):
        # every row of the matrix is the same weight vector, so every draw
        # after the first is weighted by it; the seeds are the row indices
        rng = np.random.default_rng(19)
        for n in (*range(1, 13), 50, 257, 999, 1000):
            w = draw_weights(kind, n, rng)
            sq_dist = np.broadcast_to(w, (n, n))
            points = np.arange(n, dtype=np.float64)[:, None]
            for seed in range(4):
                got_rng, want_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
                got = modes._kmeans_pp_init(points, sq_dist, 8, got_rng)
                want = choice_kmeans_pp_init(points, sq_dist, 8, want_rng)
                assert got.tobytes() == want.tobytes(), (kind, n, seed)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state, (kind, n, seed)

    def test_gram_matrix_draws_match_choice(self):
        for name, points, k_max in blob_sets():
            sq_dist = modes._pairwise_distances(points)
            for k in range(2, k_max + 1):
                got_rng, want_rng = np.random.default_rng([42, k]), np.random.default_rng([42, k])
                got = modes._kmeans_pp_init(points, sq_dist, k, got_rng)
                want = choice_kmeans_pp_init(points, sq_dist, k, want_rng)
                assert got.tobytes() == want.tobytes(), (name, k)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state, (name, k)


class TestSharedFrame:
    def test_cluster_means_match_masked_mean(self):
        rng = np.random.default_rng(20)
        for trial in range(240):
            if trial % 4 == 3:  # signed zeros, whose sign a mean must keep
                points = signed_zero_grid(trial)
            else:
                n, dim = int(rng.integers(1, 200)), int(rng.integers(1, 40))
                points = rng.normal(size=(n, dim)) * rng.random() * 10 + (0.0, 1e3, 1e7)[trial % 3]
            n, dim = points.shape
            k = int(rng.integers(1, 12))
            labels = rng.integers(0, k, n)
            labels[labels == k - 1] = 0  # id k - 1 empty, and others when n is small
            sizes = np.bincount(labels, minlength=k)
            centers = rng.normal(size=(k, dim))
            before = centers.tobytes()
            got = modes._cluster_means(modes._frame(points), labels, sizes, centers)
            assert centers.tobytes() == before
            for j in range(k):
                want = points[labels == j].mean(axis=0) if sizes[j] else centers[j]
                assert got[j].tobytes() == want.tobytes(), (trial, j)

    @staticmethod
    def per_call_reference(monkeypatch, points, k_max, seed):
        with monkeypatch.context() as patch:
            patch.setattr(modes, "_kmeans_pp_init", choice_kmeans_pp_init)
            patch.setattr(modes, "_lloyd",
                          lambda frame, centers: masked_mean_lloyd(frame.points, centers))
            patch.setattr(modes, "_mean_silhouette", matvec_silhouette)
            return cluster_modes(points, k_max=k_max, seed=seed)

    @staticmethod
    def assert_same(fast, slow):
        assert fast.k == slow.k
        assert fast.labels.tobytes() == slow.labels.tobytes()
        assert fast.centroids.tobytes() == slow.centroids.tobytes()
        assert fast.inertia == slow.inertia

    @pytest.mark.parametrize("points,k_max", [pytest.param(p, k, id=name) for name, p, k in blob_sets()])
    def test_matches_per_call_reference(self, monkeypatch, points, k_max):
        fast = cluster_modes(points, k_max=k_max, seed=42)
        self.assert_same(fast, self.per_call_reference(monkeypatch, points, k_max, 42))

    def test_signed_zero_grids_match_per_call_reference(self, monkeypatch):
        for seed in range(40):
            points = signed_zero_grid(seed)
            fast = cluster_modes(points, k_max=6, seed=seed)
            self.assert_same(fast, self.per_call_reference(monkeypatch, points, 6, seed))
