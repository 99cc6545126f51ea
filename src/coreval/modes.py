"""Conversational-mode clustering and mode-distribution entropy.

Utterance embeddings are grouped with k-means (k-means++ initialization,
Lloyd iterations) and the number of modes is chosen by mean silhouette
score over K = 2..k_max.  The silhouette of every K is computed from one
pairwise Euclidean distance matrix per clustering call, so memory is O(n^2):
one n x n float64 array, 6.5 MB at 900 utterances.  That matrix is built in
Gram form, sqrt(|p_i|^2 + |p_j|^2 - 2 p_i.p_j), from one BLAS product of the
rows centered on their mean; it differs from the direct difference form by
a few 1e-8 of the largest distance (the tests bound it at 1e-7).  Lloyd's
point-to-centroid distances stay in the direct form, because their argmin
sets the labels.  The implementation is deliberately self-contained so runs
are bit-reproducible given a seed: assignment ties resolve to the lowest
cluster index, empty clusters are reseeded to the point currently farthest
from its centroid, and each K uses an independent generator derived from
(seed, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .embeddings import EmbeddingMatrix

_CENTROID_SHIFT_TOL = 1e-6
_MAX_LLOYD_ITERS = 300


@dataclass(frozen=True)
class ModeAssignment:
    k: int
    labels: np.ndarray  # one cluster id in [0, k) per utterance, corpus order
    centroids: np.ndarray
    inertia: float
    seed: int


@dataclass(frozen=True)
class ModeDistribution:
    probs: tuple[float, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.probs):
            raise ValueError("mode probabilities must be positive")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("mode probabilities must sum to 1")


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next center drawn with probability proportional
    to squared distance from the nearest chosen center."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations until the max centroid shift drops below tolerance.

    Empty clusters are reseeded to the point farthest from its assigned
    centroid, which keeps inertia non-increasing; an increase beyond
    rounding raises RuntimeError.
    """
    k = centers.shape[0]
    prev_inertia = math.inf
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(_MAX_LLOYD_ITERS):
        d2 = cdist(points, centers, metric="sqeuclidean")
        labels = np.argmin(d2, axis=1)
        nearest = d2[np.arange(points.shape[0]), labels]
        inertia = float(nearest.sum())
        # relative slack: the rounding in a float sum grows with its magnitude
        if inertia > prev_inertia * (1 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia

        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
        # reseed empties after the mean update so the farthest point is current
        empty = [j for j in range(k) if not (labels == j).any()]
        if empty:
            claimed: set[int] = set()
            order = np.argsort(-nearest)
            for j in empty:
                for cand in order:
                    if int(cand) not in claimed:
                        claimed.add(int(cand))
                        new_centers[j] = points[cand]
                        break
        shift = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        if shift < _CENTROID_SHIFT_TOL and not empty:
            break
    d2 = cdist(points, centers, metric="sqeuclidean")
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, centers, inertia


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of the rows, in Gram form.

    Centering first leaves the distances unchanged and keeps the squared
    norms small far from the origin, where |p|^2 would swamp |p_i - p_j|^2.
    The squared distances are built in place in the Gram matrix, so one
    n x n array is alive.  The squared norms are read off its diagonal, which
    makes the diagonal exactly 0 ((-2g + g) + g is exact); rounding can make
    an off-diagonal entry slightly negative, so entries are clamped at 0.
    """
    centered = points - points.mean(axis=0)
    dist = centered @ centered.T
    sq_norms = dist.diagonal().copy()
    dist *= -2.0
    dist += sq_norms[:, None]
    dist += sq_norms
    np.maximum(dist, 0.0, out=dist)
    return np.sqrt(dist, out=dist)


def _mean_silhouette(dist: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Mean silhouette from the pairwise distance matrix; singleton clusters contribute 0."""
    n = labels.shape[0]
    sizes = np.bincount(labels, minlength=k)
    a = np.zeros(n)
    b = np.full(n, math.inf)
    for j in np.flatnonzero(sizes):
        members = labels == j
        others = ~members
        sums = dist @ members.astype(np.float64)  # each point's distance sum to cluster j
        if sizes[j] > 1:
            a[members] = sums[members] / (sizes[j] - 1)
        b[others] = np.minimum(b[others], sums[others] / sizes[j])
    denom = np.maximum(a, b)
    scored = (sizes[labels] > 1) & (denom != 0)
    scores = np.zeros(n)
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(scores.mean())


def cluster_modes(matrix: EmbeddingMatrix | np.ndarray, k_max: int, seed: int = 42) -> ModeAssignment:
    """Cluster utterance embeddings into modes, selecting K by mean silhouette.

    Runs k-means for each K in 2..min(k_max, distinct-row count) and keeps
    the K with the highest mean silhouette (ties go to the smaller K).
    Every K's silhouette reads one n x n Euclidean distance matrix computed
    once per call in Gram form (``_pairwise_distances``: centered rows, one
    BLAS product, within 1e-7 of the largest distance of the direct form),
    which takes O(n^2) memory: one n x n array, 6.5 MB at n = 900.
    A matrix whose rows are all identical yields the degenerate single-mode
    assignment k=1.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    points = matrix.rows if isinstance(matrix, EmbeddingMatrix) else np.asarray(matrix, np.float64)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"clustering needs >= 2 utterances, got {n}")
    n_distinct = np.unique(points, axis=0).shape[0]
    if n_distinct == 1:
        return ModeAssignment(k=1, labels=np.zeros(n, dtype=np.int64),
                              centroids=points[:1].copy(), inertia=0.0, seed=seed)

    dist = _pairwise_distances(points)
    best: tuple[float, int, np.ndarray, np.ndarray, float] | None = None
    for k in range(2, min(k_max, n_distinct) + 1):
        rng = np.random.default_rng([seed, k])
        centers = _kmeans_pp_init(points, k, rng)
        labels, centroids, inertia = _lloyd(points, centers)
        score = _mean_silhouette(dist, labels, k)
        if best is None or score > best[0]:
            best = (score, k, labels, centroids, inertia)
    assert best is not None
    _, k, labels, centroids, inertia = best
    return ModeAssignment(k=k, labels=labels, centroids=centroids, inertia=inertia, seed=seed)


def mode_distribution(assignment: ModeAssignment) -> ModeDistribution:
    """Empirical frequencies of each mode id over the utterances."""
    counts = np.bincount(assignment.labels, minlength=assignment.k)
    if (counts == 0).any():
        raise ValueError("assignment has an empty cluster id")
    probs = counts / counts.sum()
    return ModeDistribution(probs=tuple(float(p) for p in probs))


def entropy(dist: ModeDistribution) -> float:
    """Shannon entropy -sum(p ln p) in nats; 0 for a point mass."""
    return float(-sum(p * math.log(p) for p in dist.probs))


def normalized_entropy(dist: ModeDistribution, k_max: int) -> float:
    """Entropy divided by ln(k_max), clamped to [0, 1]."""
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    return min(1.0, max(0.0, entropy(dist) / math.log(k_max)))
