"""Conversational-mode clustering and mode-distribution entropy.

Utterance embeddings are grouped with k-means (k-means++ initialization,
Lloyd iterations) and the number of modes is chosen by mean silhouette
score over K = 2..k_max.  The module needs numpy alone.

Squared distances are taken in Gram form |p|^2 + |c|^2 - 2 p.c, one BLAS
product of rows centered on their mean; it differs from the direct
difference form by a few 1e-15 of the largest squared distance (the tests
bound it at 1e-13).  One n x n squared distance matrix is built per
clustering call.  Every K's k-means++ seeds are drawn from its rows, since
every seed is a data point; the matrix then becomes the Euclidean one in
place, which every K's silhouette reads from one n x K product with the
one-hot labels.  So memory is O(n^2): one n x n float64 array, 6.5 MB at
900 utterances.

Every K's Lloyd run reads one frame built once per call: the rows, their
column mean, the centered rows and their squared norms, the near-tie
tolerance and one n x d scratch buffer.  Lloyd's point-to-centroid
distances are in the same Gram form (one n x K product per iteration) and
their argmin sets the labels; a point whose two nearest centroids are
within the Gram form's rounding of each other is assigned from the exact
differences instead.  The inertia and each point's distance to its own
centroid are summed from the exact differences, so the inertia guard stays
exact.  Cluster sizes come from one ``bincount``, and the centroid means
from one gather of the rows in label order.  Lloyd stops at an exact fixed
point (no centroid moved), returning the assignment just made, which
another one would repeat bit for bit; otherwise it stops after
``_MAX_LLOYD_ITERS`` iterations with one more assignment.

The implementation is deliberately self-contained so runs are
bit-reproducible given a seed: assignment ties resolve to the lowest cluster
index, empty clusters are reseeded to the point currently farthest from its
centroid, and each K uses an independent generator derived from (seed, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingMatrix

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


def cdist(points: np.ndarray, centers: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from n centered points to K centered centers.

    ``sq_norms`` holds the points' squared norms.  Entries are clamped at 0
    because rounding can make one slightly negative.  The name and the order
    of the first two arguments (n points, then K centers) follow
    ``scipy.spatial.distance.cdist``, which this replaced, because the
    benchmark's tracer wraps ``coreval.modes.cdist`` and counts
    ``len(points) * len(centers)`` entries per call.
    """
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += np.einsum("ij,ij->i", centers, centers)
    return np.maximum(d2, 0.0, out=d2)


def _kmeans_pp_init(points: np.ndarray, sq_dist: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next center drawn with probability proportional
    to squared distance from the nearest chosen center.

    The centers are data points, so a center's squared distances to every
    point are its row of ``sq_dist``, the n x n squared distance matrix.
    Each draw is ``Generator.choice(n, p=d2 / total)``'s own algorithm (one
    uniform draw searched in the normalized cumulative sum), without its
    per-call validation of ``p``: the index and the generator state are the
    same.
    """
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = sq_dist[chosen[0]].copy()
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        else:
            cdf = np.cumsum(d2 / total)
            idx = int(np.searchsorted(cdf / cdf[-1], rng.random(), side="right"))
        chosen.append(idx)
        np.minimum(d2, sq_dist[idx], out=d2)
    return points[chosen]


class _Frame(NamedTuple):
    """What every K's Lloyd run reads from the same rows, built once per call."""
    points: np.ndarray
    mean: np.ndarray
    centered: np.ndarray  # points - mean
    sq_norms: np.ndarray  # squared norms of the centered rows
    tol: float  # Gram-form entries closer than this to a row's minimum are near ties
    rows: np.ndarray  # arange(n)
    buf: np.ndarray  # n x d scratch, C order so a run of rows is one contiguous block


def _frame(points: np.ndarray) -> _Frame:
    n, dim = points.shape
    mean = points.mean(axis=0)
    centered = points - mean
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    # A Gram-form entry rounds by up to about (dim + 2) * eps * (|p|^2 + |c|^2),
    # and a center, a mean of points or a point, is no farther from the mean
    # than the farthest point.  Entries closer than 4x that to a row's minimum
    # are near ties (tight clusters far from the mean), decided from the
    # exact differences.
    tol = 4 * (dim + 2) * np.finfo(np.float64).eps * 2 * sq_norms.max()
    # one buffer for every K and iteration: a fresh n x d array each time
    # costs its page faults each time
    return _Frame(points, mean, centered, sq_norms, tol, np.arange(n), np.empty((n, dim)))


def _cluster_means(frame: _Frame, labels: np.ndarray, sizes: np.ndarray,
                   centers: np.ndarray) -> np.ndarray:
    """A copy of ``centers`` with each non-empty cluster's row set to its mean.

    The rows are gathered once into the frame's buffer in stable label
    order, so cluster j's members are one contiguous C-order block in corpus
    order, and numpy's axis-0 sum of such a block adds its rows one after
    another: the same bytes as ``points[labels == j].mean(axis=0)``.
    """
    buf = frame.buf
    np.take(frame.points, np.argsort(labels, kind="stable"), axis=0, out=buf, mode="clip")
    means = centers.copy()
    lo = 0
    for j, hi in enumerate(np.cumsum(sizes).tolist()):
        if hi > lo:
            means[j] = np.add.reduce(buf[lo:hi], axis=0) / (hi - lo)
        lo = hi
    return means


def _lloyd(frame: _Frame, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from ``centers`` until no centroid moves, at most
    ``_MAX_LLOYD_ITERS`` of them; returns (labels, centroids, inertia).

    Empty clusters are reseeded to the points farthest from their centroids,
    which keeps inertia non-increasing; an increase beyond rounding raises
    RuntimeError.  A fixed point is no cluster empty and ``new - old``
    exactly 0, which holds only where the centroids are equal.
    """
    points, mean, centered, sq_norms, tol, rows, buf = frame
    n, k = points.shape[0], centers.shape[0]

    def assign(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d2 = cdist(centered, centers - mean, sq_norms)
        labels = np.argmin(d2, axis=1)
        ties = d2 <= d2[rows, labels][:, None] + tol
        if np.count_nonzero(ties) > n:  # some point has a second center within tol
            unsure = np.flatnonzero(ties.sum(axis=1) > 1)
            close = points[unsure]
            labels[unsure] = np.argmin(
                np.stack([np.sum((close - c) ** 2, axis=1) for c in centers], axis=1), axis=1)
        # "clip" skips the copy of ``out`` that take makes to check bounds
        # (argmin labels are in range)
        np.take(centers, labels, axis=0, out=buf, mode="clip")
        np.subtract(points, buf, out=buf)
        return labels, np.einsum("ij,ij->i", buf, buf)

    prev_inertia = math.inf
    for _ in range(_MAX_LLOYD_ITERS):
        labels, nearest = assign(centers)
        inertia = float(nearest.sum())
        # relative slack: the rounding in a float sum grows with its magnitude
        if inertia > prev_inertia * (1 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia

        sizes = np.bincount(labels, minlength=k)
        new_centers = _cluster_means(frame, labels, sizes, centers)
        # reseed empties after the mean update so the farthest point is current
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            new_centers[empty] = points[np.argsort(-nearest)[:empty.size]]
        elif not (new_centers - centers).any():
            return labels, new_centers, inertia
        centers = new_centers
    labels, nearest = assign(centers)
    return labels, centers, float(nearest.sum())


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance matrix of the rows, in Gram form.

    Centering first leaves the distances unchanged and keeps the squared
    norms small far from the origin, where |p|^2 would swamp |p_i - p_j|^2.
    The squared distances are built in place in the Gram matrix, so one
    n x n array is alive.  The squared norms are read off its diagonal, which
    makes the diagonal exactly 0 ((-2g + g) + g is exact); rounding can make
    an off-diagonal entry slightly negative, so entries are clamped at 0.
    """
    centered = points - points.mean(axis=0)
    sq_dist = centered @ centered.T
    sq_norms = sq_dist.diagonal().copy()
    sq_dist *= -2.0
    sq_dist += sq_norms[:, None]
    sq_dist += sq_norms
    return np.maximum(sq_dist, 0.0, out=sq_dist)


def _mean_silhouette(dist: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Mean silhouette from the pairwise distance matrix; singleton clusters contribute 0.

    One n x K product ``dist @ onehot(labels)`` gives every point's distance
    sum to every cluster; ``a`` (own cluster, itself excluded) and ``b``
    (nearest other non-empty cluster) are read off it as whole arrays.
    """
    n = labels.shape[0]
    rows = np.arange(n)
    sizes = np.bincount(labels, minlength=k)
    onehot = np.zeros((n, k))
    onehot[rows, labels] = 1.0
    sums = dist @ onehot
    own_sizes = sizes[labels]
    a = sums[rows, labels] / np.maximum(own_sizes - 1, 1)
    means = sums / np.maximum(sizes, 1)
    means[:, sizes == 0] = math.inf
    means[rows, labels] = math.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scored = (own_sizes > 1) & (denom != 0)
    scores = np.zeros(n)
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(scores.mean())


def cluster_modes(matrix: EmbeddingMatrix | np.ndarray, k_max: int, seed: int = 42) -> ModeAssignment:
    """Cluster utterance embeddings into modes, selecting K by mean silhouette.

    Runs k-means for each K in 2..min(k_max, distinct-row count) and keeps
    the K with the highest mean silhouette (ties go to the smaller K).
    A matrix whose rows are all identical yields the degenerate single-mode
    assignment k=1.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    points = matrix.rows if isinstance(matrix, EmbeddingMatrix) else np.asarray(matrix, np.float64)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"clustering needs >= 2 utterances, got {n}")
    # adding 0.0 turns -0.0 into +0.0, so rows that differ only there count as one
    n_distinct = len({row.tobytes() for row in points + 0.0})
    if n_distinct == 1:
        return ModeAssignment(k=1, labels=np.zeros(n, dtype=np.int64),
                              centroids=points[:1].copy(), inertia=0.0, seed=seed)

    ks = range(2, min(k_max, n_distinct) + 1)
    sq_dist = _pairwise_distances(points)
    # every K's seeds are drawn before the matrix becomes the silhouette's
    # Euclidean one in place, so one n x n array is alive
    starts = [_kmeans_pp_init(points, sq_dist, k, np.random.default_rng([seed, k])) for k in ks]
    dist = np.sqrt(sq_dist, out=sq_dist)
    # built after the Gram-form temporaries are freed, so its two n x d
    # arrays are never alive next to them
    frame = _frame(points)
    best: tuple[float, int, np.ndarray, np.ndarray, float] | None = None
    for k, centers in zip(ks, starts):
        labels, centroids, inertia = _lloyd(frame, centers)
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
