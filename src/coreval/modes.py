"""Conversational-mode clustering.

Utterance embeddings are grouped with k-means (k-means++ initialization,
Lloyd iterations) and the number of modes is chosen by mean silhouette
score over K = 2..k_max.  The module needs numpy alone.

Every squared distance, in seeding, Lloyd and the silhouette pass, comes
from one kernel, ``cdist``: the Gram form |p|^2 + |c|^2 - 2 p.c of rows
centered on their mean, so |p|^2 does not swamp |p - c|^2 far from the
origin.  It is within a few 1e-15 of the largest squared distance of the
difference form (the tests bound it at 1e-13); no n x n matrix is built.
Every k-means++ seed is a data point, and every K is seeded in lockstep,
one block per draw step: step j draws the next seed of every K that still
needs one, then one block of those seeds' rows updates their distances.
The silhouettes of every K are scored after every K's Lloyd run, in one
pass over blocks of ``_BLOCK_ROWS`` rows: each block's Euclidean distances
to every row are multiplied by one n x sum(K) matrix of every K's one-hot
labels, which gives every point's distance sum to every cluster of every
K.  So memory is O(n * (d + sum(K)) + B * n) for B = ``_BLOCK_ROWS``: at
n = 900 a block is 0.9 MB, where an n x n matrix would be 6.5 MB.  The
count of distinct rows that bounds K copies no rows: it reads one row at a
time and stops at k_max.

Every K's Lloyd run reads one frame built once per call: the rows, their
column mean, the centered rows and their squared norms and the near-tie
tolerance.  Lloyd's point-to-centroid distances are one n x K ``cdist``
per iteration, and their argmin sets the labels; a point whose two nearest
centroids are within the Gram form's rounding of each other is assigned
from the exact differences instead.  The inertia and each point's distance
to its own centroid are summed from the exact differences, taken over
blocks of ``_BLOCK_ROWS`` rows, so the inertia guard stays exact.
Cluster sizes come from one ``bincount``, and each centroid mean from one
gather of its cluster's rows.  So besides the centered rows Lloyd holds one
``_BLOCK_ROWS`` x d block of differences and one cluster's gathered rows at
a time; that gather reaches n x d when one cluster holds nearly every row.
Lloyd stops at an exact fixed point (no centroid moved), returning the
assignment just made, which another one would repeat bit for bit; otherwise
it stops after ``_MAX_LLOYD_ITERS`` iterations with one more assignment.

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
# rows of one block of distances in the silhouette pass, a block of
# _BLOCK_ROWS x n float64 (128 rows of 9,000 points are 9.2 MB), and of
# Lloyd's point-to-own-centroid differences, _BLOCK_ROWS x d
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class ModeAssignment:
    k: int
    labels: np.ndarray  # one cluster id in [0, k) per utterance, corpus order
    centroids: np.ndarray
    inertia: float


def cdist(points: np.ndarray, centers: np.ndarray, sq_norms: np.ndarray,
          center_sq_norms: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from n centered points to K centered centers.

    ``sq_norms`` and ``center_sq_norms`` hold their squared norms.  Entries
    are clamped at 0 because rounding can make one slightly negative.  The
    name and the order of the first two arguments (n points, then K centers)
    follow ``scipy.spatial.distance.cdist``, which this replaced, because the
    benchmark's tracer wraps ``coreval.modes.cdist`` and counts
    ``len(points) * len(centers)`` entries per call.
    """
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += center_sq_norms
    return np.maximum(d2, 0.0, out=d2)


class _Frame(NamedTuple):
    """What every K's seeding, Lloyd run and silhouette read from the same
    rows, built once per call."""
    points: np.ndarray
    mean: np.ndarray
    centered: np.ndarray  # points - mean
    sq_norms: np.ndarray  # squared norms of the centered rows
    tol: float  # Gram-form entries closer than this to a row's minimum are near ties
    rows: np.ndarray  # arange(n)


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
    return _Frame(points, mean, centered, sq_norms, tol, np.arange(n))


def _sq_dists(frame: _Frame, idx: list[int] | np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from rows ``idx`` to every row, each row's
    to itself exactly 0, as seeding's draws and the silhouette sums need."""
    block = cdist(frame.centered[idx], frame.centered, frame.sq_norms[idx], frame.sq_norms)
    block[np.arange(len(idx)), idx] = 0.0
    return block


def _kmeans_pp_init(frame: _Frame, ks: range, rngs: list[np.random.Generator]) -> list[np.ndarray]:
    """k-means++ seeding of every K in ``ks``, each from its own generator:
    each next center drawn with probability proportional to squared distance
    from the nearest chosen center.

    The K's draw in lockstep: step j draws the (j + 1)-th seed of every K
    with k > j, then one ``_sq_dists`` block of those seeds, which are data
    points, updates every such K's distances.  ``ks`` is 2, 3, ..., K_max,
    so those K's are its suffix from index j + 1 - ks[0].  Each draw is
    ``Generator.choice(n, p=d2 / total)``'s own algorithm (one uniform draw
    searched in the normalized cumulative sum), without its per-call
    validation of ``p``: the index and the generator state are the same.
    """
    n = frame.points.shape[0]
    chosen = [[int(rng.integers(n))] for rng in rngs]
    d2 = _sq_dists(frame, [seeds[0] for seeds in chosen])
    for j in range(1, ks[-1]):
        live = j + 1 - ks[0]
        rows = d2[live:]  # a view, updated in place
        step = []
        for row, rng, seeds in zip(rows, rngs[live:], chosen[live:]):
            total = row.sum()
            if total <= 0:  # all remaining points coincide with chosen centers
                idx = int(rng.integers(n))
            else:
                cdf = np.cumsum(row / total)
                idx = int(np.searchsorted(cdf / cdf[-1], rng.random(), side="right"))
            seeds.append(idx)
            step.append(idx)
        np.minimum(rows, _sq_dists(frame, step), out=rows)
    return [frame.points[seeds] for seeds in chosen]


def _cluster_means(frame: _Frame, labels: np.ndarray, sizes: np.ndarray,
                   centers: np.ndarray) -> np.ndarray:
    """A copy of ``centers`` with each non-empty cluster's row set to its mean.

    A cluster's rows are gathered into one contiguous C-order block in
    corpus order, and numpy's axis-0 sum of such a block adds its rows one
    after another: the same bytes as ``points[labels == j].mean(axis=0)``.
    """
    means = centers.copy()
    for j in np.flatnonzero(sizes):
        means[j] = np.add.reduce(frame.points[labels == j], axis=0) / sizes[j]
    return means


def _lloyd(frame: _Frame, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from ``centers`` until no centroid moves, at most
    ``_MAX_LLOYD_ITERS`` of them; returns (labels, centroids, inertia).

    Empty clusters are reseeded to the points farthest from their centroids,
    which keeps inertia non-increasing; an increase beyond rounding raises
    RuntimeError.  A fixed point is no cluster empty and ``new - old``
    exactly 0, which holds only where the centroids are equal.
    """
    points, mean, centered, sq_norms, tol, rows = frame
    n, k = points.shape[0], centers.shape[0]

    def assign(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shifted = centers - mean
        d2 = cdist(centered, shifted, sq_norms, np.einsum("ij,ij->i", shifted, shifted))
        labels = np.argmin(d2, axis=1)
        ties = d2 <= d2[rows, labels][:, None] + tol
        if np.count_nonzero(ties) > n:  # some point has a second center within tol
            unsure = np.flatnonzero(ties.sum(axis=1) > 1)
            close = points[unsure]
            labels[unsure] = np.argmin(
                np.stack([np.sum((close - c) ** 2, axis=1) for c in centers], axis=1), axis=1)
        nearest = np.empty(n)
        for lo in range(0, n, _BLOCK_ROWS):
            diff = points[lo:lo + _BLOCK_ROWS] - centers[labels[lo:lo + _BLOCK_ROWS]]
            np.einsum("ij,ij->i", diff, diff, out=nearest[lo:lo + _BLOCK_ROWS])
        return labels, nearest

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


def _mean_silhouette(sums: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Mean silhouette from every point's distance sum to each of the k
    clusters (an n x k array); singleton clusters contribute 0.

    ``a`` (own cluster, itself excluded) and ``b`` (nearest other non-empty
    cluster) are read off the sums as whole arrays.
    """
    n = labels.shape[0]
    rows = np.arange(n)
    sizes = np.bincount(labels, minlength=k)
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


def _mean_silhouettes(frame: _Frame, labelings: list[tuple[np.ndarray, int]]) -> list[float]:
    """Mean silhouette of each (labels, k) labeling of the frame's rows.

    One pass over blocks of ``_BLOCK_ROWS`` rows: a block's Euclidean
    distances times one n x sum(k) matrix of every labeling's one-hot labels
    give its rows' distance sums to every cluster of every labeling, so no
    n x n array is alive.
    """
    n = frame.points.shape[0]
    offsets = np.cumsum([0] + [k for _, k in labelings]).tolist()
    onehots = np.zeros((n, offsets[-1]))
    for (labels, _), offset in zip(labelings, offsets):
        onehots[frame.rows, offset + labels] = 1.0
    sums = np.empty_like(onehots)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        dist = _sq_dists(frame, frame.rows[lo:hi])
        np.matmul(np.sqrt(dist, out=dist), onehots, out=sums[lo:hi])
        del dist  # else the next block is built while this one is alive
    return [_mean_silhouette(sums[:, offset:offset + k], labels, k)
            for (labels, k), offset in zip(labelings, offsets)]


def cluster_modes(matrix: EmbeddingMatrix | np.ndarray, k_max: int, seed: int = 42) -> ModeAssignment:
    """Cluster utterance embeddings into modes, selecting K by mean silhouette.

    Runs k-means for each K in 2..min(k_max, distinct-row count) and keeps
    the K with the highest mean silhouette (ties go to the smaller K).
    A matrix whose rows are all identical yields the degenerate single-mode
    assignment k=1.  A plain array must be 2-D, with at least one column,
    and finite, or ValueError is raised.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    if isinstance(matrix, EmbeddingMatrix):  # checked when it was built
        points = matrix.rows
    else:
        points = np.asarray(matrix, np.float64)
        if points.ndim != 2 or points.shape[1] < 1:
            raise ValueError(f"points must be 2-D with >= 1 column, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points hold a non-finite value")
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"clustering needs >= 2 utterances, got {n}")
    # K goes up to min(k_max, distinct rows), so the count stops at k_max;
    # adding 0.0 turns -0.0 into +0.0, so rows that differ only there count as one
    distinct: set[bytes] = set()
    for row in points:
        distinct.add((row + 0.0).tobytes())
        if len(distinct) == k_max:
            break
    if len(distinct) == 1:
        return ModeAssignment(k=1, labels=np.zeros(n, dtype=np.int64),
                              centroids=points[:1].copy(), inertia=0.0)

    frame = _frame(points)
    ks = range(2, len(distinct) + 1)
    rngs = [np.random.default_rng([seed, k]) for k in ks]
    runs = [_lloyd(frame, centers) for centers in _kmeans_pp_init(frame, ks, rngs)]
    scores = _mean_silhouettes(frame, [(labels, k) for k, (labels, _, _) in zip(ks, runs)])
    best = max(range(len(ks)), key=scores.__getitem__)  # ties go to the smaller K
    labels, centroids, inertia = runs[best]
    return ModeAssignment(k=ks[best], labels=labels, centroids=centroids, inertia=inertia)

