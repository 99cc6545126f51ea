"""Power-law exponent fits for rank-frequency tables and vocabulary-growth curves.

Both fits are ordinary least squares on log-log axes.  The rank-frequency
fit reports the negated slope (so a steeper decay gives a larger exponent);
the vocabulary-growth fit reports the slope directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import TokenStats, VocabGrowthCurve


class FitError(ValueError):
    """Fewer than two usable points; callers may fall back to a default exponent."""


@dataclass(frozen=True)
class FitResult:
    exponent: float
    log_prefactor: float
    r_squared: float
    stderr: float
    points_used: int
    method: str = "loglog_ls"


def _loglog_ls(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float, float]:
    """OLS on (log x, log y): (slope, intercept, r_squared, slope stderr).

    r_squared and stderr come from the residual sum of squares rather than
    the (1 - r^2) shortcut, which loses ~8 digits on near-exact inputs.
    """
    x = np.log(xs)
    y = np.log(ys)
    n = x.size
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    slope = float(np.dot(xc, yc) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    sse = float(np.sum((y - intercept - slope * x) ** 2))
    r2 = 1.0 if syy == 0.0 else max(0.0, 1.0 - sse / syy)
    stderr = 0.0 if n == 2 else float(np.sqrt(sse / (n - 2) / sxx))
    return slope, intercept, r2, stderr


def fit_zipf(stats: TokenStats, min_count: int = 2, max_rank: int | None = None) -> FitResult:
    """Fit count ~ C * rank^-exponent on the filtered rank-frequency table.

    Entries with count < min_count or rank > max_rank are dropped before the
    regression; the hapax tail otherwise dominates the residuals.  Raises
    FitError when fewer than two entries survive, and ValueError for a
    min_count or max_rank below 1.
    """
    if min_count < 1 or (max_rank is not None and max_rank < 1):
        raise ValueError(f"min_count and max_rank must be >= 1, got {min_count} and {max_rank}")
    ranks = []
    counts = []
    for idx, (_, count) in enumerate(stats.entries):
        rank = idx + 1
        if max_rank is not None and rank > max_rank:
            break
        if count >= min_count:
            ranks.append(rank)
            counts.append(count)
    if len(ranks) < 2:
        raise FitError(
            f"zipf fit needs >= 2 points after filtering (min_count={min_count}, "
            f"max_rank={max_rank}); got {len(ranks)}"
        )
    slope, intercept, r2, stderr = _loglog_ls(np.asarray(ranks, float), np.asarray(counts, float))
    return FitResult(exponent=-slope + 0.0, log_prefactor=intercept, r_squared=r2,
                     stderr=stderr, points_used=len(ranks))


def fit_heaps(curve: VocabGrowthCurve | Iterable[tuple[float, float]]) -> FitResult:
    """Fit v ~ K * n^exponent on a vocabulary-growth curve.

    Accepts a VocabGrowthCurve or any iterable of (n, v) pairs with n >= 1
    and v >= 1.  Raises FitError on fewer than two points or on points that
    all share one n, which give no slope.
    """
    points = curve.points if isinstance(curve, VocabGrowthCurve) else list(curve)
    if len(points) < 2:
        raise FitError(f"heaps fit needs >= 2 points, got {len(points)}")
    ns = np.asarray([p[0] for p in points], float)
    vs = np.asarray([p[1] for p in points], float)
    if np.any(ns < 1) or np.any(vs < 1):
        raise FitError("heaps fit requires n >= 1 and v >= 1 at every point")
    if np.all(ns == ns[0]):
        raise FitError(f"heaps fit needs >= 2 distinct n values, got only n={ns[0]:g}")
    slope, intercept, r2, stderr = _loglog_ls(ns, vs)
    return FitResult(exponent=slope, log_prefactor=intercept, r_squared=r2,
                     stderr=stderr, points_used=len(points))


def synth_zipf_stream(alpha: float, vocab_size: int, n_tokens: int, seed: int) -> list[str]:
    """Draw i.i.d. tokens "w1".."w{vocab_size}" with P(rank r) proportional to r^-alpha.

    Deterministic given the seed; used as an oracle for exponent-recovery tests.
    """
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be >= 1, got {n_tokens}")
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks ** -alpha
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(vocab_size, size=n_tokens, p=probs)
    return [f"w{r + 1}" for r in draws]
