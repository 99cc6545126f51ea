"""Descriptive summaries and the Mann-Whitney U rank test.

The U statistic counts, over all cross pairs, how often the first sample
exceeds the second (ties count half).  For small tie-free samples the
two-sided p-value is exact, computed from the full rank-sum distribution
via dynamic programming; otherwise a normal approximation with tie and
continuity corrections is used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Exact enumeration is limited to min(n1, n2) <= 12: the rank-sum DP stays
# well under a million states there, and beyond it the normal approximation
# error is negligible.
EXACT_MAX_N = 12


@dataclass(frozen=True)
class UTestResult:
    u: float  # U statistic for the first sample
    p_value: float
    method: str  # "exact" | "normal_approx"
    tie_corrected: bool
    n1: int
    n2: int


@dataclass(frozen=True)
class SummaryRow:
    mean: float
    std_dev: float
    max: float
    min: float
    range: float


def _rank_sum_tail(n1: int, n2: int, u_max: float) -> tuple[float, float]:
    """(number of rank assignments with U <= u_max, total assignments).

    Counts subsets of size n1 from ranks 1..n1+n2 by rank sum: ways[j][s] is
    the number of j-subsets summing to s.  U = s - j(j+1)/2.
    """
    n = n1 + n2
    max_sum = sum(range(n - n1 + 1, n + 1))
    ways = np.zeros((n1 + 1, max_sum + 1), dtype=np.float64)
    ways[0][0] = 1.0
    for rank in range(1, n + 1):
        for j in range(min(rank, n1), 0, -1):
            ways[j][rank:] += ways[j - 1][: max_sum + 1 - rank]
    offset = n1 * (n1 + 1) // 2
    u_cut = int(math.floor(u_max)) + offset
    count = float(ways[n1][: min(u_cut, max_sum) + 1].sum())
    total = float(ways[n1].sum())
    return count, total


def mann_whitney_u(xs: Sequence[float], ys: Sequence[float]) -> UTestResult:
    """Two-sided Mann-Whitney U test.

    U = sum over pairs of 1[x > y] + 0.5 * 1[x == y].  Exact p-values are
    used for tie-free samples with min(n1, n2) <= EXACT_MAX_N; otherwise a
    normal approximation with tie correction and a 0.5 continuity
    correction.  The two-sided p is min(1, 2 * one-sided).
    """
    x = np.asarray(list(xs), dtype=np.float64)
    y = np.asarray(list(ys), dtype=np.float64)
    n1, n2 = len(x), len(y)
    if n1 < 1 or n2 < 1:
        raise ValueError("both samples must be non-empty")

    gt = (x[:, None] > y[None, :]).sum()
    eq = (x[:, None] == y[None, :]).sum()
    u1 = float(gt) + 0.5 * float(eq)

    combined = np.concatenate([x, y])
    tie_sizes = [c for c in Counter(combined.tolist()).values() if c > 1]
    has_ties = bool(tie_sizes)

    if not has_ties and min(n1, n2) <= EXACT_MAX_N:
        u_min = min(u1, n1 * n2 - u1)
        # DP over the smaller sample; the U distributions for either sample
        # are identical under the null.
        m, other = (n1, n2) if n1 <= n2 else (n2, n1)
        count, total = _rank_sum_tail(m, other, u_min)
        p = min(1.0, 2.0 * count / total)
        return UTestResult(u=u1, p_value=p, method="exact", tie_corrected=False, n1=n1, n2=n2)

    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie_term = sum(t ** 3 - t for t in tie_sizes) / (n * (n - 1)) if n > 1 else 0.0
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if sigma2 <= 0:
        p = 1.0
    else:
        z = max(0.0, abs(u1 - mu) - 0.5) / math.sqrt(sigma2)
        p = min(1.0, 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0)))
    return UTestResult(u=u1, p_value=p, method="normal_approx", tie_corrected=has_ties,
                       n1=n1, n2=n2)


def summarize(values: Sequence[float], ddof: int = 0) -> SummaryRow:
    """Mean / std / max / min / range of a sample.

    Std uses the population divisor N by default; pass ddof=1 for the
    sample divisor.  It is nan when there are no more than ``ddof`` values.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size < 1:
        raise ValueError("summarize needs at least one value")
    vmax = float(arr.max())
    vmin = float(arr.min())
    std_dev = float(arr.std(ddof=ddof)) if arr.size > ddof else math.nan
    return SummaryRow(mean=float(arr.mean()), std_dev=std_dev,
                      max=vmax, min=vmin, range=vmax - vmin)
