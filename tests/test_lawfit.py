"""Exponent-fit tests: analytic tables, synthetic streams, invariances."""

from collections import Counter

import numpy as np
import pytest

from coreval.corpus import TokenStats, VocabGrowthCurve
from coreval.lawfit import FitError, fit_heaps, fit_zipf, synth_zipf_stream


def analytic_zipf_stats(alpha: float, n_ranks: int, scale: float = 1e6) -> TokenStats:
    counts = {f"w{r:04d}": round(scale * r ** -alpha) for r in range(1, n_ranks + 1)}
    return TokenStats.from_counts(counts)


def stream_stats(stream: list[str]) -> TokenStats:
    return TokenStats.from_counts(Counter(stream))


class TestFitZipf:
    def test_analytic_table(self):
        stats = analytic_zipf_stats(2.0, 200)
        fit = fit_zipf(stats, min_count=1)
        assert abs(fit.exponent - 2.0) < 0.02
        assert fit.points_used == 200
        assert fit.method == "loglog_ls"

    def test_two_point_line(self):
        stats = TokenStats(entries=(("a", 100), ("b", 50)), total_tokens=150)
        fit = fit_zipf(stats, min_count=1)
        assert abs(fit.exponent - 1.0) < 1e-12
        assert fit.stderr == 0.0

    def test_exact_power_law_r2_and_stderr(self):
        # 840000 is divisible by every rank 1..8, so counts = C/r exactly
        counts = {f"w{r}": 840000 // r for r in range(1, 9)}
        fit = fit_zipf(TokenStats.from_counts(counts), min_count=1)
        assert abs(fit.exponent - 1.0) < 1e-9
        assert fit.r_squared > 1 - 1e-9
        assert fit.stderr <= 1e-9

    def test_min_count_filter(self):
        stats = TokenStats.from_counts({"a": 10, "b": 5, "c": 1, "d": 1})
        fit = fit_zipf(stats, min_count=2)
        assert fit.points_used == 2

    def test_max_rank_filter(self):
        stats = analytic_zipf_stats(1.5, 100)
        fit = fit_zipf(stats, min_count=1, max_rank=10)
        assert fit.points_used == 10

    def test_fit_failure_signal(self):
        stats = TokenStats.from_counts({"a": 5, "b": 1})
        with pytest.raises(FitError):
            fit_zipf(stats, min_count=2)

    def test_rescaling_invariance(self):
        stats = analytic_zipf_stats(1.3, 50)
        scaled = TokenStats.from_counts({t: c * 7 for t, c in stats.entries})
        fit1 = fit_zipf(stats, min_count=1)
        fit2 = fit_zipf(scaled, min_count=1)
        assert abs(fit1.exponent - fit2.exponent) < 1e-12
        assert fit2.log_prefactor > fit1.log_prefactor

    def test_synthetic_recovery(self):
        stream = synth_zipf_stream(2.0, 10_000, 100_000, 42)
        fit = fit_zipf(stream_stats(stream))
        assert abs(fit.exponent - 2.0) < 0.1


class TestFitHeaps:
    def test_exact_points(self):
        points = [(n, 5 * n ** 0.6) for n in (10, 100, 1000, 10000)]
        fit = fit_heaps(points)
        assert abs(fit.exponent - 0.6) < 1e-9
        assert fit.r_squared > 1 - 1e-9
        assert abs(fit.log_prefactor - np.log(5)) < 1e-9

    def test_linear_growth(self):
        curve = VocabGrowthCurve(points=((1, 1), (10, 10), (100, 100)))
        fit = fit_heaps(curve)
        assert abs(fit.exponent - 1.0) < 1e-12

    def test_zipf_stream_beta_in_unit_interval(self):
        stream = synth_zipf_stream(1.0, 50_000, 100_000, 7)
        seen: set[str] = set()
        points = []
        for i, token in enumerate(stream, start=1):
            seen.add(token)
            if i % 50 == 0 or i == len(stream):
                points.append((i, len(seen)))
        fit = fit_heaps(VocabGrowthCurve(points=tuple(points)))
        assert 0.0 < fit.exponent < 1.0

    def test_real_corpus_beta_bounds(self):
        # repeated tokens keep the fitted exponent in (0, 1]
        stream = ["a", "b", "a", "c", "b", "a", "d", "a", "b", "e"]
        seen: set[str] = set()
        points = []
        for i, token in enumerate(stream, start=1):
            seen.add(token)
            points.append((i, len(seen)))
        fit = fit_heaps(points)
        assert 0.0 < fit.exponent <= 1.0

    def test_rescaling_invariance(self):
        points = [(n, 5 * n ** 0.6) for n in (10, 100, 1000)]
        scaled = [(n, 3 * v) for n, v in points]
        fit1, fit2 = fit_heaps(points), fit_heaps(scaled)
        assert abs(fit1.exponent - fit2.exponent) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_heaps([(100, 40)])

    def test_one_n_value(self):
        with pytest.raises(FitError, match="distinct n"):
            fit_heaps([(5, 3), (5, 4)])

    def test_invalid_values(self):
        with pytest.raises(FitError):
            fit_heaps([(1, 0.5), (10, 5)])


class TestSynthZipfStream:
    def test_deterministic(self):
        a = synth_zipf_stream(1.5, 100, 5000, 123)
        b = synth_zipf_stream(1.5, 100, 5000, 123)
        assert a == b

    def test_different_seeds_differ(self):
        a = synth_zipf_stream(1.5, 100, 5000, 123)
        b = synth_zipf_stream(1.5, 100, 5000, 124)
        assert a != b

    def test_large_alpha_concentrates(self):
        stream = synth_zipf_stream(20.0, 2, 1000, 1)
        assert stream.count("w1") > 990

    def test_token_names(self):
        stream = synth_zipf_stream(1.0, 5, 100, 2)
        assert set(stream) <= {f"w{r}" for r in range(1, 6)}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            synth_zipf_stream(1.0, 1, 100, 0)
        with pytest.raises(ValueError):
            synth_zipf_stream(1.0, 10, 0, 0)
        with pytest.raises(ValueError):
            synth_zipf_stream(-1.0, 10, 100, 0)

    def test_top_rank_frequency_converges(self):
        vocab = 50_000
        stream = synth_zipf_stream(1.0, vocab, 1_000_000, 3)
        top_count = Counter(stream).most_common(1)[0][1]
        harmonic = (np.arange(1, vocab + 1, dtype=float) ** -1.0).sum()
        analytic = 1.0 / harmonic
        assert abs(top_count / 1_000_000 - analytic) / analytic < 0.05
