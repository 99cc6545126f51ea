"""The conversational robustness score (CORE).

CORE is the product of three factors in [0, 1], one function each:
``mode_entropy``, the Shannon entropy of the utterances' mode frequencies
divided by ln(k_max); ``repetition_penalty``, (1 - repeated n-gram
fraction)^alpha; and ``stagnation_penalty``, clamp(1 - mean consecutive
cosine, 0, 1)^beta.  The alpha/beta exponents default to the corpus's own
fitted rank-frequency and vocabulary-growth exponents, so the score is
calibrated against the corpus's typical statistical profile.

``compute_core`` (one corpus) and ``core_per_dialog`` (each dialog under
the corpus's modes and exponents) differ only in how they gather the
inputs; one private helper, ``_breakdown``, turns an entropy term, an
n-gram ``Counter`` and a raw stagnation into every ``CoreBreakdown``.  Besides
the fit_fallback and degenerate_modes flags its callers pass in, that
helper is the only place that sets empty_ngrams, stagnation_clamped and
no_stagnation_pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, CorpusError, Dialog, extract_ngrams, ngram_counts, rank_frequency, \
    vocab_growth
from .embeddings import EmbeddingMatrix, dialog_stagnation
from .lawfit import FitError, fit_heaps, fit_zipf
from .modes import ModeAssignment, cluster_modes

# Diagnostic flags carried on a breakdown.  The first three are the primary
# ones; empty_ngrams / no_stagnation_pairs mark inputs too short to measure
# the corresponding factor (the factor is then fixed by the degenerate rule).
FLAG_FIT_FALLBACK = "fit_fallback"
FLAG_STAGNATION_CLAMPED = "stagnation_clamped"
FLAG_DEGENERATE_MODES = "degenerate_modes"
FLAG_EMPTY_NGRAMS = "empty_ngrams"
FLAG_NO_STAGNATION_PAIRS = "no_stagnation_pairs"


@dataclass(frozen=True)
class CoreConfig:
    ngram_n: int = 3
    k_max: int = 10
    cluster_seed: int = 42
    alpha_source: str = "fit_from_corpus"  # or "explicit"
    beta_source: str = "fit_from_corpus"
    alpha: float = 1.0
    beta: float = 1.0
    fallback_exponent: float = 1.0
    zipf_min_count: int = 2
    zipf_max_rank: int | None = None
    heaps_stride: int = 50
    repetition_counting: str = "occurrences"  # or "types"

    def __post_init__(self):
        if self.ngram_n < 1:
            raise ValueError(f"ngram_n must be >= 1, got {self.ngram_n}")
        if self.k_max < 2:
            raise ValueError(f"k_max must be >= 2, got {self.k_max}")
        if self.cluster_seed < 0:
            raise ValueError(f"cluster_seed must be >= 0, got {self.cluster_seed}")
        for name, value in (("zipf_min_count", self.zipf_min_count),
                            ("zipf_max_rank", self.zipf_max_rank),
                            ("heaps_stride", self.heaps_stride)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta),
                            ("fallback_exponent", self.fallback_exponent)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name, value in (("alpha_source", self.alpha_source), ("beta_source", self.beta_source)):
            if value not in ("fit_from_corpus", "explicit"):
                raise ValueError(f"{name} must be 'fit_from_corpus' or 'explicit', got {value!r}")
        if self.repetition_counting not in ("occurrences", "types"):
            raise ValueError("repetition_counting must be 'occurrences' or 'types', "
                             f"got {self.repetition_counting!r}")


@dataclass(frozen=True)
class CoreBreakdown:
    entropy_term: float
    repetition_ratio: float
    repetition_term: float
    raw_stagnation: float
    stagnation_term: float
    alpha_used: float
    beta_used: float
    core: float
    flags: frozenset[str]


def repeated_fraction(ngrams: Counter, counting: str = "occurrences") -> float:
    """Fraction of n-gram occurrences whose type occurs more than once.

    With counting="types" the fraction is over distinct types instead of
    occurrences (a sensitivity-analysis variant).  Raises on empty counts;
    the caller decides the degenerate policy.
    """
    if not ngrams:
        raise ValueError("repeated_fraction undefined for empty n-gram counts")
    if counting == "occurrences":
        return sum(c for c in ngrams.values() if c > 1) / sum(ngrams.values())
    if counting == "types":
        return sum(1 for c in ngrams.values() if c > 1) / len(ngrams)
    raise ValueError(f"unknown counting mode {counting!r}")


def mode_entropy(labels: np.ndarray, k_max: int) -> float:
    """Shannon entropy of the label frequencies over ln(k_max), clamped to [0, 1].

    A mode id that no label takes adds 0 (0 ln 0 = 0), so with the fixed
    ln(k_max) normalizer it cannot change the value.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    counts = np.bincount(labels)
    probs = (counts[counts > 0] / counts.sum()).tolist()
    return min(1.0, max(0.0, -sum(p * math.log(p) for p in probs) / math.log(k_max)))


def repetition_penalty(ratio: float, alpha: float) -> float:
    return (1.0 - ratio) ** alpha


def stagnation_penalty(raw_stagnation: float, beta: float) -> tuple[float, bool]:
    """(clamped (1 - raw)^beta, whether clamping was material).

    A negative mean cosine makes the base exceed 1, which would push the
    score above its [0, 1] range; the base is clamped and flagged.  A base
    within 1e-12 of 0 is rounding, not signal (the cosine of a unit vector
    with itself can come out one ulp below 1, and beta < 1 would lift that
    ulp to about 1e-6), so it counts as 0, unflagged.
    """
    base = 1.0 - raw_stagnation
    clamped = min(1.0, base) if base > 1e-12 else 0.0
    was_clamped = abs(clamped - base) > 1e-12
    return clamped ** beta, was_clamped


def resolve_exponents(corpus: Corpus, config: CoreConfig) -> tuple[float, float, frozenset[str]]:
    """Determine (alpha, beta) per config, fitting from the corpus when asked.

    A failed fit (too few usable points) falls back to
    config.fallback_exponent and raises the fit_fallback flag.
    """
    flags: set[str] = set()
    if config.alpha_source == "explicit":
        alpha = config.alpha
    else:
        try:
            alpha = fit_zipf(rank_frequency(corpus), min_count=config.zipf_min_count,
                             max_rank=config.zipf_max_rank).exponent
        except FitError:
            alpha = config.fallback_exponent
            flags.add(FLAG_FIT_FALLBACK)
    if config.beta_source == "explicit":
        beta = config.beta
    else:
        try:
            beta = fit_heaps(vocab_growth(corpus, config.heaps_stride)).exponent
        except FitError:
            beta = config.fallback_exponent
            flags.add(FLAG_FIT_FALLBACK)
    return alpha, beta, frozenset(flags)


def _check_alignment(corpus: Corpus, matrix: EmbeddingMatrix) -> None:
    keys = tuple(corpus.utterance_keys())
    if matrix.keys != keys:
        raise ValueError("embedding matrix is not aligned to the corpus iteration order")


def _dialog_row_slices(corpus: Corpus) -> list[tuple[Dialog, slice]]:
    slices = []
    offset = 0
    for dialog in corpus.dialogs:
        n = len(dialog.utterances)
        slices.append((dialog, slice(offset, offset + n)))
        offset += n
    return slices


def _breakdown(entropy_term: float, ngrams: Counter, raw_stagnation: float | None,
               alpha: float, beta: float, config: CoreConfig,
               flags: set[str]) -> CoreBreakdown:
    """Assemble one breakdown from its entropy term, n-gram counts and raw
    stagnation (None when the input has no consecutive utterance pair)."""
    flags = set(flags)
    if not ngrams:
        ratio = 0.0
        rep_term = 1.0
        flags.add(FLAG_EMPTY_NGRAMS)
    else:
        ratio = repeated_fraction(ngrams, config.repetition_counting)
        rep_term = repetition_penalty(ratio, alpha)

    if raw_stagnation is None:
        raw_stagnation = 1.0
        stag_term = 0.0
        flags.add(FLAG_NO_STAGNATION_PAIRS)
    else:
        stag_term, was_clamped = stagnation_penalty(raw_stagnation, beta)
        if was_clamped:
            flags.add(FLAG_STAGNATION_CLAMPED)

    return CoreBreakdown(
        entropy_term=entropy_term, repetition_ratio=ratio, repetition_term=rep_term,
        raw_stagnation=raw_stagnation, stagnation_term=stag_term,
        alpha_used=alpha, beta_used=beta, core=entropy_term * rep_term * stag_term,
        flags=frozenset(flags),
    )


def compute_core(corpus: Corpus, matrix: EmbeddingMatrix, config: CoreConfig,
                 assignment: ModeAssignment | None = None) -> CoreBreakdown:
    """Corpus-level CORE breakdown.

    Modes are clustered over all utterance embeddings (pass a precomputed
    ``assignment`` to reuse one); repetition is measured on the per-dialog
    n-gram counts summed over the corpus; stagnation is the mean over
    dialogs with at least two utterances.  A corpus with no such dialog gets
    stagnation_term 0 and the no_stagnation_pairs flag.  Raises CorpusError
    if the corpus has no tokens.
    """
    _check_alignment(corpus, matrix)
    if not any(True for _ in corpus.iter_tokens()):
        raise CorpusError("corpus has zero tokens")

    alpha, beta, fit_flags = resolve_exponents(corpus, config)
    flags = set(fit_flags)
    if assignment is None:
        assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
    if assignment.k == 1:
        flags.add(FLAG_DEGENERATE_MODES)
    entropy_term = mode_entropy(assignment.labels, config.k_max)

    stags = [dialog_stagnation(matrix.rows[sl]) for dialog, sl in _dialog_row_slices(corpus)
             if len(dialog.utterances) >= 2]
    return _breakdown(entropy_term, extract_ngrams(corpus, config.ngram_n),
                      float(np.mean(stags)) if stags else None, alpha, beta, config, flags)


def core_per_dialog(corpus: Corpus, matrix: EmbeddingMatrix, config: CoreConfig,
                    corpus_assignment: ModeAssignment) -> list[tuple[str, CoreBreakdown]]:
    """Per-dialog CORE breakdowns using corpus-level modes and exponents.

    Each dialog's entropy term uses its own label distribution under the
    corpus-wide clustering (same ln k_max normalizer); repetition and
    stagnation are restricted to the dialog.  Dialogs with a single
    utterance get stagnation_term 0 and the no_stagnation_pairs flag.
    """
    _check_alignment(corpus, matrix)
    alpha, beta, fit_flags = resolve_exponents(corpus, config)
    flags = set(fit_flags)
    if corpus_assignment.k == 1:
        flags.add(FLAG_DEGENERATE_MODES)

    results = []
    for dialog, sl in _dialog_row_slices(corpus):
        entropy_term = mode_entropy(corpus_assignment.labels[sl], config.k_max)
        ngrams = ngram_counts(dialog.tokens(), config.ngram_n)
        raw = dialog_stagnation(matrix.rows[sl]) if len(dialog.utterances) >= 2 else None
        results.append((dialog.id, _breakdown(entropy_term, ngrams, raw, alpha, beta, config,
                                              flags)))
    return results
