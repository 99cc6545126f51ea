"""Score composition tests: factor arithmetic, bounds, degenerate cases."""

import math
from collections import Counter

import numpy as np
import pytest

from coreval.corpus import CorpusError, parse_corpus
from coreval.embeddings import load_embeddings
from coreval.metric import (
    FLAG_DEGENERATE_MODES, FLAG_FIT_FALLBACK, FLAG_NO_STAGNATION_PAIRS,
    FLAG_STAGNATION_CLAMPED, CoreConfig, compute_core, core_per_dialog,
    repeated_fraction, repetition_penalty, resolve_exponents, stagnation_penalty,
)
from coreval.modes import ModeAssignment, cluster_modes
from conftest import DATA_DIR, make_corpus, matrix_for, random_corpus_and_embeddings


class TestRepeatedFraction:
    def test_formula(self):
        t = Counter({("a", "b"): 2, ("b", "a"): 1})
        assert repeated_fraction(t) == pytest.approx(2 / 3)

    def test_all_distinct(self):
        t = Counter({("a", "b"): 1, ("b", "c"): 1})
        assert repeated_fraction(t) == 0.0
        assert repetition_penalty(0.0, 2.5) == 1.0

    def test_single_type_repeated(self):
        t = Counter({("a", "a"): 5})
        assert repeated_fraction(t) == 1.0
        assert repetition_penalty(1.0, 2.0) == 0.0

    def test_types_variant(self):
        t = Counter({("a", "b"): 3, ("b", "a"): 1})
        assert repeated_fraction(t, "types") == 0.5

    def test_empty_table_raises(self):
        with pytest.raises(ValueError):
            repeated_fraction(Counter())


class TestFactorArithmetic:
    def test_hand_computed_composition(self):
        entropy_term = 0.5
        rep_term = repetition_penalty(0.19, 2.0)
        stag_term, clamped = stagnation_penalty(0.2, 0.5)
        assert not clamped
        core = entropy_term * rep_term * stag_term
        assert core == pytest.approx(0.5 * 0.81 ** 2 * 0.8 ** 0.5, abs=1e-12)
        assert core == pytest.approx(0.2934, abs=1e-4)

    def test_repetition_monotone_in_ratio(self):
        values = [repetition_penalty(r, 1.7) for r in np.linspace(0, 0.99, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exponent_monotonicity(self):
        assert repetition_penalty(0.4, 2.0) < repetition_penalty(0.4, 1.0)
        assert stagnation_penalty(0.5, 2.0)[0] < stagnation_penalty(0.5, 0.7)[0]

    def test_negative_mean_cosine_clamps(self):
        term, clamped = stagnation_penalty(-0.4, 1.3)
        assert term == 1.0
        assert clamped

    def test_mean_cosine_within_rounding_of_one_is_full_stagnation(self):
        # the cosine of a unit vector with itself can round either side of 1
        for raw in (1 - 2 ** -52, 1.0, 1 + 2 ** -52):
            assert stagnation_penalty(raw, 0.37) == (0.0, False)
        assert stagnation_penalty(1 - 1e-9, 0.37)[0] > 0.0


def diverse_corpus_and_matrix(k_max=4):
    """Uniform modes over k_max separated clusters, all-distinct trigrams,
    orthogonal consecutive embeddings."""
    word = iter(f"t{i}" for i in range(10_000))
    spec = []
    for d in range(k_max // 2):
        texts = [" ".join(next(word) for _ in range(6)) for _ in range(4)]
        spec.append((f"mA__mB__neutral__{d}", "neutral", texts))
    corpus = make_corpus(spec)
    dim = max(2 * (k_max // 2 * 2), 4)
    rows = []
    for d in range(k_max // 2):
        e1 = np.zeros(dim)
        e2 = np.zeros(dim)
        e1[2 * d] = 1.0
        e2[2 * d + 1] = 1.0
        rows.extend([e1, e2, e1, e2])
    return corpus, matrix_for(corpus, np.array(rows))


class TestComputeCore:
    def test_degenerate_corpus_is_exactly_zero(self):
        corpus = make_corpus([(f"d{i}", "neutral", ["same words here"] * 3) for i in range(3)])
        rows = np.tile(np.array([0.4, 0.3, 0.2]), (9, 1))
        breakdown = compute_core(corpus, matrix_for(corpus, rows), CoreConfig())
        assert breakdown.core == 0.0
        assert breakdown.entropy_term == 0.0
        assert FLAG_DEGENERATE_MODES in breakdown.flags

    def test_perfect_diversity_is_one(self):
        corpus, matrix = diverse_corpus_and_matrix(k_max=4)
        breakdown = compute_core(corpus, matrix, CoreConfig(k_max=4))
        assert breakdown.core == pytest.approx(1.0, abs=1e-9)
        assert breakdown.repetition_ratio == 0.0
        assert breakdown.raw_stagnation == 0.0

    def test_product_identity_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            corpus, matrix = random_corpus_and_embeddings(rng)
            config = CoreConfig(k_max=int(rng.integers(2, 11)))
            b = compute_core(corpus, matrix, config)
            assert 0.0 <= b.core <= 1.0
            assert abs(b.core - b.entropy_term * b.repetition_term * b.stagnation_term) <= 1e-12
            assert 0.0 <= b.entropy_term <= 1.0
            assert 0.0 <= b.repetition_ratio <= 1.0
            assert 0.0 <= b.repetition_term <= 1.0
            assert -1.0 - 1e-9 <= b.raw_stagnation <= 1.0 + 1e-9
            assert 0.0 <= b.stagnation_term <= 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        corpus, matrix = random_corpus_and_embeddings(rng)
        config = CoreConfig()
        assert compute_core(corpus, matrix, config) == compute_core(corpus, matrix, config)

    def test_explicit_exponents(self):
        corpus, matrix = random_corpus_and_embeddings(np.random.default_rng(13))
        config = CoreConfig(alpha_source="explicit", beta_source="explicit",
                            alpha=2.5, beta=0.4)
        b = compute_core(corpus, matrix, config)
        assert b.alpha_used == 2.5
        assert b.beta_used == 0.4
        assert FLAG_FIT_FALLBACK not in b.flags

    def test_fit_fallback_on_tiny_corpus(self):
        corpus = make_corpus([("d", "neutral", ["alpha beta", "gamma delta"])])
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = compute_core(corpus, matrix_for(corpus, rows), CoreConfig(fallback_exponent=1.0))
        assert FLAG_FIT_FALLBACK in b.flags
        assert b.alpha_used == 1.0 and b.beta_used == 1.0

    def test_stagnation_clamped_flag(self):
        corpus = make_corpus([("d", "neutral", ["one two three", "four five six"])])
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = compute_core(corpus, matrix_for(corpus, rows), CoreConfig())
        assert b.raw_stagnation == -1.0
        assert b.stagnation_term == 1.0
        assert FLAG_STAGNATION_CLAMPED in b.flags

    def test_no_stagnation_pair_is_flagged(self):
        corpus = make_corpus([(f"d{i}", "neutral", [f"lone words {i}"]) for i in range(3)])
        b = compute_core(corpus, matrix_for(corpus, np.eye(3)), CoreConfig())
        assert b.stagnation_term == 0.0
        assert b.core == 0.0
        assert FLAG_NO_STAGNATION_PAIRS in b.flags

    def test_zero_token_corpus_raises(self):
        corpus = make_corpus([("d", "neutral", ["!!!", "???"])])
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(CorpusError, match="zero tokens"):
            compute_core(corpus, matrix_for(corpus, rows), CoreConfig())

    def test_unused_mode_id_adds_nothing(self):
        corpus = make_corpus([("d", "neutral", ["a b", "c d", "e f"])])
        matrix = matrix_for(corpus, np.eye(3))
        config = CoreConfig()
        # id 1 of k = 3 labels no utterance; 0 ln 0 = 0 and the normalizer is
        # ln k_max, so the scores are those of the same split into k = 2 ids
        gap = ModeAssignment(k=3, labels=np.array([0, 2, 2]), centroids=np.eye(3), inertia=0.0)
        dense = ModeAssignment(k=2, labels=np.array([0, 1, 1]), centroids=np.eye(3)[[0, 2]],
                               inertia=0.0)
        scores = []
        for assignment in (gap, dense):
            corpus_b = compute_core(corpus, matrix, config, assignment=assignment)
            ((_, dialog_b),) = core_per_dialog(corpus, matrix, config, assignment)
            scores.append([(b.entropy_term, b.core) for b in (corpus_b, dialog_b)])
        assert scores[0] == scores[1]
        assert scores[0][0][0] > 0.0

    def test_misaligned_matrix_raises(self):
        corpus = make_corpus([("d", "neutral", ["a b", "c d"])])
        other = make_corpus([("x", "neutral", ["a b", "c d"])])
        rows = np.eye(2)
        with pytest.raises(ValueError, match="aligned"):
            compute_core(corpus, matrix_for(other, rows), CoreConfig())

    def test_duplicating_dialogs_entropy_stable_repetition_not_increased(self):
        rng = np.random.default_rng(14)
        centers = np.array([[0.0, 0.0, 8.0], [8.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
        spec = []
        rows = []
        for d in range(3):
            texts = [" ".join(f"w{int(w)}" for w in rng.integers(0, 9, 6)) for _ in range(4)]
            spec.append((f"d{d}", "neutral", texts))
            rows.extend(centers[d] + rng.normal(size=3) * 0.01 for _ in range(4))
        corpus = make_corpus(spec)
        matrix = matrix_for(corpus, np.array(rows))

        doubled_spec = spec + [(f"{i}_copy", c, t) for i, c, t in spec]
        doubled = make_corpus(doubled_spec)
        doubled_matrix = matrix_for(doubled, np.array(rows + rows))

        config = CoreConfig(alpha_source="explicit", beta_source="explicit",
                            alpha=1.0, beta=1.0)
        b1 = compute_core(corpus, matrix, config)
        b2 = compute_core(doubled, doubled_matrix, config)
        assert b2.entropy_term == pytest.approx(b1.entropy_term, abs=1e-9)
        assert b2.repetition_term <= b1.repetition_term + 1e-12


def inline_dialog_entropy(labels: np.ndarray, k_max: int) -> float:
    """The per-dialog entropy as core_per_dialog once computed it inline."""
    counts = np.bincount(labels)
    probs = counts[counts > 0] / counts.sum()
    h = float(-np.sum(probs * np.log(probs)))
    return min(1.0, max(0.0, h / math.log(k_max)))


class TestCorePerDialog:
    def test_entropy_matches_inline_oracle_on_fixture(self):
        with open(DATA_DIR / "fixture_corpus.jsonl", "rb") as fh:
            corpus = parse_corpus(fh)
        matrix = load_embeddings(DATA_DIR / "fixture_embeddings.jsonl", corpus)
        config = CoreConfig()
        assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
        per = core_per_dialog(corpus, matrix, config, assignment)
        offset = 0
        for dialog, (dialog_id, b) in zip(corpus.dialogs, per):
            n = len(dialog.utterances)
            expected = inline_dialog_entropy(assignment.labels[offset : offset + n], config.k_max)
            assert dialog_id == dialog.id
            assert abs(b.entropy_term - expected) <= 1e-15
            offset += n
        assert offset == len(matrix.keys)

    def test_single_cluster_dialog_entropy_zero(self):
        centers = np.array([[0.0, 10.0], [10.0, 0.0]])
        spec = [("near", "neutral", ["a b c", "d e f"]),
                ("far", "neutral", ["g h i", "j k l"])]
        corpus = make_corpus(spec)
        # corpus iteration order is sorted by id: "far" rows first, then "near"
        rows = np.array([centers[0], centers[1], centers[0], centers[0]])
        matrix = matrix_for(corpus, rows)
        config = CoreConfig()
        assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
        per = dict(core_per_dialog(corpus, matrix, config, assignment))
        assert per["far"].entropy_term > 0.0
        assert per["near"].entropy_term == 0.0

    def test_single_dialog_corpus_matches_corpus_level(self):
        rng = np.random.default_rng(15)
        corpus, matrix = random_corpus_and_embeddings(rng, max_dialogs=1)
        config = CoreConfig()
        assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
        corpus_b = compute_core(corpus, matrix, config, assignment=assignment)
        ((_, dialog_b),) = core_per_dialog(corpus, matrix, config, assignment)
        assert dialog_b.core == pytest.approx(corpus_b.core, abs=1e-12)
        assert dialog_b.entropy_term == pytest.approx(corpus_b.entropy_term, abs=1e-12)

    def test_single_utterance_dialog_flagged(self):
        spec = [("solo", "neutral", ["lone words here"]),
                ("pair", "neutral", ["first turn words", "second turn words"])]
        corpus = make_corpus(spec)
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        matrix = matrix_for(corpus, rows)
        config = CoreConfig()
        assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
        per = dict(core_per_dialog(corpus, matrix, config, assignment))
        assert per["solo"].stagnation_term == 0.0
        assert FLAG_NO_STAGNATION_PAIRS in per["solo"].flags
        assert per["solo"].core == 0.0

    def test_fully_repetitive_two_turn_exchange_near_zero(self):
        # diverse surrounding corpus, one dialog that just repeats itself
        spec = [("aaa__bbb__neutral__0", "neutral",
                 ["same here looking forward to it", "same here looking forward to it"]),
                ("aaa__bbb__neutral__1", "neutral",
                 ["completely different words about gardens", "and travel plans for spring"])]
        corpus = make_corpus(spec)
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        matrix = matrix_for(corpus, rows)
        config = CoreConfig(ngram_n=2)
        assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
        per = dict(core_per_dialog(corpus, matrix, config, assignment))
        repetitive = per["aaa__bbb__neutral__0"]
        diverse = per["aaa__bbb__neutral__1"]
        assert repetitive.core < 0.05
        assert repetitive.core < diverse.core

    def test_exponents_match_corpus_level(self):
        rng = np.random.default_rng(16)
        corpus, matrix = random_corpus_and_embeddings(rng, max_dialogs=4)
        config = CoreConfig()
        assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
        corpus_b = compute_core(corpus, matrix, config, assignment=assignment)
        for _, b in core_per_dialog(corpus, matrix, config, assignment):
            assert b.alpha_used == corpus_b.alpha_used
            assert b.beta_used == corpus_b.beta_used


class TestResolveExponents:
    def test_explicit_passthrough(self):
        corpus = make_corpus([("d", "neutral", ["a b", "c d"])])
        config = CoreConfig(alpha_source="explicit", beta_source="explicit",
                            alpha=1.7, beta=0.3)
        alpha, beta, flags = resolve_exponents(corpus, config)
        assert (alpha, beta) == (1.7, 0.3)
        assert not flags

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(k_max=1)
        with pytest.raises(ValueError):
            CoreConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            CoreConfig(alpha_source="guess")
        with pytest.raises(ValueError):
            CoreConfig(ngram_n=0)
        with pytest.raises(ValueError, match="repetition_counting .*, got 'bigrams'"):
            CoreConfig(repetition_counting="bigrams")
