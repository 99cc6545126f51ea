"""Behavioral metric tests: cue matching, repetition, sentiment, toxicity."""

import logging
import threading
import time

import numpy as np
import pytest

from coreval._http import EndpointError
from coreval.behavior import (
    CUE_NAMES, TOXICITY_BATCH, BehaviorProfile, CueLexicon, behavior_profile, cue_rate,
    default_cue_lexicons, dialog_text, load_cue_lexicon, load_sentiment_lexicon,
    repetition_rate, sentiment, toxicity,
)
from coreval.corpus import extract_ngrams, parse_corpus
from coreval.metric import repeated_fraction
from conftest import DATA_DIR, make_corpus, make_dialog


def lexicon(name, phrases):
    return CueLexicon(name=name, phrases=frozenset(tuple(p.split()) for p in phrases))


def reference_cue_rate(tokens, lexicon):
    """The full scan over every phrase length, kept as the oracle for cue_rate."""
    if not tokens:
        raise ValueError("cue_rate undefined for an empty dialog")
    max_len = max(len(p) for p in lexicon.phrases)
    matches = 0
    i = 0
    n = len(tokens)
    while i < n:
        for length in range(min(max_len, n - i), 0, -1):
            if tuple(tokens[i : i + length]) in lexicon.phrases:
                matches += 1
                i += length
                break
        else:
            i += 1
    return matches / n


class TestCueRate:
    def test_single_match(self):
        lex = lexicon("agreement", ["agree"])
        assert cue_rate(["i", "agree", "completely"], lex) == pytest.approx(1 / 3)

    def test_no_matches(self):
        lex = lexicon("agreement", ["agree"])
        assert cue_rate(["nothing", "matches", "here"], lex) == 0.0

    def test_all_tokens_match(self):
        lex = lexicon("hedging", ["maybe", "perhaps"])
        assert cue_rate(["maybe", "perhaps"], lex) == 1.0

    def test_longest_match_first(self):
        lex = lexicon("agreement", ["sounds good", "good"])
        # "sounds good" consumes both tokens: one match, not two
        assert cue_rate(["sounds", "good"], lex) == pytest.approx(1 / 2)

    def test_non_overlapping(self):
        lex = lexicon("hedging", ["kind of"])
        assert cue_rate(["kind", "of", "kind", "of"], lex) == pytest.approx(2 / 4)

    def test_rate_bounded_by_one(self):
        rng = np.random.default_rng(0)
        lex = lexicon("hedging", ["maybe", "kind of", "i think"])
        pool = ["maybe", "kind", "of", "i", "think", "other", "words"]
        for _ in range(50):
            tokens = [pool[int(i)] for i in rng.integers(0, len(pool), rng.integers(1, 20))]
            assert 0.0 <= cue_rate(tokens, lex) <= 1.0

    def test_utterance_boundary_invariance(self):
        # matching runs over the dialog's concatenated stream, so a phrase
        # split across utterances still matches
        lex = lexicon("agreement", ["sounds good"])
        d1 = make_dialog("d1", "neutral", ["that sounds", "good to me"])
        assert cue_rate(d1.tokens(), lex) == pytest.approx(1 / 5)

    def test_empty_dialog_raises(self):
        with pytest.raises(ValueError):
            cue_rate([], lexicon("agreement", ["agree"]))

    def test_matches_reference_on_random_lexicons(self):
        # a small vocabulary makes shared first tokens, phrases that are
        # prefixes of others and near-misses common; streams start at one
        # token, shorter than most phrases
        rng = np.random.default_rng(10)
        vocab = [f"w{i}" for i in range(6)]
        for case in range(3000):
            phrases = set()
            for _ in range(int(rng.integers(1, 9))):
                length = int(rng.integers(1, 4))
                phrases.add(tuple(vocab[int(j)] for j in rng.integers(0, len(vocab), length)))
            if case % 3 == 0:
                # force a prefix chain: a, a b, a b c
                head = tuple(vocab[int(j)] for j in rng.integers(0, len(vocab), 3))
                phrases.update({head[:1], head[:2], head})
            lex = CueLexicon(name="hedging", phrases=frozenset(phrases))
            tokens = [vocab[int(j)] for j in rng.integers(0, len(vocab), rng.integers(1, 25))]
            assert cue_rate(tokens, lex) == reference_cue_rate(tokens, lex)
            assert cue_rate(tuple(tokens), lex) == reference_cue_rate(tokens, lex)

    def test_matches_reference_on_short_streams(self):
        lex = lexicon("agreement", ["a b c", "a b", "b c", "c"])
        for tokens in (["a"], ["a", "b"], ["b"], ["b", "c"], ["a", "b", "c"], ["c", "a"]):
            assert cue_rate(tokens, lex) == reference_cue_rate(tokens, lex)

    def test_matches_reference_on_fixture_corpus(self):
        with open(DATA_DIR / "fixture_corpus.jsonl", encoding="utf-8") as fh:
            corpus = parse_corpus(fh)
        lexicons = default_cue_lexicons()
        for dialog in corpus.dialogs:
            tokens = dialog.tokens()
            for lex in lexicons.values():
                assert cue_rate(tokens, lex) == reference_cue_rate(tokens, lex)


class TestRepetitionRate:
    def test_all_identical_unigrams(self):
        assert repetition_rate(["a", "a", "a", "a"], 1) == 1.0

    def test_all_distinct_unigrams(self):
        assert repetition_rate(["a", "b", "c"], 1) == 0.0

    def test_matches_metric_repeated_fraction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            texts = [" ".join(f"w{int(w)}" for w in rng.integers(0, 5, rng.integers(3, 10)))
                     for _ in range(int(rng.integers(2, 5)))]
            dialog = make_dialog("d", "neutral", texts)
            corpus = make_corpus([("d", "neutral", texts)])
            expected = repeated_fraction(extract_ngrams(corpus, 3))
            assert repetition_rate(dialog.tokens(), 3) == expected

    def test_short_dialog_zero_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="coreval.behavior"):
            assert repetition_rate(["a", "b"], 3) == 0.0
        assert "fewer than n" in caplog.text


class TestSentiment:
    def test_empty_text(self):
        assert sentiment("", {"good": 0.7}) == 0.0

    def test_single_word(self):
        assert sentiment("Great!", {"great": 0.8}) == 0.8

    def test_opposites_cancel(self):
        lex = {"best": 1.0, "worst": -1.0}
        assert sentiment("best worst", lex) == 0.0

    def test_bundled_lexicon(self):
        lex = load_sentiment_lexicon()
        assert len(lex) > 100
        assert all(-1.0 <= v <= 1.0 for v in lex.values())
        assert sentiment("this is great and wonderful", lex) > 0.0
        assert sentiment("this is terrible and awful", lex) < 0.0


def text_scores(texts):
    """Deterministic per-text scores in [0, 1]."""
    return [(sum(t.encode()) % 1000) / 1000 for t in texts]


class TestToxicity:
    def test_passthrough(self, mock_service):
        service = mock_service(lambda path, payload: (200, {"scores": [0.02]}))
        assert toxicity(service.url, ["hello"]) == [0.02]
        assert service.calls == [("/", {"texts": ["hello"]})]

    def test_out_of_range_rejected(self, mock_service):
        service = mock_service(lambda path, payload: (200, {"scores": [1.5]}))
        with pytest.raises(EndpointError, match="out of range"):
            toxicity(service.url, ["hello"])

    def test_boolean_score_rejected(self, mock_service):
        service = mock_service(lambda path, payload: (200, {"scores": [True]}))
        with pytest.raises(EndpointError, match="out of range"):
            toxicity(service.url, ["hello"])

    @pytest.mark.parametrize("scores", [[0.5], [0.5, 0.5, 0.5], None, "0.5"])
    def test_wrong_length_or_type_rejected(self, mock_service, scores):
        service = mock_service(lambda path, payload: (200, {"scores": scores}))
        with pytest.raises(EndpointError, match="malformed scores"):
            toxicity(service.url, ["a", "b"])

    def test_one_bad_score_in_a_batch_rejected(self, mock_service):
        service = mock_service(lambda path, payload: (200, {"scores": [0.1, -0.1, 0.2]}))
        with pytest.raises(EndpointError, match="out of range"):
            toxicity(service.url, ["a", "b", "c"])

    def test_retries_then_succeeds(self, mock_service):
        state = {"n": 0}

        def flaky(path, payload):
            state["n"] += 1
            if state["n"] == 1:
                return 500, {}
            return 200, {"scores": [0.4]}

        service = mock_service(flaky)
        assert toxicity(service.url, ["hello"]) == [0.4]

    @pytest.mark.parametrize("n", [0, 1, 32, 33, 90])
    def test_batches_of_at_most_32(self, mock_service, n):
        service = mock_service(
            lambda path, payload: (200, {"scores": text_scores(payload["texts"])}))
        texts = [f"text number {i}" for i in range(n)]
        assert toxicity(service.url, texts) == text_scores(texts)
        batches = [payload["texts"] for _, payload in service.calls]
        assert TOXICITY_BATCH == 32
        assert len(batches) == -(-n // 32)
        assert all(1 <= len(b) <= 32 for b in batches)
        assert sorted(t for b in batches for t in b) == sorted(texts)

    def test_input_order_when_batches_finish_out_of_order(self, mock_service):
        finished = []
        lock = threading.Lock()

        def handler(path, payload):
            # the first batch answers last
            if payload["texts"][0] == "text 0":
                time.sleep(0.3)
            with lock:
                finished.append(payload["texts"][0])
            return 200, {"scores": text_scores(payload["texts"])}

        service = mock_service(handler)
        texts = [f"text {i}" for i in range(90)]
        assert toxicity(service.url, texts, max_inflight=3) == text_scores(texts)
        assert finished[-1] == "text 0"
        assert sorted(finished) == sorted(["text 0", "text 32", "text 64"])

    def test_in_flight_bounded_by_max_inflight(self, mock_service):
        state = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def handler(path, payload):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.05)
            with lock:
                state["now"] -= 1
            return 200, {"scores": text_scores(payload["texts"])}

        service = mock_service(handler)
        texts = [f"t{i}" for i in range(32 * 6)]
        assert toxicity(service.url, texts, max_inflight=2) == text_scores(texts)
        assert len(service.calls) == 6
        assert state["peak"] <= 2

    def test_retry_stays_within_its_batch(self, mock_service):
        state = {"failed": False}
        lock = threading.Lock()

        def handler(path, payload):
            with lock:
                fail = payload["texts"][0] == "t32" and not state["failed"]
                state["failed"] |= fail
            if fail:
                return 500, {}
            return 200, {"scores": text_scores(payload["texts"])}

        service = mock_service(handler)
        texts = [f"t{i}" for i in range(70)]
        assert toxicity(service.url, texts) == text_scores(texts)
        firsts = sorted(payload["texts"][0] for _, payload in service.calls)
        assert firsts == ["t0", "t32", "t32", "t64"]


class TestBehaviorProfile:
    def test_no_endpoint_means_absent_toxicity(self):
        dialog = make_dialog("d", "neutral", ["i agree maybe", "no not really"])
        profile = behavior_profile(dialog)
        assert profile.toxicity is None

    def test_with_endpoint(self, mock_service):
        service = mock_service(lambda path, payload: (200, {"scores": [0.11]}))
        dialog = make_dialog("d", "neutral", ["i agree maybe", "no not really"])
        assert toxicity(service.url, [dialog_text(dialog)]) == [0.11]
        assert service.calls == [("/", {"texts": ["i agree maybe no not really"]})]

    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(2)
        pool = ["agree", "no", "maybe", "the", "cat", "sat", "i", "think", "wrong", "yes"]
        for _ in range(25):
            texts = [" ".join(pool[int(i)] for i in rng.integers(0, len(pool), 8))
                     for _ in range(3)]
            profile = behavior_profile(make_dialog("d", "neutral", texts))
            for rate in (profile.repetition_rate, profile.agreement_rate,
                         profile.disagreement_rate, profile.hedging_rate):
                assert 0.0 <= rate <= 1.0
            assert -1.0 <= profile.sentiment <= 1.0

    def test_dialog_without_word_tokens_rates_zero_with_warning(self, caplog):
        # every turn is the generator's "..." placeholder: legal input with no token
        dialog = make_dialog("m__m__neutral__0", "neutral", ["...", "..."])
        with caplog.at_level(logging.WARNING, logger="coreval.behavior"):
            profile = behavior_profile(dialog)
        assert profile == BehaviorProfile(repetition_rate=0.0, agreement_rate=0.0,
                                          disagreement_rate=0.0, hedging_rate=0.0,
                                          sentiment=0.0)
        assert any(r.name == "coreval.behavior" and "'m__m__neutral__0'" in r.getMessage()
                   for r in caplog.records)

    def test_repeat_invocation_identical(self):
        dialog = make_dialog("d", "neutral", ["i agree this is great", "maybe not really"])
        assert behavior_profile(dialog) == behavior_profile(dialog)

    def test_custom_lexicon_overrides(self, tmp_path):
        path = tmp_path / "agreement.txt"
        path.write_text("totally\n")
        lex = load_cue_lexicon("agreement", path)
        assert lex.phrases == frozenset({("totally",)})
        dialog = make_dialog("d", "neutral", ["totally agree", "ok then words"])
        profile = behavior_profile(dialog, cue_lexicons={**default_cue_lexicons(),
                                                         "agreement": lex})
        assert profile.agreement_rate == pytest.approx(1 / 5)


class TestLexiconLoading:
    def test_bundled_defaults(self):
        lexicons = default_cue_lexicons()
        assert set(lexicons) == set(CUE_NAMES)
        for lex in lexicons.values():
            assert all(1 <= len(p) <= 3 for p in lex.phrases)

    def test_lexicon_validation(self):
        with pytest.raises(ValueError, match="1-3 tokens"):
            CueLexicon(name="hedging", phrases=frozenset({("a", "b", "c", "d")}))
        with pytest.raises(ValueError, match="empty"):
            CueLexicon(name="hedging", phrases=frozenset())

    def test_bad_sentiment_file(self, tmp_path):
        path = tmp_path / "sent.tsv"
        path.write_text("word without tab\n")
        with pytest.raises(ValueError, match="word<TAB>polarity"):
            load_sentiment_lexicon(path)
