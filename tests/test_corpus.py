"""Corpus parsing, tokenization, and count-table tests."""

import io
import json
import re
from collections import Counter

import numpy as np
import pytest

from coreval.corpus import (
    CorpusError, TokenStats, extract_ngrams, parse_corpus, rank_frequency, tokenize, vocab_growth,
)
from conftest import dialog_jsonl_line, make_corpus


class TestTokenize:
    def test_basic(self):
        assert tokenize("Hello, world! Hello") == ["hello", "world", "hello"]

    def test_apostrophe_is_boundary(self):
        assert tokenize("don't") == ["don", "t"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_and_underscore(self):
        assert tokenize("a_b 42 c-d") == ["a_b", "42", "c", "d"]

    def test_rejoin_idempotence(self):
        rng = np.random.default_rng(11)
        fragments = ["Hello there!", "it's 9:30...", "foo_bar BAZ", "1,2,3 go", "çöp ünïcode"]
        for _ in range(50):
            text = " ".join(fragments[i] for i in rng.integers(0, len(fragments), 4))
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens

    def test_matches_word_boundary_oracle(self):
        # maximal \w runs are exactly the \b\w+\b matches, also where
        # lowercasing changes the length (İ) or a combining mark is a \w char
        rng = np.random.default_rng(12)
        alphabet = list("abcXYZ_09 ,.'-!\t") + ["\u0301", "\u0308", "İ", "ß", "ẞ", "日", "本",
                                                 "語", "é", "e\u0301", "Σ", "ς", "١"]
        for _ in range(2000):
            text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(0, 30)))
            assert tokenize(text) == re.findall(r"\b\w+\b", text.lower()), text


class TestParseCorpus:
    def test_minimal_valid(self):
        line = dialog_jsonl_line("d1", "neutral", ["hi there", "hello back"])
        corpus = parse_corpus(io.StringIO(line))
        assert len(corpus) == 1
        assert len(corpus.dialogs[0].utterances) == 2
        assert corpus.dialogs[0].utterances[0].agent == "A"

    def test_bytes_stream(self):
        line = dialog_jsonl_line("d1", "neutral", ["hi", "yo"]).encode()
        corpus = parse_corpus(io.BytesIO(line))
        assert len(corpus) == 1

    def test_unknown_condition_names_line_and_field(self):
        line = dialog_jsonl_line("d1", "neutral", ["hi", "yo"])
        bad = line.replace("neutral", "hostile")
        with pytest.raises(CorpusError, match=r"line 1.*hostile.*condition"):
            parse_corpus(io.StringIO(bad))

    def test_duplicate_id(self):
        lines = "\n".join([
            dialog_jsonl_line("d1", "neutral", ["hi", "yo"]),
            dialog_jsonl_line("d1", "neutral", ["hello", "sup"]),
        ])
        with pytest.raises(CorpusError, match=r"line 2.*duplicate dialog id"):
            parse_corpus(io.StringIO(lines))

    def test_non_alternating_agents(self):
        obj = json.loads(dialog_jsonl_line("d1", "neutral", ["hi", "yo"]))
        obj["turns"][1]["agent"] = "A"
        with pytest.raises(CorpusError, match=r"line 1.*alternate"):
            parse_corpus(io.StringIO(json.dumps(obj)))

    def test_empty_text(self):
        obj = json.loads(dialog_jsonl_line("d1", "neutral", ["hi", "  "]))
        with pytest.raises(CorpusError, match=r"line 1.*empty text"):
            parse_corpus(io.StringIO(json.dumps(obj)))

    @pytest.mark.parametrize("text", [5, None, True, ["hi"], {"text": "hi"}])
    def test_non_string_text_names_line_and_turn(self, text):
        obj = json.loads(dialog_jsonl_line("d2", "neutral", ["hi", "yo"]))
        obj["turns"][1]["text"] = text
        lines = dialog_jsonl_line("d1", "neutral", ["hi", "yo"]) + "\n" + json.dumps(obj)
        with pytest.raises(CorpusError, match=r"line 2: turn 1: text must be a string"):
            parse_corpus(io.StringIO(lines))

    def test_invalid_json_line_number(self):
        lines = dialog_jsonl_line("d1", "neutral", ["hi", "yo"]) + "\n{not json\n"
        with pytest.raises(CorpusError, match=r"line 2.*invalid JSON"):
            parse_corpus(io.StringIO(lines))

    def test_missing_field(self):
        obj = json.loads(dialog_jsonl_line("d1", "neutral", ["hi", "yo"]))
        del obj["agent_b"]
        with pytest.raises(CorpusError, match=r"line 1.*agent_b"):
            parse_corpus(io.StringIO(json.dumps(obj)))

    def test_thirty_dialogs_of_ten_turns(self):
        lines = "\n".join(
            dialog_jsonl_line(f"d{k:02d}", "cooperative", [f"turn {t} of dialog {k}" for t in range(10)])
            for k in range(30)
        )
        corpus = parse_corpus(io.StringIO(lines))
        assert len(corpus) == 30
        assert sum(len(d.utterances) for d in corpus.dialogs) == 300

    def test_iteration_order_sorted_by_id(self):
        lines = "\n".join([
            dialog_jsonl_line("zz", "neutral", ["a b", "c d"]),
            dialog_jsonl_line("aa", "neutral", ["e f", "g h"]),
        ])
        corpus = parse_corpus(io.StringIO(lines))
        assert [d.id for d in corpus.dialogs] == ["aa", "zz"]


class TestExtractNgrams:
    def test_enumerated_bigrams(self):
        corpus = make_corpus([("d1", "neutral", ["a b", "a b"])])
        ngrams = extract_ngrams(corpus, 2)
        assert ngrams == {("a", "b"): 2, ("b", "a"): 1}
        assert sum(ngrams.values()) == 3

    def test_n_larger_than_dialogs(self):
        corpus = make_corpus([("d1", "neutral", ["a b", "c"])])
        ngrams = extract_ngrams(corpus, 10)
        assert ngrams == {}
        assert sum(ngrams.values()) == 0

    def test_no_windows_across_dialogs(self):
        corpus = make_corpus([("d1", "neutral", ["a", "b"]), ("d2", "neutral", ["c", "d"])])
        ngrams = extract_ngrams(corpus, 2)
        assert ("b", "c") not in ngrams

    def test_windows_cross_utterances_within_dialog(self):
        corpus = make_corpus([("d1", "neutral", ["a b", "c d"])])
        ngrams = extract_ngrams(corpus, 2)
        assert ngrams[("b", "c")] == 1

    def test_matches_naive_counter_oracle(self):
        rng = np.random.default_rng(5)
        spec = []
        for d in range(5):
            texts = [" ".join(f"w{int(w)}" for w in rng.integers(0, 6, rng.integers(2, 9)))
                     for _ in range(int(rng.integers(2, 5)))]
            spec.append((f"d{d}", "neutral", texts))
        corpus = make_corpus(spec)
        ngrams = extract_ngrams(corpus, 3)

        oracle: Counter = Counter()
        for dialog in corpus.dialogs:
            tokens = dialog.tokens()
            for i in range(len(tokens)):
                window = tokens[i : i + 3]
                if len(window) == 3:
                    oracle[tuple(window)] += 1
        assert ngrams == dict(oracle)
        assert sum(ngrams.values()) == sum(oracle.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_slicing_oracle_every_order(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(20):
            # one-word turns make dialogs of 1-3 tokens, shorter than some n
            spec = [(f"d{d}", "neutral",
                     [" ".join(f"w{int(w)}" for w in rng.integers(0, 4, rng.integers(1, 4)))
                      for _ in range(int(rng.integers(1, 4)))])
                    for d in range(int(rng.integers(1, 5)))]
            corpus = make_corpus(spec)
            oracle: Counter = Counter()
            for dialog in corpus.dialogs:
                tokens = dialog.tokens()
                for i in range(len(tokens) - n + 1):
                    oracle[tuple(tokens[i : i + n])] += 1
            ngrams = extract_ngrams(corpus, n)
            assert ngrams == dict(oracle)
            assert sum(ngrams.values()) == sum(oracle.values())

    def test_total_occurrences_identity(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 5):
            spec = [(f"d{d}", "neutral",
                     [" ".join(f"w{int(w)}" for w in rng.integers(0, 5, rng.integers(1, 7)))
                      for _ in range(int(rng.integers(2, 4)))])
                    for d in range(4)]
            corpus = make_corpus(spec)
            ngrams = extract_ngrams(corpus, n)
            expected = sum(max(0, len(d.tokens()) - n + 1) for d in corpus.dialogs)
            assert sum(ngrams.values()) == expected

    def test_invalid_n(self):
        corpus = make_corpus([("d1", "neutral", ["a", "b"])])
        with pytest.raises(ValueError):
            extract_ngrams(corpus, 0)


class TestRankFrequency:
    def test_basic_counts(self):
        corpus = make_corpus([("d1", "neutral", ["a a", "b"])])
        stats = rank_frequency(corpus)
        assert stats.entries == (("a", 2), ("b", 1))
        assert stats.total_tokens == 3

    def test_lexicographic_tie_break(self):
        corpus = make_corpus([("d1", "neutral", ["b", "a"])])
        stats = rank_frequency(corpus)
        assert stats.entries == (("a", 1), ("b", 1))

    def test_unique_count_matches_set_oracle(self):
        rng = np.random.default_rng(7)
        spec = [(f"d{d}", "neutral",
                 [" ".join(f"w{int(w)}" for w in rng.integers(0, 30, 10)) for _ in range(3)])
                for d in range(6)]
        corpus = make_corpus(spec)
        stats = rank_frequency(corpus)
        all_tokens = list(corpus.iter_tokens())
        assert len(stats.entries) == len(set(all_tokens))
        assert stats.total_tokens == len(all_tokens)

    def test_permutation_invariance(self):
        spec = [("d1", "neutral", ["red blue", "green red"]),
                ("d2", "neutral", ["blue blue", "red green"])]
        corpus = make_corpus(spec)
        shuffled = make_corpus(spec[::-1])
        assert rank_frequency(corpus) == rank_frequency(shuffled)

    def test_empty_corpus_raises(self):
        corpus = make_corpus([("d1", "neutral", ["!!!", "???"])])
        with pytest.raises(CorpusError, match="no tokens"):
            rank_frequency(corpus)

    def test_order_matches_key_sort_with_ties(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            counts = {f"t{int(i)}": int(rng.integers(1, 4)) for i in rng.permutation(300)}
            stats = TokenStats.from_counts(counts)
            assert stats.entries == tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def test_token_stats_validates_sort(self):
        with pytest.raises(CorpusError):
            TokenStats(entries=(("a", 1), ("b", 2)), total_tokens=3)


class TestVocabGrowth:
    def test_stride_one(self):
        corpus = make_corpus([("d1", "neutral", ["a b", "a"])])
        curve = vocab_growth(corpus, 1)
        assert curve.points == ((1, 1), (2, 2), (3, 2))

    def test_all_distinct(self):
        corpus = make_corpus([("d1", "neutral", ["a b c", "d e f"])])
        curve = vocab_growth(corpus, 1)
        assert all(v == n for n, v in curve.points)

    def test_large_stride_final_point(self):
        rng = np.random.default_rng(8)
        spec = [(f"d{d}", "neutral",
                 [" ".join(f"w{int(w)}" for w in rng.integers(0, 40, 20)) for _ in range(3)])
                for d in range(5)]
        corpus = make_corpus(spec)
        curve = vocab_growth(corpus, 100)
        tokens = list(corpus.iter_tokens())
        assert curve.points[-1] == (len(tokens), len(set(tokens)))
        assert all(n % 100 == 0 for n, _ in curve.points[:-1])

    def test_invalid_stride(self):
        corpus = make_corpus([("d1", "neutral", ["a", "b"])])
        with pytest.raises(ValueError):
            vocab_growth(corpus, 0)

    def test_matches_set_loop_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            spec = [(f"d{d}", "neutral",
                     [" ".join(f"w{int(w)}" for w in rng.integers(0, 25, rng.integers(1, 12)))
                      for _ in range(int(rng.integers(1, 5)))])
                    for d in range(int(rng.integers(1, 5)))]
            corpus = make_corpus(spec)
            tokens = list(corpus.iter_tokens())
            n = len(tokens)
            non_divisor = next(s for s in range(2, n + 2) if n % s)
            for stride in (1, 2, n, non_divisor, n + 1, 10 * n):
                seen, points = set(), []
                for i, token in enumerate(tokens, start=1):
                    seen.add(token)
                    if i % stride == 0 or i == n:
                        points.append((i, len(seen)))
                assert vocab_growth(corpus, stride).points == tuple(points), stride

