"""Embedding I/O, endpoint client, and stagnation tests."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from coreval._http import EndpointError
from coreval.embeddings import (
    EmbeddingError, EmbeddingMatrix, dialog_stagnation, fetch_embeddings,
    load_embeddings, save_embeddings,
)
from conftest import echo_embed_handler, make_corpus, matrix_for


@pytest.fixture
def embed_jsonl(tmp_path):
    """Writes records to a new embedding JSONL file in tmp_path; returns its path."""
    paths = (tmp_path / f"emb{i}.jsonl" for i in itertools.count())

    def write(records):
        path = next(paths)
        path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        return path

    return write


@pytest.fixture
def two_turn_corpus():
    return make_corpus([("d1", "neutral", ["hello there", "hi back"])])


class TestLoadEmbeddings:
    def test_basic(self, two_turn_corpus, embed_jsonl):
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, 0.0, 0.0, 0.0]},
            {"dialog_id": "d1", "turn_index": 1, "vector": [0.0, 1.0, 0.0, 0.0]},
        ]
        matrix = load_embeddings(embed_jsonl(records), two_turn_corpus)
        assert matrix.rows.shape == (2, 4)
        assert matrix.rows.shape[1] == 4

    def test_missing_key_named(self, two_turn_corpus, embed_jsonl):
        records = [{"dialog_id": "d1", "turn_index": 0, "vector": [1.0, 2.0]}]
        with pytest.raises(EmbeddingError, match=r"missing embedding.*'d1', 1"):
            load_embeddings(embed_jsonl(records), two_turn_corpus)

    def test_shuffled_order_same_matrix(self, two_turn_corpus, embed_jsonl):
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, 2.0]},
            {"dialog_id": "d1", "turn_index": 1, "vector": [3.0, 4.0]},
        ]
        sorted_matrix = load_embeddings(embed_jsonl(records), two_turn_corpus)
        shuffled_matrix = load_embeddings(embed_jsonl(records[::-1]), two_turn_corpus)
        assert np.array_equal(sorted_matrix.rows, shuffled_matrix.rows)

    def test_empty_file_names_the_first_missing_key(self, two_turn_corpus, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("")
        with pytest.raises(EmbeddingError,
                           match=r"^missing embedding for utterance \('d1', 0\)$"):
            load_embeddings(path, two_turn_corpus)

    def test_duplicate_key(self, two_turn_corpus, embed_jsonl):
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [1.0]},
            {"dialog_id": "d1", "turn_index": 0, "vector": [2.0]},
        ]
        with pytest.raises(EmbeddingError, match="duplicate key"):
            load_embeddings(embed_jsonl(records), two_turn_corpus)

    def test_dimension_mismatch(self, two_turn_corpus, embed_jsonl):
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, 2.0]},
            {"dialog_id": "d1", "turn_index": 1, "vector": [3.0]},
        ]
        with pytest.raises(EmbeddingError, match="dimension"):
            load_embeddings(embed_jsonl(records), two_turn_corpus)

    def test_non_finite_rejected(self, two_turn_corpus, embed_jsonl):
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, float("nan")]},
            {"dialog_id": "d1", "turn_index": 1, "vector": [3.0, 4.0]},
        ]
        with pytest.raises(EmbeddingError, match="non-finite"):
            load_embeddings(embed_jsonl(records), two_turn_corpus)

    def test_zero_norm_rejected(self, two_turn_corpus, embed_jsonl):
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [0.0, 0.0]},
            {"dialog_id": "d1", "turn_index": 1, "vector": [3.0, 4.0]},
        ]
        with pytest.raises(EmbeddingError, match="zero-norm"):
            load_embeddings(embed_jsonl(records), two_turn_corpus)

    @pytest.mark.parametrize("index", [1.7, True, "1"])
    def test_turn_index_must_be_json_integer(self, two_turn_corpus, index, embed_jsonl):
        # int() would read each of these as turn 1
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, 2.0]},
            {"dialog_id": "d1", "turn_index": index, "vector": [3.0, 4.0]},
        ]
        with pytest.raises(EmbeddingError, match="^line 2: bad record: turn_index "):
            load_embeddings(embed_jsonl(records), two_turn_corpus)

    def test_extra_keys_tolerated(self, two_turn_corpus, embed_jsonl):
        records = [
            {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, 2.0]},
            {"dialog_id": "d1", "turn_index": 1, "vector": [3.0, 4.0]},
            {"dialog_id": "other", "turn_index": 0, "vector": [5.0, 6.0]},
        ]
        matrix = load_embeddings(embed_jsonl(records), two_turn_corpus)
        assert matrix.rows.shape == (2, 2)

    @pytest.mark.parametrize("lines,message", [
        # a malformed line is raised at once, though a bad row comes before it
        ([{"dialog_id": "d1", "turn_index": 0, "vector": [1.0, float("nan")]}, "{"],
         r"^line 2: invalid JSON: "),
        # bad rows are named in file order, whether the corpus holds their key or not
        ([{"dialog_id": "other", "turn_index": 0, "vector": [0.0, 0.0]},
          {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, float("nan")]},
          {"dialog_id": "d1", "turn_index": 1, "vector": [3.0, 4.0]}],
         r"^\('other', 0\): zero-norm vector$"),
        ([{"dialog_id": "d1", "turn_index": 0, "vector": [1.0, float("nan")]},
          {"dialog_id": "other", "turn_index": 0, "vector": [0.0, 0.0]},
          {"dialog_id": "d1", "turn_index": 1, "vector": [3.0, 4.0]}],
         r"^\('d1', 0\): non-finite value in vector$"),
        ([{"dialog_id": "d1", "turn_index": 1, "vector": [0.0, 0.0]},
          {"dialog_id": "d1", "turn_index": 0, "vector": [1.0, float("nan")]}],
         r"^\('d1', 1\): zero-norm vector$"),
        # a bad row is named before a missing key
        ([{"dialog_id": "d1", "turn_index": 1, "vector": [0.0, 0.0]}],
         r"^\('d1', 1\): zero-norm vector$"),
    ])
    def test_first_fault_named(self, two_turn_corpus, tmp_path, lines, message):
        path = tmp_path / "emb.jsonl"
        path.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                                for line in lines))
        with pytest.raises(EmbeddingError, match=message):
            load_embeddings(path, two_turn_corpus)

    def test_peak_memory_near_the_matrix(self, tmp_path):
        # the rows are written straight into the returned matrix: no per-line
        # arrays, file-order matrix or re-aligned copy live next to it
        corpus = make_corpus([(f"d{i}", "neutral", ["a b"] * 10) for i in range(90)])
        rows = np.random.default_rng(7).normal(size=(900, 384))
        path = tmp_path / "emb.jsonl"
        save_embeddings(matrix_for(corpus, rows), path)
        tracemalloc.start()
        try:
            matrix = load_embeddings(path, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(matrix.rows, rows)
        assert peak <= 1.5 * matrix.rows.nbytes, peak / matrix.rows.nbytes

    def test_save_load_round_trip_bit_exact(self, two_turn_corpus, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(2, 5))
        matrix = matrix_for(two_turn_corpus, rows)
        path = tmp_path / "emb.jsonl"
        save_embeddings(matrix, path)
        again = load_embeddings(path, two_turn_corpus)
        assert np.array_equal(matrix.rows, again.rows)
        assert matrix.keys == again.keys


class TestFetchEmbeddings:
    def test_matches_mock_fixtures(self, two_turn_corpus, mock_service):
        service = mock_service(echo_embed_handler(dim=3))
        matrix = fetch_embeddings(service.url, two_turn_corpus, batch_size=8)
        assert matrix.rows.shape == (2, 3)
        texts = [u.text for u in two_turn_corpus.iter_utterances()]
        _, expected = echo_embed_handler(dim=3)("/", {"input": texts})
        want = np.array([item["embedding"] for item in expected["data"]])
        assert np.array_equal(matrix.rows, want)

    def test_batching_arithmetic(self, mock_service):
        corpus = make_corpus([("d1", "neutral", ["a b", "c d", "e f", "g h", "i j"])])
        service = mock_service(echo_embed_handler())
        fetch_embeddings(service.url, corpus, batch_size=2)
        assert len(service.calls) == 3
        sizes = sorted(len(payload["input"]) for _, payload in service.calls)
        assert sizes == [1, 2, 2]

    def test_retry_after_transient_500(self, two_turn_corpus, mock_service):
        state = {"n": 0}

        def flaky(path, payload):
            state["n"] += 1
            if state["n"] <= 2:
                return 500, {"error": "transient"}
            return echo_embed_handler()(path, payload)

        service = mock_service(flaky)
        matrix = fetch_embeddings(service.url, two_turn_corpus, batch_size=8)
        assert matrix.rows.shape == (2, 4)
        assert state["n"] == 3

    def test_persistent_failure_raises(self, two_turn_corpus, mock_service):
        service = mock_service(lambda path, payload: (500, {"error": "down"}))
        with pytest.raises(EndpointError):
            fetch_embeddings(service.url, two_turn_corpus)
        assert len(service.calls) == 3

    def test_4xx_fails_immediately(self, two_turn_corpus, mock_service):
        service = mock_service(lambda path, payload: (404, {"error": "nope"}))
        with pytest.raises(EndpointError):
            fetch_embeddings(service.url, two_turn_corpus)
        assert len(service.calls) == 1

    def test_dimension_inconsistency_across_batches(self, mock_service):
        corpus = make_corpus([("d1", "neutral", ["a b", "c d", "e f"])])
        state = {"n": 0}

        def inconsistent(path, payload):
            state["n"] += 1
            dim = 3 if state["n"] == 1 else 4
            data = [{"index": i, "embedding": [1.0] * dim}
                    for i in range(len(payload["input"]))]
            return 200, {"data": data}

        service = mock_service(inconsistent)
        # a reply's bad vector is the service's fault: EndpointError, naming the key
        with pytest.raises(EndpointError, match=r"\('d1', 2\): dimension 4 != expected 3"):
            fetch_embeddings(service.url, corpus, batch_size=2, max_inflight=1)

    @pytest.mark.parametrize("index", [lambda i: i + 0.9, bool, str],
                             ids=["float", "bool", "string"])
    def test_reply_index_must_be_json_integer(self, two_turn_corpus, mock_service, index):
        # int() would read each index of this two-item reply as 0 and 1
        def handler(path, payload):
            return 200, {"data": [{"index": index(i), "embedding": [1.0, 2.0]}
                                  for i in range(len(payload["input"]))]}

        service = mock_service(handler)
        with pytest.raises(EndpointError, match="bad or repeated index"):
            fetch_embeddings(service.url, two_turn_corpus)

    def test_model_passed_through(self, two_turn_corpus, mock_service):
        service = mock_service(echo_embed_handler())
        fetch_embeddings(service.url, two_turn_corpus, model="small-embedder")
        assert service.calls[0][1]["model"] == "small-embedder"


class TestDialogStagnation:
    def test_identical_rows(self):
        rows = np.tile(np.array([1.0, 2.0, 0.5]), (4, 1))
        assert dialog_stagnation(rows) == pytest.approx(1.0, abs=1e-12)

    def test_alternating_orthogonal(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert dialog_stagnation(rows) == 0.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(10, 6))
        expected = np.mean([
            float(np.dot(rows[j], rows[j + 1])
                  / (np.linalg.norm(rows[j]) * np.linalg.norm(rows[j + 1])))
            for j in range(9)
        ])
        assert abs(dialog_stagnation(rows) - expected) < 1e-12

    def test_matches_per_pair_cosine(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = rng.normal(size=(rng.integers(2, 12), rng.integers(1, 9)))
            # anti-parallel pairs: a row followed by a scaled negation of it
            for j in np.flatnonzero(rng.random(len(rows) - 1) < 0.3) + 1:
                rows[j] = -rng.uniform(0.1, 10.0) * rows[j - 1]
            expected = np.mean([
                float(np.dot(rows[j], rows[j + 1])
                      / (np.linalg.norm(rows[j]) * np.linalg.norm(rows[j + 1])))
                for j in range(len(rows) - 1)
            ])
            assert abs(dialog_stagnation(rows) - expected) <= 1e-12

    def test_zero_norm_row(self):
        with pytest.raises(EmbeddingError, match="zero-norm"):
            dialog_stagnation(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]]))

    def test_in_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rows = rng.normal(size=(rng.integers(2, 8), 4))
            assert -1.0 - 1e-9 <= dialog_stagnation(rows) <= 1.0 + 1e-9

    def test_order_sensitivity(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        ordered = np.array([a, a, b])     # sims: 1, 0 -> mean 0.5
        permuted = np.array([a, b, a])    # sims: 0, 0 -> mean 0.0
        assert dialog_stagnation(ordered) != dialog_stagnation(permuted)

    def test_too_few_rows(self):
        with pytest.raises(EmbeddingError):
            dialog_stagnation(np.array([[1.0, 2.0]]))


class TestEmbeddingMatrix:
    def test_row_count_mismatch(self):
        with pytest.raises(EmbeddingError):
            EmbeddingMatrix(keys=(("d1", 0),), rows=np.ones((2, 3)))

    @pytest.mark.parametrize("row,problem", [([0.0, 0.0], "zero-norm vector"),
                                             ([1.0, np.nan], "non-finite value in vector")])
    def test_bad_row_names_its_key(self, row, problem):
        # the first bad row is named, though a later one is bad too
        keys = (("d1", 0), ("d1", 1), ("d2", 0))
        with pytest.raises(EmbeddingError) as info:
            EmbeddingMatrix(keys=keys, rows=np.array([[1.0, 2.0], row, [np.inf, 0.0]]))
        assert str(info.value) == f"('d1', 1): {problem}"

    def test_subset_alignment(self):
        corpus = make_corpus([("a", "neutral", ["x y", "z w"]),
                              ("b", "neutral", ["p q", "r s"])])
        rows = np.arange(8, dtype=float).reshape(4, 2) + 1
        matrix = matrix_for(corpus, rows)
        from coreval.corpus import Corpus
        sub = Corpus(dialogs=(corpus.dialogs[1],))
        sub_matrix = matrix.subset(sub)
        assert np.array_equal(sub_matrix.rows, rows[2:])
