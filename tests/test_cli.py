"""End-to-end CLI tests: subcommands, exit codes, output round trips."""

import csv
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from coreval.cli import EXIT_OK, EXIT_PARTIAL, EXIT_SERVICE, EXIT_VALIDATION, main
from coreval.report import fmt6, write_csv
from conftest import DATA_DIR, dialog_jsonl_line, echo_chat_handler, echo_embed_handler

FIXTURE_CORPUS = str(DATA_DIR / "fixture_corpus.jsonl")
FIXTURE_EMBEDDINGS = str(DATA_DIR / "fixture_embeddings.jsonl")


ROOT = Path(__file__).resolve().parent.parent


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAnalyze:
    def test_fixture_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS,
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["corpora"][0]["corpus"] == FIXTURE_CORPUS
        breakdown = report["corpora"][0]["core_breakdown"]
        assert 0.0 <= breakdown["core"] <= 1.0
        assert len(report["corpora"][0]["per_dialog"]) == 12
        rows = read_csv(out / "per_dialog.csv")
        assert len(rows) == 12
        assert {r["condition"] for r in rows} == {"cooperative", "competitive", "neutral"}
        samples = read_csv(out / "condition_samples.csv")
        assert len(samples) == 3
        summary = read_csv(out / "summary.csv")
        assert {r["metric"] for r in summary} == \
            {"core", "zipf_alpha", "heaps_beta", "unique_tokens"}
        manifest = json.loads((out / "manifest_analyze.json").read_text())
        assert manifest["command"] == "analyze"

    def test_manifest_records_every_parsed_option(self, tmp_path):
        out = tmp_path / "out"
        argv = ["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS,
                "--cluster-seed", "7", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        manifest = json.loads((out / "manifest_analyze.json").read_text())
        assert manifest["argv"] == argv
        assert manifest["inputs"] == [FIXTURE_CORPUS]
        assert manifest["seeds"] == {"cluster_seed": 7}
        config = manifest["config"]
        assert set(config) == {"command", "inputs", "ngram", "threads", "out_dir", "kmax",
                               "embeddings", "embed_endpoint", "embed_model", "embed_batch",
                               "cluster_seed", "min_count", "max_rank", "heaps_stride",
                               "alpha", "beta", "fallback_exponent", "repetition_counting",
                               "sample_std"}
        assert (config["cluster_seed"], config["kmax"], config["out_dir"]) == (7, 10, str(out))

    def test_kmax_one_is_usage_error_before_work(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS,
                     "--kmax", "1", "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert not (out / "report.json").exists()

    def test_missing_embeddings_argument(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CORE_EMBED_ENDPOINT", raising=False)
        code = main(["analyze", FIXTURE_CORPUS, "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_embed_endpoint_env_var(self, tmp_path, monkeypatch, mock_service):
        service = mock_service(echo_embed_handler(dim=6))
        monkeypatch.setenv("CORE_EMBED_ENDPOINT", service.url)
        out = tmp_path / "out"
        code = main(["analyze", FIXTURE_CORPUS, "--out-dir", str(out)])
        assert code == EXIT_OK
        assert len(service.calls) >= 1
        assert (out / "report.json").exists()

    def test_unreachable_endpoint_is_service_failure(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CORE_EMBED_ENDPOINT", raising=False)
        code = main(["analyze", FIXTURE_CORPUS,
                     "--embed-endpoint", "http://127.0.0.1:1/none",
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_SERVICE

    @pytest.mark.parametrize("body", [[1, 2, 3], None, "x"])
    def test_non_object_embedding_reply_is_service_failure(self, tmp_path, capsys,
                                                            mock_service, body):
        service = mock_service(lambda path, payload: (200, body))
        code = main(["analyze", FIXTURE_CORPUS, "--embed-endpoint", service.url,
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_SERVICE
        assert "coreval: external service failure: " in capsys.readouterr().err

    def test_two_inputs_summary_groups_by_condition(self, tmp_path):
        # split the fixture into two files; summary must pool by condition
        lines = open(FIXTURE_CORPUS).read().strip().splitlines()
        part1 = tmp_path / "part1.jsonl"
        part2 = tmp_path / "part2.jsonl"
        part1.write_text("\n".join(lines[:6]) + "\n")
        part2.write_text("\n".join(lines[6:]) + "\n")
        out = tmp_path / "out"
        code = main(["analyze", str(part1), str(part2),
                     "--embeddings", FIXTURE_EMBEDDINGS, "--out-dir", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "per_dialog.csv")
        assert len(rows) == 12
        samples = read_csv(out / "condition_samples.csv")
        by_condition = {}
        for s in samples:
            by_condition.setdefault(s["condition"], []).append(s)
        # file order is coop x4, comp x4, neutral x4, so the 6/6 split leaves
        # competitive present in both parts
        assert {c: len(v) for c, v in by_condition.items()} == \
            {"cooperative": 1, "competitive": 2, "neutral": 1}
        summary = read_csv(out / "summary.csv")
        conditions = {r["condition"] for r in summary}
        assert conditions == {"cooperative", "competitive", "neutral"}

    def test_explicit_exponents(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS,
                     "--alpha", "2.0", "--beta", "0.5", "--out-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["corpora"][0]["core_breakdown"]["alpha_used"] == 2.0
        assert report["corpora"][0]["core_breakdown"]["beta_used"] == 0.5

    def test_condition_without_stagnation_pair_is_skipped(self, tmp_path, caplog):
        # neutral keeps one dialog cut to its first turn: one utterance, which
        # can be neither clustered nor scored for stagnation on its own
        dialogs = [json.loads(line) for line in open(FIXTURE_CORPUS)]
        neutral = next(d for d in dialogs if d["condition"] == "neutral")
        neutral["turns"] = neutral["turns"][:1]
        kept = [d for d in dialogs if d["condition"] != "neutral"] + [neutral]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(d) + "\n" for d in kept))
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="coreval.report"):
            code = main(["analyze", str(corpus), "--embeddings", FIXTURE_EMBEDDINGS,
                         "--out-dir", str(out)])
        assert code == EXIT_OK
        samples = read_csv(out / "condition_samples.csv")
        assert {s["condition"] for s in samples} == {"cooperative", "competitive"}
        assert len(read_csv(out / "per_dialog.csv")) == 9
        assert any(r.name == "coreval.report" and "'neutral'" in r.getMessage()
                   for r in caplog.records)

    def test_corpus_without_stagnation_pair_is_flagged(self, tmp_path):
        # every dialog cut to its first turn: the corpus gets a flagged breakdown
        # and every condition is skipped
        dialogs = [json.loads(line) for line in open(FIXTURE_CORPUS)]
        for d in dialogs:
            d["turns"] = d["turns"][:1]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(d) + "\n" for d in dialogs))
        out = tmp_path / "out"
        code = main(["analyze", str(corpus), "--embeddings", FIXTURE_EMBEDDINGS,
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        breakdown = json.loads((out / "report.json").read_text())["corpora"][0]["core_breakdown"]
        assert breakdown["stagnation_term"] == 0.0
        assert breakdown["core"] == 0.0
        assert "no_stagnation_pairs" in breakdown["flags"]
        assert len(read_csv(out / "per_dialog.csv")) == 12
        assert read_csv(out / "condition_samples.csv") == []

    def test_bad_vector_for_a_key_outside_the_corpus_is_validation_error(self, tmp_path,
                                                                         capsys):
        # every line of the file is checked, not only those the corpus reads
        lines = Path(FIXTURE_EMBEDDINGS).read_text().splitlines()
        dim = len(json.loads(lines[0])["vector"])
        extra = {"dialog_id": "not_in_corpus", "turn_index": 0, "vector": [float("nan")] * dim}
        emb = tmp_path / "emb.jsonl"
        emb.write_text("\n".join([*lines, json.dumps(extra)]) + "\n")
        out = tmp_path / "out"
        code = main(["analyze", FIXTURE_CORPUS, "--embeddings", str(emb), "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "coreval: error: ('not_in_corpus', 0): non-finite value in vector\n"
        assert not list(out.iterdir())

    def test_directory_input_is_validation_error(self, tmp_path, capsys):
        # opening a directory raises IsADirectoryError, an OSError but not a
        # FileNotFoundError: it must exit 1 with a message, not a traceback
        for argv in ([str(tmp_path), "--embeddings", FIXTURE_EMBEDDINGS],
                     [FIXTURE_CORPUS, "--embeddings", str(tmp_path)]):
            code = main(["analyze", *argv, "--out-dir", str(tmp_path / "out")])
            assert code == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith("coreval: error: ")

    def test_input_without_dialogs_is_validation_error(self, tmp_path, capsys):
        # checked before embeddings are loaded, which would stack zero rows
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        code = main(["analyze", str(empty), "--embeddings", FIXTURE_EMBEDDINGS,
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"coreval: error: {empty}: no dialogs to analyze\n"

    def test_negative_cluster_seed_is_validation_error_before_work(self, tmp_path, capsys):
        # the missing embeddings file shows that no input is read first
        out = tmp_path / "out"
        code = main(["analyze", FIXTURE_CORPUS, "--embeddings", str(tmp_path / "none.jsonl"),
                     "--cluster-seed", "-1", "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert "cluster_seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,value,name", [
        ("--min-count", "0", "zipf_min_count"), ("--min-count", "-4", "zipf_min_count"),
        ("--max-rank", "0", "zipf_max_rank"), ("--heaps-stride", "0", "heaps_stride"),
    ])
    def test_fit_option_below_one_is_validation_error_before_work(
            self, tmp_path, capsys, mock_service, option, value, name):
        # no embedding request shows that nothing was clustered or fitted first
        service = mock_service(echo_embed_handler())
        out = tmp_path / "out"
        code = main(["analyze", FIXTURE_CORPUS, "--embed-endpoint", service.url,
                     option, value, "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"coreval: error: {name} must be >= 1, got {value}\n"
        assert service.calls == []
        assert not out.exists()


class TestFit:
    def test_fit_csv(self, tmp_path):
        out = tmp_path / "out"
        code = main(["fit", FIXTURE_CORPUS, "--out-dir", str(out),
                     "--dump-rank-frequency"])
        assert code == EXIT_OK
        rows = read_csv(out / "fit.csv")
        assert len(rows) == 1
        assert rows[0]["corpus"] == FIXTURE_CORPUS
        assert float(rows[0]["alpha"]) > 0
        assert 0 < float(rows[0]["beta"]) <= 1.2
        assert int(rows[0]["unique_tokens"]) > 0
        rank_rows = read_csv(out / "rankfreq_fixture_corpus.csv")
        assert rank_rows[0]["rank"] == "1"
        counts = [int(r["count"]) for r in rank_rows]
        assert counts == sorted(counts, reverse=True)

    def test_inputs_sharing_a_stem_are_rejected_before_any_output(self, tmp_path, capsys):
        # both would be dumped to rankfreq_x.csv, the second over the first
        paths = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            paths.append(tmp_path / name / "x.jsonl")
            paths[-1].write_text(open(FIXTURE_CORPUS).read())
        out = tmp_path / "out"
        code = main(["fit", *map(str, paths), "--dump-rank-frequency", "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"coreval: error: {paths[0]} and {paths[1]} would "
                                           f"both be dumped to rankfreq_x.csv\n")
        assert not out.exists()
        assert main(["fit", *map(str, paths), "--out-dir", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("option,value", [
        ("--min-count", "0"), ("--min-count", "-4"), ("--max-rank", "0"),
    ])
    def test_fit_option_below_one_is_validation_error(self, tmp_path, capsys, option, value):
        out = tmp_path / "out"
        assert main(["fit", FIXTURE_CORPUS, option, value, "--out-dir", str(out)]) == \
            EXIT_VALIDATION
        assert "min_count and max_rank must be >= 1" in capsys.readouterr().err
        assert not (out / "fit.csv").exists()


class TestBehaviorCommand:
    def test_behavior_csv(self, tmp_path):
        out = tmp_path / "out"
        code = main(["behavior", FIXTURE_CORPUS, "--out-dir", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "behavior.csv")
        assert len(rows) == 12
        assert all(r["toxicity"] == "" for r in rows)
        for r in rows:
            assert 0.0 <= float(r["repetition_rate"]) <= 1.0

    def test_behavior_with_toxicity(self, tmp_path, mock_service):
        service = mock_service(
            lambda path, payload: (200, {"scores": [0.25] * len(payload["texts"])}))
        out = tmp_path / "out"
        code = main(["behavior", FIXTURE_CORPUS, "--toxicity-endpoint", service.url,
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out / "behavior.csv")
        assert all(r["toxicity"] == "0.25" for r in rows)

    def test_each_dialog_gets_its_own_score(self, tmp_path, mock_service):
        # 70 dialogs over two inputs: three batches, each row scored by its own text
        def score(text):
            return (sum(text.encode()) % 997) / 997

        expected = {}
        paths = []
        for part, (condition, count) in enumerate((("neutral", 40), ("cooperative", 30))):
            lines = []
            for k in range(count):
                dialog_id = f"a__b__{condition}__{part}{k}"
                turns = [f"hello {part} {k}", f"yes {k}"]
                expected[dialog_id] = fmt6(score(" ".join(turns)))
                lines.append(dialog_jsonl_line(dialog_id, condition, turns) + "\n")
            path = tmp_path / f"in{part}.jsonl"
            path.write_text("".join(lines))
            paths.append(str(path))
        service = mock_service(
            lambda path, payload: (200, {"scores": [score(t) for t in payload["texts"]]}))
        out = tmp_path / "out"
        assert main(["behavior", *paths, "--toxicity-endpoint", service.url,
                     "--out-dir", str(out)]) == EXIT_OK
        rows = read_csv(out / "behavior.csv")
        assert len(rows) == 70
        assert {r["dialog_id"]: r["toxicity"] for r in rows} == expected
        assert len(service.calls) == 3

    def test_threads_bound_requests_in_flight(self, tmp_path, mock_service):
        state = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def handler(path, payload):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.05)
            with lock:
                state["now"] -= 1
            return 200, {"scores": [0.5] * len(payload["texts"])}

        path = tmp_path / "in.jsonl"
        path.write_text("".join(dialog_jsonl_line(f"a__b__neutral__{k}", "neutral",
                                                  [f"hi {k}", "yes"]) + "\n"
                                for k in range(32 * 4)))
        service = mock_service(handler)
        assert main(["behavior", str(path), "--toxicity-endpoint", service.url,
                     "--threads", "1", "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert len(service.calls) == 4
        assert state["peak"] == 1

    def test_wrong_length_scores_exit_service(self, tmp_path, mock_service):
        service = mock_service(lambda path, payload: (200, {"scores": [0.25]}))
        out = tmp_path / "out"
        assert main(["behavior", FIXTURE_CORPUS, "--toxicity-endpoint", service.url,
                     "--out-dir", str(out)]) == EXIT_SERVICE
        assert not (out / "behavior.csv").exists()

    def test_boolean_score_exits_service(self, tmp_path, mock_service):
        service = mock_service(
            lambda path, payload: (200, {"scores": [True] * len(payload["texts"])}))
        out = tmp_path / "out"
        assert main(["behavior", FIXTURE_CORPUS, "--toxicity-endpoint", service.url,
                     "--out-dir", str(out)]) == EXIT_SERVICE
        assert not (out / "behavior.csv").exists()

    def test_server_error_is_retried_within_the_batch(self, tmp_path, mock_service):
        state = {"n": 0}

        def flaky(path, payload):
            state["n"] += 1
            if state["n"] == 1:
                return 500, {}
            return 200, {"scores": [0.25] * len(payload["texts"])}

        service = mock_service(flaky)
        out = tmp_path / "out"
        assert main(["behavior", FIXTURE_CORPUS, "--toxicity-endpoint", service.url,
                     "--out-dir", str(out)]) == EXIT_OK
        assert [len(payload["texts"]) for _, payload in service.calls] == [12, 12]
        assert all(r["toxicity"] == "0.25" for r in read_csv(out / "behavior.csv"))


class TestCompare:
    def _samples_csv(self, tmp_path, rows):
        path = tmp_path / "samples.csv"
        with open(path, "w") as fh:
            fh.write("corpus,condition,zipf_alpha,heaps_beta,core,unique_tokens,total_tokens\n")
            for r in rows:
                fh.write(",".join(str(v) for v in r) + "\n")
        return path

    def test_identical_samples_p_one(self, tmp_path):
        rows = []
        for condition in ("cooperative", "competitive"):
            for k in range(4):
                rows.append([f"c{k}", condition, 1.5, 0.6, 0.2, 100, 500])
        path = self._samples_csv(tmp_path, rows)
        out = tmp_path / "out"
        assert main(["compare", str(path), "--out-dir", str(out)]) == EXIT_OK
        result = read_csv(out / "compare.csv")
        assert len(result) == 3  # one comparison x three metrics
        assert all(r["p_value"] == "1" for r in result)

    def test_three_conditions_three_comparisons_per_metric(self, tmp_path):
        rows = []
        for i, condition in enumerate(("cooperative", "competitive", "neutral")):
            for k in range(3):
                rows.append([f"c{k}", condition, 1.5 + i * 0.1 + k * 0.01,
                             0.5 + i * 0.05, 0.2 + i * 0.1 + k * 0.01, 100, 500])
        path = self._samples_csv(tmp_path, rows)
        out = tmp_path / "out"
        assert main(["compare", str(path), "--out-dir", str(out)]) == EXIT_OK
        result = read_csv(out / "compare.csv")
        assert len(result) == 9
        comparisons = {r["comparison"] for r in result}
        assert comparisons == {"competitive_vs_cooperative", "competitive_vs_neutral",
                               "cooperative_vs_neutral"}
        for metric in ("zipf_alpha", "heaps_beta", "core"):
            assert sum(r["metric"] == metric for r in result) == 3

    def test_disjoint_ranges_exact_p(self, tmp_path):
        rows = []
        for k in range(5):
            rows.append([f"a{k}", "cooperative", 1.0 + 0.01 * k, 0.4 + 0.001 * k,
                         0.1 + 0.001 * k, 100, 500])
            rows.append([f"b{k}", "neutral", 2.0 + 0.01 * k, 0.6 + 0.001 * k,
                         0.5 + 0.001 * k, 100, 500])
        path = self._samples_csv(tmp_path, rows)
        out = tmp_path / "out"
        assert main(["compare", str(path), "--out-dir", str(out)]) == EXIT_OK
        from math import comb
        expected = fmt6(2 / comb(10, 5))
        for r in read_csv(out / "compare.csv"):
            assert r["p_value"] == expected
            assert r["method"] == "exact"

    def test_single_condition_fails(self, tmp_path):
        path = self._samples_csv(tmp_path, [["c", "neutral", 1.5, 0.6, 0.2, 10, 50]])
        assert main(["compare", str(path), "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_header_without_condition_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text("corpus,zipf_alpha,heaps_beta,core\nc,1.5,0.6,0.2\n")
        assert main(["compare", str(path), "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"coreval: error: {path}: line 1: header has no 'condition' column\n"

    def test_short_row_is_validation_error(self, tmp_path, capsys):
        path = self._samples_csv(tmp_path, [["c0", "neutral", 1.5, 0.6, 0.2, 10, 50],
                                            ["x", "cooperative"]])
        assert main(["compare", str(path), "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"coreval: error: {path}: line 3: row ends before column 'zipf_alpha'\n"


    @pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
    def test_non_finite_cell_is_validation_error(self, tmp_path, capsys, cell):
        path = self._samples_csv(tmp_path, [["c0", "neutral", 1.5, 0.6, 0.2, 10, 50],
                                            ["c1", "cooperative", cell, 0.6, 0.2, 10, 50]])
        out = tmp_path / "o"
        assert main(["compare", str(path), "--out-dir", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"coreval: error: {path}: line 3: column "
                                           f"'zipf_alpha': '{cell}' is not a finite number\n")
        assert not (out / "compare.csv").exists()


class TestReport:
    def _per_dialog_csv(self, tmp_path, rows):
        path = tmp_path / "per_dialog.csv"
        with open(path, "w") as fh:
            fh.write("dialog_id,condition,core,entropy_term,repetition_term,"
                     "stagnation_term,flags\n")
            for r in rows:
                fh.write(",".join(str(v) for v in r) + "\n")
        return path

    def test_hand_computed_means(self, tmp_path):
        rows = [
            ["mA__mB__neutral__0", "neutral", 0.1, 1, 1, 1, ""],
            ["mA__mB__neutral__1", "neutral", 0.2, 1, 1, 1, ""],
            ["mA__mB__neutral__2", "neutral", 0.3, 1, 1, 1, ""],
        ]
        path = self._per_dialog_csv(tmp_path, rows)
        out = tmp_path / "out"
        assert main(["report", str(path), "--out-dir", str(out)]) == EXIT_OK
        result = read_csv(out / "temporal.csv")
        assert [(r["dialog_index"], r["mean_core"]) for r in result] == \
            [("0", "0.1"), ("1", "0.2"), ("2", "0.3")]

    def test_grouping_by_agent(self, tmp_path):
        rows = [
            ["mA__mB__neutral__0", "neutral", 0.1, 1, 1, 1, ""],
            ["mC__mB__neutral__0", "neutral", 0.5, 1, 1, 1, ""],
            ["mA__mB__neutral__1", "neutral", 0.3, 1, 1, 1, ""],
        ]
        path = self._per_dialog_csv(tmp_path, rows)
        out = tmp_path / "out"
        assert main(["report", str(path), "--out-dir", str(out)]) == EXIT_OK
        result = read_csv(out / "temporal.csv")
        assert [(r["agent_a"], r["dialog_index"], r["mean_core"]) for r in result] == \
            [("mA", "0", "0.1"), ("mA", "1", "0.3"), ("mC", "0", "0.5")]

    def test_mean_of_duplicates(self, tmp_path):
        rows = [
            ["mA__mB__neutral__0", "neutral", 0.1, 1, 1, 1, ""],
            ["mA__mB__neutral__0", "neutral", 0.1, 1, 1, 1, ""],
        ]
        path = self._per_dialog_csv(tmp_path, rows)
        out = tmp_path / "out"
        assert main(["report", str(path), "--out-dir", str(out)]) == EXIT_OK
        result = read_csv(out / "temporal.csv")
        assert result[0]["mean_core"] == "0.1"

    def test_unparseable_dialog_id(self, tmp_path):
        path = self._per_dialog_csv(tmp_path, [["nodelimiters", "neutral", 0.1, 1, 1, 1, ""]])
        assert main(["report", str(path), "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_header_without_dialog_id_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "per_dialog.csv"
        path.write_text("condition,core\nneutral,0.1\n")
        assert main(["report", str(path), "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"coreval: error: {path}: line 1: header has no 'dialog_id' column\n"

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
    def test_non_finite_core_is_validation_error(self, tmp_path, capsys, cell):
        path = self._per_dialog_csv(tmp_path, [
            ["mA__mB__neutral__0", "neutral", 0.1, 1, 1, 1, ""],
            ["mA__mB__neutral__1", "neutral", cell, 1, 1, 1, ""],
        ])
        out = tmp_path / "o"
        assert main(["report", str(path), "--out-dir", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"coreval: error: {path}: line 3: column "
                                           f"'core': '{cell}' is not a finite number\n")
        assert not (out / "temporal.csv").exists()


class TestGenerate:
    def test_generate_and_parse(self, tmp_path, mock_service):
        service = mock_service(echo_chat_handler)
        out = tmp_path / "gen.jsonl"
        code = main(["generate", "--endpoint-a", service.url, "--endpoint-b", service.url,
                     "--model-a", "mA", "--model-b", "mB", "--condition", "cooperative",
                     "--dialogs", "2", "--turns", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 2
        manifest = json.loads((tmp_path / "gen.jsonl.manifest.json").read_text())
        assert (manifest["command"], manifest["inputs"]) == ("generate", [])
        assert manifest["seeds"] == {"request_seed": None}
        assert manifest["config"]["out"] == str(out)

    def test_generate_service_failure(self, tmp_path):
        out = tmp_path / "gen.jsonl"
        code = main(["generate", "--endpoint-a", "http://127.0.0.1:1/none",
                     "--endpoint-b", "http://127.0.0.1:1/none",
                     "--model-a", "mA", "--model-b", "mB", "--condition", "neutral",
                     "--dialogs", "1", "--turns", "1", "--out", str(out)])
        assert code == EXIT_SERVICE

    def test_partial_failure_exit_code(self, tmp_path, mock_service):
        calls = {"n": 0}

        def fail_after_three(path, payload):
            calls["n"] += 1
            if calls["n"] > 3:
                return 500, {"error": "down"}
            return echo_chat_handler(path, payload)

        service = mock_service(fail_after_three)
        out = tmp_path / "gen.jsonl"
        code = main(["generate", "--endpoint-a", service.url, "--endpoint-b", service.url,
                     "--model-a", "mA", "--model-b", "mB", "--condition", "neutral",
                     "--dialogs", "2", "--turns", "3", "--threads", "1",
                     "--out", str(out)])
        assert code == EXIT_PARTIAL
        assert len(out.read_text().strip().splitlines()) == 1

    def test_missing_required_flag_exits_one(self):
        assert main(["generate", "--endpoint-a", "http://x"]) == EXIT_VALIDATION


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-5"])
    @pytest.mark.parametrize("command", ["generate", "analyze", "behavior"])
    def test_threads_below_one_exit_one_before_any_request(self, tmp_path, capsys,
                                                           mock_service, command, threads):
        # each handler answers well, so only the thread count can stop the run
        handlers = {"generate": echo_chat_handler, "analyze": echo_embed_handler(),
                    "behavior": lambda path, payload: (200, {"scores": [0.5] * len(
                        payload["texts"])})}
        service = mock_service(handlers[command])
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--endpoint-a", service.url, "--endpoint-b", service.url,
                         "--model-a", "mA", "--model-b", "mB", "--condition", "neutral",
                         "--dialogs", "1", "--turns", "1", "--out", str(tmp_path / "gen.jsonl")],
            "analyze": ["analyze", FIXTURE_CORPUS, "--embed-endpoint", service.url,
                        "--out-dir", str(out)],
            "behavior": ["behavior", FIXTURE_CORPUS, "--toxicity-endpoint", service.url,
                         "--out-dir", str(out)],
        }[command]
        assert main(argv + ["--threads", threads]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"usage: coreval {command} ")
        assert err.endswith(
            f"\ncoreval {command}: error: argument --threads: must be >= 1, got {threads}\n")
        assert service.calls == []
        assert not (tmp_path / "gen.jsonl").exists()
        assert not (out / "report.json").exists() and not (out / "behavior.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS, "--threads", "0"],
        ["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS, "--embed-batch", "0"],
        ["behavior", FIXTURE_CORPUS, "--threads", "-3"],
    ], ids=["analyze-threads", "analyze-embed-batch", "behavior-threads"])
    def test_count_below_one_is_usage_error_where_no_request_is_sent(
            self, tmp_path, capsys, monkeypatch, mock_service, argv):
        # these runs send no request, yet the count is still checked first;
        # a request, if one were sent, would reach the service
        service = mock_service(echo_embed_handler())
        monkeypatch.setenv("CORE_EMBED_ENDPOINT", service.url)
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == EXIT_VALIDATION
        command, option, value = argv[0], argv[-2], argv[-1]
        err = capsys.readouterr().err
        assert err.startswith(f"usage: coreval {command} ")
        assert err.endswith(
            f"\ncoreval {command}: error: argument {option}: must be >= 1, got {value}\n")
        assert service.calls == []
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--threads", "--embed-batch"])
    def test_non_integer_count_keeps_argparse_wording(self, tmp_path, capsys, option):
        argv = ["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS,
                "--out-dir", str(tmp_path / "out"), option, "x"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(
            f"\ncoreval analyze: error: argument {option}: invalid int value: 'x'\n")
        assert not list(tmp_path.iterdir())


# options a subcommand does not read, each with a value it would parse
UNREAD_OPTIONS = [
    ("generate", "--seed", "7"), ("generate", "--ngram", "2"), ("generate", "--kmax", "5"),
    ("generate", "--out-dir", "o"), ("analyze", "--seed", "7"),
    ("behavior", "--seed", "7"), ("behavior", "--kmax", "5"),
] + [(command, option, value) for command in ("fit", "compare", "report")
     for option, value in (("--seed", "7"), ("--ngram", "2"), ("--kmax", "5"),
                           ("--threads", "2"))]


class TestOptions:
    @pytest.mark.parametrize("command,option,value", UNREAD_OPTIONS)
    def test_unread_option_is_usage_error(self, tmp_path, capsys, mock_service,
                                          command, option, value):
        # the rest of each command line is valid, so only the option is refused
        golden = DATA_DIR / "golden"
        if command == "generate":
            url = mock_service(echo_chat_handler).url
            argv = ["--endpoint-a", url, "--endpoint-b", url, "--model-a", "mA",
                    "--model-b", "mB", "--condition", "neutral", "--dialogs", "1",
                    "--turns", "1", "--out", str(tmp_path / "gen.jsonl")]
        else:
            argv = {"analyze": [FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS],
                    "fit": [FIXTURE_CORPUS], "behavior": [FIXTURE_CORPUS],
                    "compare": [str(golden / "condition_samples.csv")],
                    "report": [str(golden / "per_dialog.csv")]}[command]
            argv += ["--out-dir", str(tmp_path / "out")]
        assert main([command, *argv, option, value]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage: coreval ")
        assert err.endswith(f"\ncoreval: error: unrecognized arguments: {option} {value}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]],
                             ids=["coreval", "analyze"])
    def test_help_returns_zero(self, capsys, argv):
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: {' '.join(['coreval', *argv[:-1]])} ")
        assert captured.err == ""


class TestRoundTrips:
    def test_analyze_outputs_feed_compare_and_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS,
                     "--out-dir", str(out)]) == EXIT_OK
        assert main(["compare", str(out / "condition_samples.csv"),
                     "--out-dir", str(out)]) == EXIT_OK
        assert main(["report", str(out / "per_dialog.csv"),
                     "--out-dir", str(out)]) == EXIT_OK
        compare = read_csv(out / "compare.csv")
        assert len(compare) == 9
        temporal = read_csv(out / "temporal.csv")
        assert len(temporal) == 12  # 3 conditions x 2 agent_a x 2 indexes

    def test_commas_and_quotes_read_back(self, tmp_path):
        # an input path and dialog ids holding a comma and a quote are
        # written as quoted cells, which compare and report read back intact
        agent = 'l,"ama'
        in_json = json.dumps(agent)[1:-1] + "__"
        corpus = tmp_path / 'c,1"x.jsonl'
        corpus.write_text(open(FIXTURE_CORPUS).read().replace("llama__", in_json))
        embeddings = tmp_path / "embeddings.jsonl"
        embeddings.write_text(open(FIXTURE_EMBEDDINGS).read().replace("llama__", in_json))
        out = tmp_path / "out"
        assert main(["analyze", str(corpus), "--embeddings", str(embeddings),
                     "--out-dir", str(out)]) == EXIT_OK
        assert main(["compare", str(out / "condition_samples.csv"),
                     "--out-dir", str(out)]) == EXIT_OK
        assert main(["report", str(out / "per_dialog.csv"), "--out-dir", str(out)]) == EXIT_OK
        ids = {r["dialog_id"] for r in read_csv(out / "per_dialog.csv")}
        assert len(ids) == 12
        assert {i.split("__")[0] for i in ids} == {agent, "qwen"}
        assert {r["corpus"] for r in read_csv(out / "condition_samples.csv")} == {str(corpus)}
        assert {r["agent_a"] for r in read_csv(out / "temporal.csv")} == {agent, "qwen"}
        assert len(read_csv(out / "compare.csv")) == 9

    @pytest.mark.parametrize("cell", ["a\rb", "a\nb", "a\r\nb"])
    def test_write_csv_round_trips_line_breaks(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_csv(path, "x,y", [[cell, "1"]])
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["x", "y"], [cell, "1"]]


class TestStartup:
    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only; importing scipy.spatial took about
        # half of a fresh `import coreval.cli`
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = ("import sys, coreval.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
