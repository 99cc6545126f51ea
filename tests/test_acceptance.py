"""Acceptance suite: one test per release criterion, each printing PASS on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Regenerate the nine fixture goldens that criterion 10 compares against, from
the repo root, with

    PYTHONPATH=src python tests/test_acceptance.py
"""

import os
import shutil
import tempfile
import time
from collections import Counter
from math import log
from pathlib import Path

import numpy as np

from coreval.cli import EXIT_OK, main
from coreval.corpus import TokenStats, extract_ngrams, parse_corpus
from coreval.lawfit import fit_heaps, fit_zipf, synth_zipf_stream
from coreval.metric import CoreConfig, compute_core, mode_entropy, repeated_fraction
from coreval.modes import cluster_modes
from coreval.runner import GenerationConfig, generate_dialogs
from coreval.stats import mann_whitney_u
from conftest import (
    DATA_DIR, adjusted_rand_index, echo_chat_handler, make_corpus, matrix_for,
    random_corpus_and_embeddings,
)
from test_metric import diverse_corpus_and_matrix
from test_stats import exact_p_by_enumeration

GOLDEN_DIR = DATA_DIR / "golden"
GOLDEN_FILES = ("report.json", "per_dialog.csv", "condition_samples.csv", "summary.csv",
                "compare.csv", "temporal.csv", "fit.csv", "rankfreq_fixture_corpus.csv",
                "behavior.csv")


def golden_commands(out: Path) -> list[list[str]]:
    """The commands that write the fixture goldens into ``out``, run from
    DATA_DIR: relative input names, so the corpus label in the outputs does
    not depend on the directory."""
    return [
        ["analyze", "fixture_corpus.jsonl", "--embeddings", "fixture_embeddings.jsonl",
         "--out-dir", str(out)],
        ["compare", str(out / "condition_samples.csv"), "--out-dir", str(out)],
        ["report", str(out / "per_dialog.csv"), "--out-dir", str(out)],
        ["fit", "fixture_corpus.jsonl", "--dump-rank-frequency", "--out-dir", str(out)],
        ["behavior", "fixture_corpus.jsonl", "--out-dir", str(out)],
    ]


def ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE PASS [{criterion}]{': ' + detail if detail else ''}")


def test_01_zipf_recovery():
    start = time.monotonic()
    stream = synth_zipf_stream(2.0, 10_000, 100_000, 42)
    fit = fit_zipf(TokenStats.from_counts(Counter(stream)))
    assert abs(fit.exponent - 2.0) <= 0.1

    counts = {f"w{r:04d}": round(1e6 * r ** -2.0) for r in range(1, 201)}
    table_fit = fit_zipf(TokenStats.from_counts(counts), min_count=1)
    assert abs(table_fit.exponent - 2.0) <= 0.02

    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    ok("1 zipf recovery",
       f"synthetic {fit.exponent:.4f}, analytic {table_fit.exponent:.4f}, {elapsed:.2f}s")


def test_02_heaps_recovery():
    points = [(n, 5 * n ** 0.6) for n in (10, 100, 1000, 10000)]
    fit = fit_heaps(points)
    assert abs(fit.exponent - 0.600) <= 1e-6
    assert fit.r_squared >= 1 - 1e-9
    ok("2 heaps recovery", f"exponent {fit.exponent:.9f}, r2 {fit.r_squared:.12f}")


def test_03_core_bounds_fuzz():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        corpus, matrix = random_corpus_and_embeddings(rng)
        config = CoreConfig(k_max=int(rng.integers(2, 11)))
        b = compute_core(corpus, matrix, config)
        checks = [
            0.0 <= b.core <= 1.0,
            0.0 <= b.entropy_term <= 1.0,
            0.0 <= b.repetition_ratio <= 1.0,
            0.0 <= b.repetition_term <= 1.0,
            -1.0 - 1e-9 <= b.raw_stagnation <= 1.0 + 1e-9,
            0.0 <= b.stagnation_term <= 1.0,
            abs(b.core - b.entropy_term * b.repetition_term * b.stagnation_term) <= 1e-12,
        ]
        violations += not all(checks)
    assert violations == 0
    ok("3 core bounds fuzz", "1000 corpora, zero violations")


def test_04_degenerate_corpus_zero():
    corpus = make_corpus([(f"d{i}", "neutral", ["the same thing again"] * 4)
                          for i in range(3)])
    rows = np.tile(np.array([0.6, 0.8, 0.0]), (12, 1))
    b = compute_core(corpus, matrix_for(corpus, rows), CoreConfig())
    assert b.core == 0.0
    ok("4 degenerate corpus", "core == 0.0 exactly")


def test_05_perfect_diversity_one():
    corpus, matrix = diverse_corpus_and_matrix(k_max=4)
    b = compute_core(corpus, matrix, CoreConfig(k_max=4))
    assert abs(b.core - 1.0) <= 1e-9
    ok("5 perfect diversity", f"core {b.core:.12f}")


def test_06_repeated_fraction_oracle():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        corpus, _ = random_corpus_and_embeddings(rng, vocab=6, max_dialogs=3,
                                                 max_turns=3, max_words=5)
        if sum(len(d.tokens()) for d in corpus.dialogs) > 50:
            continue
        ngrams = extract_ngrams(corpus, n)
        if not ngrams:
            continue
        # brute-force oracle: recount windows with plain loops
        windows = []
        for dialog in corpus.dialogs:
            tokens = dialog.tokens()
            for i in range(len(tokens) - n + 1):
                windows.append(tuple(tokens[i : i + n]))
        counts = Counter(windows)
        repeated = sum(c for c in counts.values() if c > 1)
        assert repeated_fraction(ngrams) == repeated / len(windows)
        checked += 1
    assert checked >= 150
    ok("6 repeated fraction oracle", f"{checked} corpora matched exactly")


def test_07_mann_whitney():
    res = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert res.p_value == 0.1

    rng = np.random.default_rng(7)
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        values = rng.permutation(1000)[: n1 + n2].astype(float)
        xs, ys = values[:n1].tolist(), values[n1:].tolist()
        mine = mann_whitney_u(xs, ys)
        assert mine.method == "exact"
        assert mine.p_value == exact_p_by_enumeration(xs, ys)

    for _ in range(100):
        n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        xs = rng.integers(0, 5, n1).astype(float).tolist()
        ys = rng.integers(0, 5, n2).astype(float).tolist()
        assert mann_whitney_u(xs, ys).u + mann_whitney_u(ys, xs).u == n1 * n2
    ok("7 mann-whitney", "exact == enumeration on 100 samples; complement identity holds")


def test_08_clustering_oracle():
    rng = np.random.default_rng(88)
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    points = np.vstack([c + rng.normal(size=(50, 3)) * 0.01 for c in centers])
    truth = np.repeat([0, 1, 2], 50)

    runs = [cluster_modes(points, k_max=10, seed=42) for _ in range(5)]
    for assignment in runs:
        assert assignment.k == 3
        assert adjusted_rand_index(assignment.labels, truth) == 1.0
        assert np.array_equal(assignment.labels, runs[0].labels)
    ok("8 clustering oracle", "k=3, ARI=1.0, 5/5 runs identical")


def test_09_runner_integration(mock_service, tmp_path):
    service = mock_service(echo_chat_handler)
    config = GenerationConfig(endpoint_a=service.url, endpoint_b=service.url,
                              model_a="mockA", model_b="mockB", condition="neutral")
    assert (config.dialogs, config.turns) == (30, 10)

    start = time.monotonic()
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    result1 = generate_dialogs(config, out1)
    result2 = generate_dialogs(config, out2)
    elapsed = time.monotonic() - start

    assert result1.completed == 30 and result2.completed == 30
    with open(out1, "rb") as fh:
        corpus = parse_corpus(fh)
    assert len(corpus) == 30
    assert all(len(d.utterances) == 10 for d in corpus.dialogs)
    assert out1.read_bytes() == out2.read_bytes()
    assert elapsed < 10.0
    ok("9 runner integration", f"30x10 dialogs, byte-identical, {elapsed:.2f}s")


def test_10_end_to_end_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / "golden_run"
    for argv in golden_commands(out):
        assert main(argv) == EXIT_OK, argv
    for name in GOLDEN_FILES:
        fresh = (out / name).read_bytes()
        committed = (GOLDEN_DIR / name).read_bytes()
        assert fresh == committed, f"{name} differs from committed golden"
    ok("10 end-to-end golden", f"{len(GOLDEN_FILES)} files byte-identical")


def test_11_entropy_checks():
    for k_max in (2, 4, 7, 10):
        assert abs(mode_entropy(np.arange(k_max), k_max) - 1.0) <= 1e-12
    assert mode_entropy(np.zeros(3, dtype=np.int64), 10) == 0.0
    h = mode_entropy(np.array([0, 0, 1, 2]), 10) * log(10)  # in nats: unclamped at k_max 10
    assert abs(h - 1.5 * log(2)) <= 1e-12
    ok("11 entropy checks", "uniform=1, point mass=0, (.5,.25,.25)=1.5 ln 2")


def test_12_temporal_report(tmp_path):
    per_dialog = tmp_path / "per_dialog.csv"
    with open(per_dialog, "w") as fh:
        fh.write("dialog_id,condition,core,entropy_term,repetition_term,"
                 "stagnation_term,flags\n")
        series = [
            ("mA__mB__neutral__0", "neutral", 0.10),
            ("mA__mB__neutral__1", "neutral", 0.30),
            ("mA__mB__neutral__0", "neutral", 0.20),   # second corpus, same index
            ("mA__mB__cooperative__0", "cooperative", 0.40),
            ("mC__mB__neutral__0", "neutral", 0.90),
        ]
        for did, condition, core in series:
            fh.write(f"{did},{condition},{core},1,1,1,\n")
    out = tmp_path / "out"
    assert main(["report", str(per_dialog), "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "temporal.csv").read_text().strip().splitlines()
    assert rows == [
        "condition,agent_a,dialog_index,mean_core",
        "cooperative,mA,0,0.4",
        "neutral,mA,0,0.15",     # mean of 0.10 and 0.20
        "neutral,mA,1,0.3",
        "neutral,mC,0,0.9",
    ]
    ok("12 temporal report", "hand-computed per-index means reproduced")


if __name__ == "__main__":
    golden = GOLDEN_DIR.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(DATA_DIR)
        for argv in golden_commands(Path(tmp)):
            if main(argv) != EXIT_OK:
                raise SystemExit(f"{argv[0]} failed")
        for name in GOLDEN_FILES:
            shutil.copyfile(Path(tmp) / name, golden / name)
