"""Tests of the benchmark's own parts: tracer arithmetic, tracer binding
coverage on a hand-built corpus, and generator determinism.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import requests  # noqa: E402

import coreval.behavior  # noqa: E402
import coreval.corpus  # noqa: E402
import coreval.modes  # noqa: E402
import coreval.report  # noqa: E402
from coreval.behavior import default_cue_lexicons  # noqa: E402
from coreval.corpus import Corpus, Dialog, Utterance  # noqa: E402
from coreval.embeddings import EmbeddingMatrix  # noqa: E402
from coreval.metric import CoreConfig  # noqa: E402

from inputs import write_inputs  # noqa: E402
from tracer import Span, Tracer, self_times, summarize  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 1.0
        traced_middle()
        traced_leaf()
        clock.now += 3.0

    traced_leaf = tracer.wrap("toy.leaf", leaf)
    traced_middle = tracer.wrap("toy.middle", middle)
    tracer.wrap("toy.outer", outer)()

    outer_span, middle_span, first_leaf, second_leaf = tracer.spans
    assert middle_span.parent is outer_span and second_leaf.parent is outer_span
    assert first_leaf.parent is middle_span
    summary = summarize(tracer.spans)
    # outer lasts 1 + 3.5 + 2 + 3 = 9.5 s, of which its children cover 3.5 + 2
    assert summary["toy.outer"]["self_s"] == pytest.approx(4.0)
    assert summary["toy.middle"]["self_s"] == pytest.approx(1.5)
    assert summary["toy.leaf"] == {"calls": 2, "failed": 0, "self_s": pytest.approx(4.0),
                                   "durations": [2.0, 2.0]}


def test_overlapping_children_are_counted_once():
    parent = Span("p", 0.0, None)
    parent.end = 10.0
    children = []
    for start, end in ((1.0, 4.0), (3.0, 6.0), (9.0, 12.0)):  # e.g. two pool threads
        child = Span("c", start, parent)
        child.end = end
        children.append(child)
    selfs = self_times([parent, *children])
    # covered: [1, 6] and [9, 10]
    assert selfs[id(parent)] == pytest.approx(4.0)


def test_raising_call_marks_its_span_failed():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("toy.boom", boom)()
    assert tracer.spans[0].failed


def _toy_corpus() -> tuple[Corpus, EmbeddingMatrix]:
    texts = {"cooperative": ["we agree on the plan", "yes the plan works", "good we start"],
             "neutral": ["the weather is mild", "mild and calm today", "calm days are nice"]}
    dialogs = [Dialog(id=f"a__b__{cond}__0", condition=cond, agent_a="a", agent_b="b",
                      utterances=tuple(Utterance(f"a__b__{cond}__0", i, "AB"[i % 2], t)
                                       for i, t in enumerate(turns)))
               for cond, turns in texts.items()]
    corpus = Corpus(dialogs=tuple(dialogs))
    rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [1.0, 1.0], [0.2, 0.3]])
    return corpus, EmbeddingMatrix(keys=tuple(corpus.utterance_keys()), rows=rows)


def test_tracer_catches_calls_from_every_binding():
    corpus, matrix = _toy_corpus()
    lexicons = default_cue_lexicons()
    originals = (coreval.corpus.tokenize, coreval.behavior.tokenize, coreval.modes.cdist,
                 requests.post, Dialog.tokens)
    tracer = Tracer()
    with tracer.installed():
        coreval.report.analyze_corpus("toy", corpus, matrix, CoreConfig(k_max=3))
    counts = {name: row["calls"] for name, row in summarize(tracer.spans).items()}
    # U = 6 utterances, C = 2 conditions.  compute_core: 1 (its any-token
    # probe stops at the first utterance) + 2U (rank_frequency and
    # vocab_growth for the exponents) + U (n-grams); core_per_dialog: 3U;
    # per condition: compute_core (1 + 3 U_c) + rank_frequency (U_c).
    # Total 10U + C + 1.
    assert counts["corpus.tokenize"] == 10 * 6 + 2 + 1
    # corpus breakdown, per-dialog breakdowns, and one per condition
    assert counts["metric.resolve_exponents"] == 2 + 2
    # corpus modes (bound in report) and one per condition (bound in metric)
    assert counts["modes.cluster_modes"] == 1 + 2
    assert counts["embeddings.subset"] == 2

    tracer = Tracer()
    with tracer.installed():
        coreval.behavior.behavior_profile(corpus.dialogs[0], cue_lexicons=lexicons,
                                          sentiment_lexicon={})
    # three turns through Dialog.tokens in corpus, one sentiment pass through
    # the binding in behavior
    assert summarize(tracer.spans)["corpus.tokenize"]["calls"] == 3 + 1
    assert (coreval.corpus.tokenize, coreval.behavior.tokenize, coreval.modes.cdist,
            requests.post, Dialog.tokens) == originals


def test_generator_is_deterministic(tmp_path):
    def files(seed, name):
        write_inputs("sweep-small", seed, tmp_path / name / "in", tmp_path / name / "truth")
        return {p.relative_to(tmp_path / name): p.read_bytes()
                for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}

    first = files(7, "a")
    assert len(first) == 12 * 3
    assert files(7, "b") == first
    assert files(8, "c") != first


def test_planted_blobs_are_recovered(tmp_path):
    """coreval runs one k-means++ start per K.  With looser blobs (std 0.02)
    that start put two centres into one blob on about 1 input in 260, this
    seed among them, and the planted-truth check failed; the blobs are now
    tight enough that the start lands one centre per blob."""
    from coreval.corpus import parse_corpus
    from coreval.embeddings import load_embeddings

    write_inputs("analyze-paper", 967179872, tmp_path / "in", tmp_path / "truth")
    truth = json.loads((tmp_path / "truth" / "truth_00.json").read_text())["labels"]
    with open(tmp_path / "in" / "corpus_00.jsonl", "rb") as fh:
        corpus = parse_corpus(fh)
    matrix = load_embeddings(tmp_path / "in" / "embeddings_00.jsonl", corpus)
    planted = np.array([x for d in corpus.dialogs for x in truth[d.id]])
    assignment = coreval.modes.cluster_modes(matrix, k_max=10, seed=42)
    assert assignment.k == 6
    pairs = set(zip(assignment.labels.tolist(), planted.tolist()))
    assert len(pairs) == 6  # a one-to-one map between modes and blobs
