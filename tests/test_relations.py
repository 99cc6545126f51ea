"""End-to-end relations through ``cli.main`` that any correct implementation keeps.

The goldens pin one fixture's bytes; these relations hold for any input:
analyzing one condition alone gives that condition's sample, exact
rescaling of the embeddings and reordering of the input lines change no
output, the thread count changes no output, neither do the BLAS kernel and
its thread count, and planted exponent effects are found in their
directions: a steeper Zipf law, a larger vocabulary's higher Heaps
exponent, and both at once, as the paper reports for cooperative dialogs.
Two CORE factors move the way they are documented to: a condition collapsed
onto one tight blob loses mode entropy and score, and a dialog that repeats
its first turn's vector stagnates fully while orthogonal turns do not.
"""

import csv
import json
import os
import platform
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import coreval
from coreval.cli import EXIT_OK, main
from coreval.lawfit import synth_zipf_stream
from coreval.report import fmt6
from conftest import DATA_DIR, dialog_jsonl_line, echo_embed_handler
from test_paper_golden import PAPER_ARGS, PAPER_GOLDEN_DIR, write_paper_inputs

FIXTURE_CORPUS = DATA_DIR / "fixture_corpus.jsonl"
FIXTURE_EMBEDDINGS = DATA_DIR / "fixture_embeddings.jsonl"
OUTPUTS = ("report.json", "per_dialog.csv", "condition_samples.csv", "summary.csv")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def analyze(out, *args) -> dict[str, bytes]:
    assert main(["analyze", *map(str, args), "--out-dir", str(out)]) == EXIT_OK
    return {name: (Path(out) / name).read_bytes() for name in OUTPUTS}


def test_one_condition_alone_gives_its_condition_sample(tmp_path):
    analyze(tmp_path / "full", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS)
    full = read_csv(tmp_path / "full" / "condition_samples.csv")
    lines = FIXTURE_CORPUS.read_text().splitlines(keepends=True)
    assert len(full) == 3
    for row in full:
        part = tmp_path / f"{row['condition']}.jsonl"
        part.write_text("".join(line for line in lines
                                if json.loads(line)["condition"] == row["condition"]))
        analyze(tmp_path / row["condition"], part, "--embeddings", FIXTURE_EMBEDDINGS)
        report = json.loads((tmp_path / row["condition"] / "report.json").read_text())
        breakdown = report["corpora"][0]["core_breakdown"]
        assert [fmt6(breakdown[key]) for key in ("core", "alpha_used", "beta_used")] == \
            [row["core"], row["zipf_alpha"], row["heaps_beta"]]


def test_doubling_every_embedding_changes_no_output(tmp_path):
    # scaling by a power of two is exact in floating point
    scaled = tmp_path / "scaled.jsonl"
    with open(FIXTURE_EMBEDDINGS) as src, open(scaled, "w") as dst:
        for line in src:
            record = json.loads(line)
            record["vector"] = [2.0 * x for x in record["vector"]]
            dst.write(json.dumps(record) + "\n")
    assert analyze(tmp_path / "scaled", FIXTURE_CORPUS, "--embeddings", scaled) == \
        analyze(tmp_path / "plain", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS)


def test_shuffled_input_lines_change_no_output(tmp_path, monkeypatch):
    # both runs read files of the same relative names, so the corpus labels agree
    rng = np.random.default_rng(0)
    outputs = []
    for name, shuffle in (("plain", False), ("shuffled", True)):
        (tmp_path / name).mkdir()
        for src in (FIXTURE_CORPUS, FIXTURE_EMBEDDINGS):
            lines = src.read_text().splitlines(keepends=True)
            if shuffle:
                lines = [lines[i] for i in rng.permutation(len(lines))]
            (tmp_path / name / src.name).write_text("".join(lines))
        monkeypatch.chdir(tmp_path / name)
        outputs.append(analyze("out", FIXTURE_CORPUS.name, "--embeddings",
                               FIXTURE_EMBEDDINGS.name))
    assert outputs[0] == outputs[1]


def test_thread_count_changes_no_output(tmp_path, mock_service):
    service = mock_service(echo_embed_handler(dim=8))
    outputs = [analyze(tmp_path / f"t{threads}", FIXTURE_CORPUS, "--embed-endpoint",
                       service.url, "--embed-batch", 7, "--threads", threads)
               for threads in (1, 4)]
    assert outputs[0] == outputs[1]
    assert len(service.calls) == 2 * -(-57 // 7)  # 57 utterances in batches of 7


def compare_planted(tmp_path, plan, corpora, tokens, seed=0) -> dict[tuple[str, str], dict]:
    """``compare.csv``'s rows, by (comparison, metric), for ``corpora``
    corpora analyzed together.

    In each corpus, each condition of ``plan`` has 5 dialogs of 6 turns.
    A turn is ``tokens`` tokens of ``synth_zipf_stream`` at that condition's
    (alpha, vocabulary), with one stream seed per turn, and a random 16-dim
    vector.  ``seed`` sets every draw."""
    rng = np.random.default_rng(seed)
    args, embedding_args = [], []
    for c in range(corpora):
        corpus, embeddings = tmp_path / f"corpus{c}.jsonl", tmp_path / f"emb{c}.jsonl"
        dialogs, vectors = [], []
        for condition, (alpha, vocab) in plan.items():
            for d in range(5):
                dialog_id = f"m1__m2__{condition}__{d}"
                stream = 100_000 * seed + 1000 * c + len(vectors)  # one stream per utterance
                texts = [" ".join(synth_zipf_stream(alpha, vocab, tokens, seed=stream + t))
                         for t in range(6)]
                dialogs.append(dialog_jsonl_line(dialog_id, condition, texts) + "\n")
                vectors += [json.dumps({"dialog_id": dialog_id, "turn_index": t,
                                        "vector": rng.normal(size=16).tolist()}) + "\n"
                            for t in range(6)]
        corpus.write_text("".join(dialogs))
        embeddings.write_text("".join(vectors))
        args.append(corpus)
        embedding_args += ["--embeddings", embeddings]
    out = tmp_path / "out"
    analyze(out, *args, *embedding_args)
    assert main(["compare", str(out / "condition_samples.csv"), "--out-dir", str(out)]) == EXIT_OK
    return {(row["comparison"], row["metric"]): row for row in read_csv(out / "compare.csv")}


# Zipf exponents planted per condition: cooperative play is the steepest
PLANTED_ALPHA = {"cooperative": 1.4, "neutral": 1.15, "competitive": 0.9}


def test_planted_zipf_effect_is_found_in_its_direction(tmp_path):
    rows = compare_planted(tmp_path, {c: (alpha, 200) for c, alpha in PLANTED_ALPHA.items()},
                           corpora=8, tokens=20)
    assert sum(metric == "zipf_alpha" for _, metric in rows) == 3
    for a, b in combinations(sorted(PLANTED_ALPHA), 2):
        row = rows[f"{a}_vs_{b}", "zipf_alpha"]
        # every one of the 8 x 8 pairs is ordered as planted
        assert float(row["u"]) == (64 if PLANTED_ALPHA[a] > PLANTED_ALPHA[b] else 0)
        assert float(row["p_value"]) == pytest.approx(2 / comb(16, 8), rel=1e-5)
        assert row["method"] == "exact"


def assert_cooperative_higher(rows, metric, corpora):
    """Every corpus's cooperative sample is above every competitive one."""
    row = rows["competitive_vs_cooperative", metric]
    assert float(row["u"]) == 0, (metric, row)
    assert float(row["p_value"]) == pytest.approx(2 / comb(2 * corpora, corpora), rel=1e-5)
    assert row["method"] == "exact"


def test_larger_vocabulary_is_found_with_the_higher_heaps_beta(tmp_path):
    # one generating alpha, vocabularies 3,000 and 300: sized so that every
    # seed of 0-19 separates the 6 x 6 samples by at least 0.09 in beta.
    # The fitted alpha falls with the larger vocabulary, so only beta is read.
    rows = compare_planted(tmp_path, {"cooperative": (1.0, 3000), "competitive": (1.0, 300)},
                           corpora=6, tokens=40)
    assert_cooperative_higher(rows, "heaps_beta", 6)


def test_steeper_zipf_and_higher_heaps_are_both_found(tmp_path):
    # the paper's finding: cooperative dialogs have the higher Zipf and the
    # higher Heaps exponent.  (alpha 1.3, vocabulary 30,000) against (1.0,
    # 1,000), 6,000 tokens per sample: every seed of 0-19 separates the 6 x 6
    # samples by at least 0.16 in alpha and 0.08 in beta (0.001 in beta at
    # 3,000 tokens)
    rows = compare_planted(tmp_path, {"cooperative": (1.3, 30000), "competitive": (1.0, 1000)},
                           corpora=6, tokens=200)
    assert_cooperative_higher(rows, "zipf_alpha", 6)
    assert_cooperative_higher(rows, "heaps_beta", 6)


# the fixture condition whose embeddings collapse, and the spread of its
# blob around a unit center: sized so that every seed of 0-19 and every
# condition keeps both relations, by at least 0.15 in the condition's core
COLLAPSED = "cooperative"
BLOB_SIGMA = 0.003


def condition_scores(out: Path, condition: str) -> tuple[float, float]:
    """(mean per-dialog entropy_term, condition-sample core) of one condition."""
    entropy = [float(row["entropy_term"]) for row in read_csv(out / "per_dialog.csv")
               if row["condition"] == condition]
    (core,) = [float(row["core"]) for row in read_csv(out / "condition_samples.csv")
               if row["condition"] == condition]
    return float(np.mean(entropy)), core


def test_mode_collapse_lowers_entropy_and_core(tmp_path):
    condition_of = {json.loads(line)["id"]: json.loads(line)["condition"]
                    for line in FIXTURE_CORPUS.read_text().splitlines()}
    records = [json.loads(line) for line in FIXTURE_EMBEDDINGS.read_text().splitlines()]
    rng = np.random.default_rng(0)
    center = rng.normal(size=len(records[0]["vector"]))
    center /= np.linalg.norm(center)
    blob = []
    for record in records:
        if condition_of[record["dialog_id"]] == COLLAPSED:
            record["vector"] = (center + BLOB_SIGMA * rng.normal(size=center.size)).tolist()
            blob.append(tuple(record["vector"]))
    assert len(set(blob)) == len(blob) > 0  # distinct rows, not one repeated point
    collapsed = tmp_path / "collapsed.jsonl"
    collapsed.write_text("".join(json.dumps(record) + "\n" for record in records))
    analyze(tmp_path / "plain", FIXTURE_CORPUS, "--embeddings", FIXTURE_EMBEDDINGS)
    analyze(tmp_path / "collapsed", FIXTURE_CORPUS, "--embeddings", collapsed)
    plain_entropy, plain_core = condition_scores(tmp_path / "plain", COLLAPSED)
    entropy, core = condition_scores(tmp_path / "collapsed", COLLAPSED)
    assert entropy < plain_entropy
    assert core < plain_core


def test_repeated_turns_raise_repetition_and_lower_its_term(tmp_path):
    # every dialog at once: a dialog's n-grams are its own; the exponents are
    # held, since a fit to the longer corpus would move them.  Said three
    # times, every n-gram repeats, the ones across a seam between copies too.
    dialogs = [json.loads(line) for line in FIXTURE_CORPUS.read_text().splitlines()]
    records = [json.loads(line) for line in FIXTURE_EMBEDDINGS.read_text().splitlines()]
    turns = {d["id"]: len(d["turns"]) for d in dialogs}
    scores = []
    for copies in (1, 2, 3):
        corpus, embeddings = tmp_path / f"corpus{copies}.jsonl", tmp_path / f"emb{copies}.jsonl"
        # the agents keep alternating when a dialog has an odd number of turns
        corpus.write_text("".join(json.dumps({**d, "turns": [
            {"agent": "AB"[i % 2], "text": turn["text"]}
            for i, turn in enumerate(d["turns"] * copies)]}) + "\n" for d in dialogs))
        # each repeated turn has its original's vector
        embeddings.write_text("".join(
            json.dumps({**r, "turn_index": r["turn_index"] + c * turns[r["dialog_id"]]}) + "\n"
            for c in range(copies) for r in records))
        out = tmp_path / f"out{copies}"
        analyze(out, corpus, "--embeddings", embeddings, "--alpha", 1.0, "--beta", 1.0)
        report = json.loads((out / "report.json").read_text())["corpora"][0]["per_dialog"]
        scores.append({entry["dialog_id"]: (entry["repetition_ratio"], entry["repetition_term"])
                       for entry in report})
    once, twice, thrice = scores
    assert once.keys() == twice.keys() == thrice.keys() == turns.keys()
    for dialog_id, (ratio, term) in once.items():
        assert twice[dialog_id][0] > ratio and twice[dialog_id][1] < term, \
            (dialog_id, once[dialog_id], twice[dialog_id])
        assert thrice[dialog_id] == (1.0, 0.0), dialog_id


def test_repeated_turn_vector_stagnates_and_orthogonal_turns_do_not(tmp_path):
    # every dialog at once: a dialog's stagnation reads its own rows only
    records = [json.loads(line) for line in FIXTURE_EMBEDDINGS.read_text().splitlines()]
    first = {r["dialog_id"]: r["vector"] for r in records if r["turn_index"] == 0}
    eye = np.eye(len(records[0]["vector"]))
    assert max(r["turn_index"] for r in records) < len(eye)
    for name, vector_of, raw, term in (
            ("repeated", lambda r: first[r["dialog_id"]], 1.0, 0.0),
            ("orthogonal", lambda r: eye[r["turn_index"]].tolist(), 0.0, 1.0)):
        embeddings = tmp_path / f"{name}.jsonl"
        embeddings.write_text("".join(json.dumps({**r, "vector": vector_of(r)}) + "\n"
                                      for r in records))
        out = tmp_path / name
        analyze(out, FIXTURE_CORPUS, "--embeddings", embeddings)
        report = json.loads((out / "report.json").read_text())["corpora"][0]["per_dialog"]
        rows = read_csv(out / "per_dialog.csv")
        assert len(report) == len(rows) == len(first)
        for entry, row in zip(report, rows):
            assert entry["dialog_id"] == row["dialog_id"]
            assert (entry["raw_stagnation"], entry["stagnation_term"]) == (raw, term), entry
            assert float(row["stagnation_term"]) == term, row
            if name == "repeated":
                assert entry["core"] == float(row["core"]) == 0.0, row


# OpenBLAS setups that must give the goldens' bytes, each with the CPU flags
# (as /proc/cpuinfo names them) that its forced kernel needs: a kernel newer
# than the CPU can stop the process with an illegal instruction
BLAS_SETUPS = {
    "one-thread": ({"OPENBLAS_NUM_THREADS": "1"}, set()),
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, {"avx2", "fma"}),
    "prescott-one-thread": ({"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"},
                            {"pni"}),
}


def x86_cpu_flags() -> set[str] | None:
    """The CPU's feature flags on x86 Linux; None elsewhere."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return None
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    return next((set(line.split(":", 1)[1].split()) for line in cpuinfo.splitlines()
                 if line.startswith("flags")), None)


def numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.26 has no ``mode``
        return "unknown"


@pytest.mark.parametrize("setup", list(BLAS_SETUPS))
def test_blas_kernel_and_thread_count_change_no_output(tmp_path, setup):
    env, needs = BLAS_SETUPS[setup]
    blas = numpy_blas()
    if "openblas" not in blas:
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS, which the OPENBLAS_* settings set")
    if needs:
        flags = x86_cpu_flags()
        if flags is None:
            pytest.skip("forcing an OpenBLAS kernel is tested on x86 Linux only")
        if not needs <= flags:
            pytest.skip(f"the CPU lacks {sorted(needs - flags)}, "
                        f"which the {env['OPENBLAS_CORETYPE']} kernel needs")
    write_paper_inputs(tmp_path)
    # the child imports the coreval these tests import; the settings are its own
    path = os.pathsep.join(filter(None, [str(Path(coreval.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    child_env = {**os.environ, **env, "PYTHONPATH": path}
    runs = [(DATA_DIR, [FIXTURE_CORPUS.name, "--embeddings", FIXTURE_EMBEDDINGS.name],
             DATA_DIR / "golden"),
            (tmp_path, PAPER_ARGS, PAPER_GOLDEN_DIR)]
    children = [subprocess.Popen([sys.executable, "-m", "coreval.cli", "analyze", *args,
                                  "--out-dir", str(tmp_path / f"out{i}")],
                                 cwd=cwd, env=child_env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
                for i, (cwd, args, _) in enumerate(runs)]
    errors = [child.communicate()[1] for child in children]
    for i, (child, err, (_, _, golden)) in enumerate(zip(children, errors, runs)):
        assert child.returncode == EXIT_OK, err
        for name in OUTPUTS:
            assert (tmp_path / f"out{i}" / name).read_bytes() == (golden / name).read_bytes(), \
                (setup, golden, name)
