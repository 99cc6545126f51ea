"""The paper-scale golden: ``analyze`` on a 3 x 30 x 10 corpus, byte for byte.

The fixture goldens pin one 57-row, 8-dim input, which fits in one
silhouette block.  This input has the paper's shape: 3 conditions x 30
dialogs x 10 turns, 900 utterances whose text is a Zipf token stream from
``synth_zipf_stream`` and whose 384-dim embeddings lie around 6 planted
blobs at std 0.3.  Its 900 rows span 8 silhouette blocks of
``modes._BLOCK_ROWS`` rows.  A seeded generator writes the inputs (3.7 MB,
not committed); the four outputs are committed under
``tests/data/golden/paper/``.  Regenerate them from the repo root with

    PYTHONPATH=src python tests/test_paper_golden.py
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from coreval import modes
from coreval.cli import EXIT_OK, main
from coreval.lawfit import synth_zipf_stream
from conftest import DATA_DIR, dialog_jsonl_line

PAPER_GOLDEN_DIR = DATA_DIR / "golden" / "paper"
OUTPUTS = ("report.json", "per_dialog.csv", "condition_samples.csv", "summary.csv")
CONDITIONS = ("cooperative", "competitive", "neutral")
DIALOGS, TURNS, DIM, BLOBS, BLOB_STD = 30, 10, 384, 6, 0.3
# relative names, so the corpus label in report.json does not depend on the directory
PAPER_ARGS = ["paper_corpus.jsonl", "--embeddings", "paper_embeddings.jsonl"]


def write_paper_inputs(directory: Path, seed: int = 1) -> None:
    """Write paper_corpus.jsonl and paper_embeddings.jsonl into ``directory``:
    a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    n_dialogs = len(CONDITIONS) * DIALOGS
    lengths = rng.integers(15, 26, size=(n_dialogs, TURNS))  # tokens per turn
    words = synth_zipf_stream(1.1, 5000, int(lengths.sum()), seed)
    centres = rng.normal(size=(BLOBS, DIM))
    noise = rng.normal(scale=BLOB_STD, size=(n_dialogs, TURNS, DIM))
    vectors = np.round(centres[rng.integers(BLOBS, size=(n_dialogs, TURNS))] + noise, 6)
    dialogs, embeddings, pos = [], [], 0
    for d, (condition, k) in enumerate((c, k) for c in CONDITIONS for k in range(DIALOGS)):
        dialog_id = f"agent1__agent2__{condition}__{k}"
        texts = []
        for t, n in enumerate(lengths[d].tolist()):
            texts.append(" ".join(words[pos:pos + n]) + ".")
            pos += n
            embeddings.append(json.dumps({"dialog_id": dialog_id, "turn_index": t,
                                          "vector": vectors[d, t].tolist()}) + "\n")
        dialogs.append(dialog_jsonl_line(dialog_id, condition, texts, "agent1", "agent2") + "\n")
    (directory / "paper_corpus.jsonl").write_text("".join(dialogs), encoding="utf-8")
    (directory / "paper_embeddings.jsonl").write_text("".join(embeddings), encoding="utf-8")


def test_paper_scale_golden(tmp_path, monkeypatch):
    n = len(CONDITIONS) * DIALOGS * TURNS
    assert len(range(0, n, modes._BLOCK_ROWS)) == 8  # the silhouette pass's blocks
    write_paper_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", *PAPER_ARGS, "--out-dir", "out"]) == EXIT_OK
    for name in OUTPUTS:
        fresh = (tmp_path / "out" / name).read_bytes()
        assert fresh == (PAPER_GOLDEN_DIR / name).read_bytes(), f"{name} differs from its golden"


if __name__ == "__main__":
    golden = PAPER_GOLDEN_DIR.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        write_paper_inputs(Path(tmp))
        os.chdir(tmp)
        if main(["analyze", *PAPER_ARGS, "--out-dir", "out"]) != EXIT_OK:
            raise SystemExit("analyze failed")
        golden.mkdir(exist_ok=True)
        for name in OUTPUTS:
            shutil.copyfile(Path(tmp) / "out" / name, golden / name)
