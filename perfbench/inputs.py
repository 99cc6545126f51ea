"""Seeded inputs for the benchmark workloads.

Every input file is a pure function of (workload, seed): the same seed gives
byte-identical files.  Utterance text is a Zipf(1.1) token stream drawn with
``coreval.lawfit.synth_zipf_stream``; its most frequent ranks are mapped to
common dialog words, among them cue and sentiment words.  Embeddings are
drawn around planted blob centres, and the planted label of every
utterance is written to a separate truth directory that the program never
sees; the output checks compare against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coreval.lawfit import synth_zipf_stream

CONDITIONS = ("cooperative", "competitive", "neutral")
ZIPF_ALPHA = 1.1
ZIPF_VOCAB = 5000
# Per-dimension std around a centre whose entries are N(0, 1).  coreval runs
# one k-means++ start per K, which puts two centres into one blob with a
# chance that grows with the blobs' spread: about 1 start in 260 at 0.02,
# none in 20,000 at 0.001.  Such a start makes the planted-truth check fail.
BLOB_NOISE = 0.001
AGENT_A = "agent1"
AGENT_B = "agent2"

# Rank r (1-based) of the Zipf stream becomes WORDS[r - 1]; later ranks keep
# their "w<r>" form.  No word contains an apostrophe, so the generator's own
# token count equals what coreval's tokenizer sees.
WORDS = (
    "the", "i", "you", "to", "and", "a", "it", "that", "we", "is",
    "of", "yes", "but", "this", "think", "no", "maybe", "good", "can", "so",
    "agree", "not", "sure", "right", "perhaps", "great", "do", "what", "our", "plan",
    "exactly", "might", "idea", "however", "probably", "nice", "bad", "wrong", "helpful",
    "indeed", "never", "possibly", "happy", "fair", "problem", "enough", "trust", "puzzle",
    "deal", "offer", "win", "lose", "better", "worse", "really", "kind", "sort", "guess",
    "absolutely", "definitely",
)


@dataclass(frozen=True)
class CorpusSpec:
    """One dialog JSONL file and its embedding JSONL."""

    conditions: tuple[str, ...]
    dialogs_per_condition: int
    turns: int
    tokens_per_turn: int  # mean; each turn draws its length from mean +- 25%
    dim: int
    blobs: int


WORKLOADS: dict[str, tuple[CorpusSpec, ...]] = {
    "analyze-paper": (CorpusSpec(CONDITIONS, 30, 10, 20, dim=384, blobs=6),),
    "sweep-small": tuple(CorpusSpec(CONDITIONS, 5, 6, 20, dim=64, blobs=6) for _ in range(12)),
    # dialogs come from the mock endpoints during each pass; nothing to write
    "endpoints-mock": (),
}


def zipf_words(n_tokens: int, seed: int) -> list[str]:
    """Zipf(1.1) token stream with the top ranks mapped to real words."""
    out = []
    for token in synth_zipf_stream(ZIPF_ALPHA, ZIPF_VOCAB, n_tokens, seed):
        rank = int(token[1:])
        out.append(WORDS[rank - 1] if rank <= len(WORDS) else token)
    return out


def _write_corpus(spec: CorpusSpec, rng: np.random.Generator, path: Path) -> list[list[int]]:
    """Write one dialog JSONL; returns the token count of every dialog's turns."""
    lo = max(1, spec.tokens_per_turn - spec.tokens_per_turn // 4)
    hi = spec.tokens_per_turn + spec.tokens_per_turn // 4
    n_dialogs = len(spec.conditions) * spec.dialogs_per_condition
    lengths = rng.integers(lo, hi + 1, size=(n_dialogs, spec.turns))
    words = zipf_words(int(lengths.sum()), int(rng.integers(2 ** 32)))
    pos = 0
    lines = []
    for d, (condition, k) in enumerate(
            (c, k) for c in spec.conditions for k in range(spec.dialogs_per_condition)):
        turns = []
        for t, n in enumerate(lengths[d].tolist()):
            turns.append({"agent": "A" if t % 2 == 0 else "B",
                          "text": " ".join(words[pos : pos + n]) + "."})
            pos += n
        lines.append(json.dumps({"id": f"{AGENT_A}__{AGENT_B}__{condition}__{k}",
                                 "condition": condition, "agent_a": AGENT_A,
                                 "agent_b": AGENT_B, "turns": turns}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lengths.tolist()


def _write_embeddings(spec: CorpusSpec, ids: list[str], rng: np.random.Generator,
                      path: Path) -> list[list[int]]:
    """Write blob embeddings for every utterance; returns the planted labels."""
    centres = rng.normal(size=(spec.blobs, spec.dim))
    labels = rng.integers(spec.blobs, size=(len(ids), spec.turns))
    noise = rng.normal(scale=BLOB_NOISE, size=(len(ids), spec.turns, spec.dim))
    vectors = np.round(centres[labels] + noise, 6)
    lines = []
    for d, dialog_id in enumerate(ids):
        for t in range(spec.turns):
            lines.append(json.dumps({"dialog_id": dialog_id, "turn_index": t,
                                     "vector": vectors[d, t].tolist()}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return labels.tolist()


def write_inputs(workload: str, seed: int, in_dir: Path, truth_dir: Path) -> dict:
    """Write the workload's input files for ``seed``; returns their sizes.

    ``in_dir`` gets what the program reads: corpus_NN.jsonl and
    embeddings_NN.jsonl.  ``truth_dir`` gets truth_NN.json with the planted
    blob labels of every dialog's turns.
    """
    specs = WORKLOADS[workload]
    in_dir.mkdir(parents=True, exist_ok=True)
    truth_dir.mkdir(parents=True, exist_ok=True)
    sizes = {"files": len(specs), "dialogs": 0, "utterances": 0, "tokens": 0}
    for i, spec in enumerate(specs):
        rng = np.random.default_rng([seed, list(WORKLOADS).index(workload), i])
        lengths = _write_corpus(spec, rng, in_dir / f"corpus_{i:02d}.jsonl")
        ids = [f"{AGENT_A}__{AGENT_B}__{c}__{k}" for c in spec.conditions
               for k in range(spec.dialogs_per_condition)]
        labels = _write_embeddings(spec, ids, rng, in_dir / f"embeddings_{i:02d}.jsonl")
        truth = {"labels": dict(zip(ids, labels))}
        (truth_dir / f"truth_{i:02d}.json").write_text(json.dumps(truth), encoding="utf-8")
        sizes["dialogs"] += len(ids)
        sizes["utterances"] += len(ids) * spec.turns
        sizes["tokens"] += sum(map(sum, lengths))
    return sizes
