"""Dialog corpus data model: parsing, tokenization, and frequency statistics.

A corpus is a set of two-agent dialogs recorded as JSONL, one dialog per
line.  Everything downstream (exponent fits, the robustness score, the
behavioral profiles) consumes the token streams and count tables produced
here, so iteration order is pinned: dialogs ascending by id, utterances by
turn index.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

CONDITIONS = ("cooperative", "competitive", "neutral")

_WORD_RE = re.compile(r"\b\w+\b")


class CorpusError(ValueError):
    """Malformed or internally inconsistent corpus input."""


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and return all maximal word-character runs.

    Word characters are letters, digits, and underscore (Unicode semantics),
    so punctuation and apostrophes act as boundaries: "don't" -> ["don", "t"].
    """
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Utterance:
    dialog_id: str
    turn_index: int
    agent: str  # "A" or "B"
    text: str

    def __post_init__(self):
        if self.agent not in ("A", "B"):
            raise CorpusError(f"turn {self.turn_index}: agent must be 'A' or 'B', got {self.agent!r}")
        if self.turn_index < 0:
            raise CorpusError(f"negative turn_index {self.turn_index}")
        if not self.text.strip():
            raise CorpusError(f"turn {self.turn_index}: empty text")


@dataclass(frozen=True)
class Dialog:
    id: str
    condition: str
    agent_a: str
    agent_b: str
    utterances: tuple[Utterance, ...]

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise CorpusError(f"unknown condition {self.condition!r} (field 'condition')")
        if not self.utterances:
            raise CorpusError(f"dialog {self.id!r}: no utterances")
        for i, utt in enumerate(self.utterances):
            if utt.turn_index != i:
                raise CorpusError(f"dialog {self.id!r}: turn_index values not contiguous from 0")
            expected = "A" if i % 2 == 0 else "B"
            if utt.agent != expected:
                raise CorpusError(
                    f"dialog {self.id!r}: agents must alternate starting with A (turn {i} is {utt.agent})"
                )

    def tokens(self) -> list[str]:
        """Concatenated token stream of all turns, in turn order."""
        out: list[str] = []
        for utt in self.utterances:
            out.extend(tokenize(utt.text))
        return out


@dataclass(frozen=True)
class Corpus:
    dialogs: tuple[Dialog, ...]

    def __post_init__(self):
        ids = [d.id for d in self.dialogs]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise CorpusError(f"duplicate dialog id {dup!r}")
        object.__setattr__(self, "dialogs", tuple(sorted(self.dialogs, key=lambda d: d.id)))

    def iter_utterances(self) -> Iterator[Utterance]:
        for dialog in self.dialogs:
            yield from dialog.utterances

    def utterance_keys(self) -> list[tuple[str, int]]:
        return [(u.dialog_id, u.turn_index) for u in self.iter_utterances()]

    def iter_tokens(self) -> Iterator[str]:
        for dialog in self.dialogs:
            for utt in dialog.utterances:
                yield from tokenize(utt.text)

    def __len__(self) -> int:
        return len(self.dialogs)


@dataclass(frozen=True)
class TokenStats:
    """Rank-frequency table: entries sorted by count descending, lexicographic tie-break.

    The rank of ``entries[k]`` is ``k + 1``.
    """

    entries: tuple[tuple[str, int], ...]
    total_tokens: int

    def __post_init__(self):
        if sum(c for _, c in self.entries) != self.total_tokens:
            raise CorpusError("TokenStats counts do not sum to total_tokens")
        for (t1, c1), (t2, c2) in zip(self.entries, self.entries[1:]):
            if (-c1, t1) > (-c2, t2):
                raise CorpusError("TokenStats entries not sorted by (count desc, token asc)")
        if any(c < 1 for _, c in self.entries):
            raise CorpusError("TokenStats counts must be >= 1")

    @classmethod
    def from_counts(cls, counts: dict[str, int] | Counter) -> "TokenStats":
        entries = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
        return cls(entries=entries, total_tokens=sum(counts.values()))


@dataclass(frozen=True)
class VocabGrowthCurve:
    """Observed vocabulary size v after n tokens, sampled along the token stream."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.points:
            raise CorpusError("empty vocabulary growth curve")
        if self.points[0][0] < 1:
            raise CorpusError("first curve point must have n >= 1")
        for (n1, v1), (n2, v2) in zip(self.points, self.points[1:]):
            if n2 <= n1:
                raise CorpusError("curve n values must be strictly increasing")
            if v2 < v1:
                raise CorpusError("curve v values must be nondecreasing")
        if any(v > n for n, v in self.points):
            raise CorpusError("curve v cannot exceed n")


@dataclass(frozen=True)
class NgramTable:
    """Counts of order-n token windows; windows never span dialog boundaries."""

    n: int
    counts: dict[tuple[str, ...], int]
    total_occurrences: int

    @classmethod
    def from_counts(cls, n: int, counts: dict[tuple[str, ...], int]) -> "NgramTable":
        return cls(n=n, counts=dict(counts), total_occurrences=sum(counts.values()))


def parse_corpus(stream: IO[bytes] | IO[str] | Iterable[bytes] | Iterable[str]) -> Corpus:
    """Parse dialog JSONL into a validated Corpus.

    One dialog object per line:
    {"id": str, "condition": str, "agent_a": str, "agent_b": str,
     "turns": [{"agent": "A"|"B", "text": str}, ...]}
    Turn order defines turn_index.  Raises CorpusError naming the offending
    line (1-based) and field.
    """
    dialogs: list[Dialog] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise CorpusError(f"line {lineno}: expected a JSON object")
        try:
            dialog = _dialog_from_obj(obj)
        except CorpusError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from None
        if dialog.id in seen_ids:
            raise CorpusError(f"line {lineno}: duplicate dialog id {dialog.id!r}")
        seen_ids.add(dialog.id)
        dialogs.append(dialog)
    return Corpus(dialogs=tuple(dialogs))


def _dialog_from_obj(obj: dict) -> Dialog:
    for field in ("id", "condition", "agent_a", "agent_b", "turns"):
        if field not in obj:
            raise CorpusError(f"missing field {field!r}")
    turns = obj["turns"]
    if not isinstance(turns, list) or not turns:
        raise CorpusError("field 'turns' must be a non-empty array")
    utterances = []
    for i, turn in enumerate(turns):
        if not isinstance(turn, dict) or "agent" not in turn or "text" not in turn:
            raise CorpusError(f"turn {i}: expected object with 'agent' and 'text'")
        utterances.append(
            Utterance(dialog_id=str(obj["id"]), turn_index=i, agent=turn["agent"], text=turn["text"])
        )
    return Dialog(
        id=str(obj["id"]),
        condition=obj["condition"],
        agent_a=str(obj["agent_a"]),
        agent_b=str(obj["agent_b"]),
        utterances=tuple(utterances),
    )


def write_corpus(corpus: Corpus, fh: IO[str]) -> None:
    """Serialize a corpus back to the dialog JSONL format."""
    for d in corpus.dialogs:
        obj = {
            "id": d.id,
            "condition": d.condition,
            "agent_a": d.agent_a,
            "agent_b": d.agent_b,
            "turns": [{"agent": u.agent, "text": u.text} for u in d.utterances],
        }
        fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """Sliding-window n-gram counts over one token stream (empty when shorter than n)."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def extract_ngrams(corpus: Corpus, n: int) -> NgramTable:
    """Aggregate n-gram counts per dialog; windows do not cross dialog boundaries."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    counts: Counter = Counter()
    for dialog in corpus.dialogs:
        counts.update(ngram_counts(dialog.tokens(), n))
    return NgramTable.from_counts(n, counts)


def rank_frequency(corpus: Corpus) -> TokenStats:
    """Token counts over the whole corpus, sorted into a rank-frequency table."""
    counts = Counter(corpus.iter_tokens())
    if not counts:
        raise CorpusError("corpus has no tokens")
    return TokenStats.from_counts(counts)


def vocab_growth(corpus: Corpus, stride: int) -> VocabGrowthCurve:
    """Distinct-type count sampled every ``stride`` tokens (and at the final token)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    seen: set[str] = set()
    points: list[tuple[int, int]] = []
    n = 0
    for token in corpus.iter_tokens():
        n += 1
        seen.add(token)
        if n % stride == 0:
            points.append((n, len(seen)))
    if n == 0:
        raise CorpusError("corpus has no tokens")
    if not points or points[-1][0] != n:
        points.append((n, len(seen)))
    return VocabGrowthCurve(points=tuple(points))


def tfidf_features(corpus: Corpus, max_features: int) -> np.ndarray:
    """TF-IDF matrix, one row per dialog over its concatenated turn text.

    Vocabulary is the ``max_features`` most frequent tokens corpus-wide
    (ties broken lexicographically); tf is the raw in-dialog count and
    idf = ln((1+D)/(1+df)) + 1.  Rows are scaled to unit Euclidean norm;
    all-zero rows are left zero.
    """
    if max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")
    if not corpus.dialogs:
        raise CorpusError("empty corpus")
    doc_tokens = [d.tokens() for d in corpus.dialogs]
    totals: Counter = Counter()
    for tokens in doc_tokens:
        totals.update(tokens)
    vocab = [t for t, _ in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:max_features]]
    col = {t: j for j, t in enumerate(vocab)}

    n_docs = len(doc_tokens)
    mat = np.zeros((n_docs, len(vocab)), dtype=np.float64)
    df = np.zeros(len(vocab), dtype=np.float64)
    for i, tokens in enumerate(doc_tokens):
        counts = Counter(tokens)
        for t, c in counts.items():
            j = col.get(t)
            if j is not None:
                mat[i, j] = c
                df[j] += 1
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    mat *= idf
    norms = np.linalg.norm(mat, axis=1)
    nonzero = norms > 0
    mat[nonzero] /= norms[nonzero, None]
    return mat


def write_tfidf_csv(corpus: Corpus, matrix: np.ndarray, fh: IO[str]) -> None:
    """Export a TF-IDF matrix as CSV with header dialog_id,f0,...,f{k-1}."""
    k = matrix.shape[1]
    fh.write("dialog_id," + ",".join(f"f{j}" for j in range(k)) + "\n")
    for dialog, row in zip(corpus.dialogs, matrix):
        fh.write(dialog.id + "," + ",".join(repr(float(x)) for x in row) + "\n")
