"""Dialog corpus data model: parsing, tokenization, and frequency statistics.

A corpus is a set of two-agent dialogs recorded as JSONL, one dialog per
line.  Everything downstream (exponent fits, the robustness score, the
behavioral profiles) consumes the token streams and count tables produced
here, so iteration order is pinned: dialogs ascending by id, utterances by
turn index.
Each statistic tokenizes each utterance once; the benchmark's tracer test
(perfbench/tests/test_perfbench.py::test_tracer_catches_calls_from_every_binding)
pins that count, so the statistics share no token pass.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

CONDITIONS = ("cooperative", "competitive", "neutral")

_WORD_RE = re.compile(r"\w+")


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
        if not isinstance(self.text, str):
            raise CorpusError(f"turn {self.turn_index}: text must be a string, got {self.text!r}")
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
        return list(chain.from_iterable(tokenize(u.text) for u in self.utterances))


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
        yield from _corpus_tokens(self)

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
        # two stable sorts give the (-count, token) order without a key tuple per entry
        entries = tuple(sorted(sorted(counts.items()), key=itemgetter(1), reverse=True))
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
        except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
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


def _windows(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    return zip(*(tokens[i:] for i in range(n)))  # none when shorter than n


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """Sliding-window n-gram counts over one token stream (empty when shorter than n)."""
    return Counter(_windows(tokens, n))


def extract_ngrams(corpus: Corpus, n: int) -> Counter:
    """N-gram counts summed over the dialogs; windows do not cross dialog boundaries."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(chain.from_iterable(_windows(d.tokens(), n) for d in corpus.dialogs))


def _corpus_tokens(corpus: Corpus) -> Iterator[str]:
    """The corpus token stream, one ``tokenize`` call per utterance, chained in C."""
    return chain.from_iterable(tokenize(u.text) for u in corpus.iter_utterances())


def rank_frequency(corpus: Corpus) -> TokenStats:
    """Token counts over the whole corpus, sorted into a rank-frequency table."""
    counts = Counter(_corpus_tokens(corpus))
    if not counts:
        raise CorpusError("corpus has no tokens")
    return TokenStats.from_counts(counts)


def vocab_growth(corpus: Corpus, stride: int) -> VocabGrowthCurve:
    """Distinct-type count sampled every ``stride`` tokens (and at the final token)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    tokens = list(_corpus_tokens(corpus))
    if not tokens:
        raise CorpusError("corpus has no tokens")
    # type ids in first-occurrence order: after n tokens the vocabulary is the largest id + 1
    type_ids = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    vocab = np.maximum.accumulate([type_ids[t] for t in tokens]) + 1
    ns = [*range(stride, len(tokens), stride), len(tokens)]
    return VocabGrowthCurve(points=tuple(zip(ns, vocab[np.array(ns) - 1].tolist())))

