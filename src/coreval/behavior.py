"""Per-dialog behavioral metrics: cue rates, lexical repetition, sentiment, toxicity.

Agreement / disagreement / hedging cues are matched against editable phrase
lexicons (bundled defaults under coreval/data); sentiment is the mean
polarity of matched words from a bundled word-polarity lexicon.  Toxicity is
optional and comes from an external classifier endpoint.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from ._http import EndpointError, post_json
from .corpus import Dialog, NgramTable, ngram_counts, tokenize
from .metric import repeated_fraction

logger = logging.getLogger(__name__)

CUE_NAMES = ("agreement", "disagreement", "hedging")


@dataclass(frozen=True)
class CueLexicon:
    name: str
    phrases: frozenset[tuple[str, ...]]

    def __post_init__(self):
        if self.name not in CUE_NAMES:
            raise ValueError(f"lexicon name must be one of {CUE_NAMES}, got {self.name!r}")
        if not self.phrases:
            raise ValueError(f"{self.name} lexicon is empty")
        if any(not 1 <= len(p) <= 3 for p in self.phrases):
            raise ValueError(f"{self.name} lexicon phrases must be 1-3 tokens")


@dataclass(frozen=True)
class BehaviorProfile:
    repetition_rate: float
    agreement_rate: float
    disagreement_rate: float
    hedging_rate: float
    sentiment: float
    toxicity: float | None = None  # absent unless a classifier endpoint is configured


def _bundled(filename: str):
    return resources.files("coreval.data").joinpath(filename)


def load_cue_lexicon(name: str, path: str | Path | None = None) -> CueLexicon:
    """Load a cue lexicon (one phrase per line); default is the bundled file."""
    source = _bundled(f"{name}.txt") if path is None else Path(path)
    phrases = set()
    for line in source.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = tuple(tokenize(line))
        if toks:
            phrases.add(toks)
    return CueLexicon(name=name, phrases=frozenset(phrases))


def default_cue_lexicons() -> dict[str, CueLexicon]:
    return {name: load_cue_lexicon(name) for name in CUE_NAMES}


def load_sentiment_lexicon(path: str | Path | None = None) -> dict[str, float]:
    """Load word<TAB>polarity lines into a dict; default is the bundled lexicon."""
    source = _bundled("sentiment.tsv") if path is None else Path(path)
    lexicon: dict[str, float] = {}
    for lineno, line in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            word, polarity = line.split("\t")
            value = float(polarity)
        except ValueError:
            raise ValueError(f"sentiment lexicon line {lineno}: expected 'word<TAB>polarity'")
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"sentiment lexicon line {lineno}: polarity outside [-1, 1]")
        lexicon[word.lower()] = value
    return lexicon


def cue_rate(tokens: Sequence[str], lexicon: CueLexicon) -> float:
    """Non-overlapping, longest-match-first phrase matches per token.

    Scans left to right over the dialog's concatenated token stream; the
    count of matches is divided by the total token count.
    """
    if not tokens:
        raise ValueError("cue_rate undefined for an empty dialog")
    max_len = max(len(p) for p in lexicon.phrases)
    matches = 0
    i = 0
    n = len(tokens)
    while i < n:
        for length in range(min(max_len, n - i), 0, -1):
            if tuple(tokens[i : i + length]) in lexicon.phrases:
                matches += 1
                i += length
                break
        else:
            i += 1
    return matches / n


def repetition_rate(tokens: Sequence[str], n: int) -> float:
    """Repeated-occurrence fraction of the dialog's own n-gram table.

    Same semantics as the score's repetition factor.  A dialog shorter than
    n tokens has no windows; that yields 0.0 with a logged warning.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(tokens) < n:
        logger.warning("dialog has %d tokens, fewer than n=%d; repetition_rate set to 0",
                       len(tokens), n)
        return 0.0
    return repeated_fraction(NgramTable.from_counts(n, ngram_counts(tokens, n)))


def sentiment(text: str, lexicon: dict[str, float] | None = None) -> float:
    """Mean polarity of sentiment-lexicon tokens in the text; 0.0 when none match."""
    if lexicon is None:
        lexicon = load_sentiment_lexicon()
    values = [lexicon[t] for t in tokenize(text) if t in lexicon]
    if not values:
        return 0.0
    return sum(values) / len(values)


def toxicity(endpoint: str, text: str, *, retries: int = 3, backoff: float = 0.5,
             timeout: float = 30.0) -> float:
    """Score one text via the toxicity wire protocol.

    POST {endpoint} {"texts": [text]} -> {"scores": [s]} with s in [0, 1].
    Transient failures are retried like the embedding client.
    """
    data = post_json(endpoint, {"texts": [text]}, retries=retries, backoff=backoff,
                     timeout=timeout)
    scores = data.get("scores")
    if not isinstance(scores, list) or len(scores) != 1:
        raise EndpointError(f"toxicity endpoint returned malformed scores: {scores!r}")
    score = scores[0]
    if not isinstance(score, (int, float)) or not 0.0 <= float(score) <= 1.0:
        raise EndpointError(f"toxicity score out of range [0, 1]: {score!r}")
    return float(score)


def behavior_profile(dialog: Dialog, *, ngram_n: int = 3,
                     cue_lexicons: dict[str, CueLexicon] | None = None,
                     sentiment_lexicon: dict[str, float] | None = None,
                     toxicity_endpoint: str | None = None,
                     retries: int = 3, backoff: float = 0.5,
                     timeout: float = 30.0) -> BehaviorProfile:
    """All behavioral metrics for one dialog, over its concatenated text."""
    if cue_lexicons is None:
        cue_lexicons = default_cue_lexicons()
    tokens = dialog.tokens()
    if not tokens:
        raise ValueError(f"dialog {dialog.id!r} has no tokens")
    text = " ".join(u.text for u in dialog.utterances)
    tox = None
    if toxicity_endpoint is not None:
        tox = toxicity(toxicity_endpoint, text, retries=retries, backoff=backoff,
                       timeout=timeout)
    return BehaviorProfile(
        repetition_rate=repetition_rate(tokens, ngram_n),
        agreement_rate=cue_rate(tokens, cue_lexicons["agreement"]),
        disagreement_rate=cue_rate(tokens, cue_lexicons["disagreement"]),
        hedging_rate=cue_rate(tokens, cue_lexicons["hedging"]),
        sentiment=sentiment(text, sentiment_lexicon),
        toxicity=tox,
    )
