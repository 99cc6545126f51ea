"""Per-dialog behavioral metrics: cue rates, lexical repetition, sentiment, toxicity.

Agreement / disagreement / hedging cues are matched against editable phrase
lexicons (bundled defaults under coreval/data), through an index of each
lexicon's phrase lengths by first token; sentiment is the mean polarity of
matched words from a bundled word-polarity lexicon.  Toxicity is optional
and comes from an external classifier endpoint: ``toxicity`` scores many
texts at once, in batches of up to ``TOXICITY_BATCH`` texts with a bounded
number of requests in flight, so a caller scores every dialog in one call.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from ._http import EndpointError, post_json
from .corpus import Dialog, NgramTable, ngram_counts, tokenize
from .metric import repeated_fraction

logger = logging.getLogger(__name__)

CUE_NAMES = ("agreement", "disagreement", "hedging")
TOXICITY_BATCH = 32  # texts per toxicity request, the same as the embedding batch default


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
        lengths: dict[str, set[int]] = {}
        for phrase in self.phrases:
            lengths.setdefault(phrase[0], set()).add(len(phrase))
        # first token -> lengths of the phrases it starts, longest first
        object.__setattr__(self, "_lengths_by_first",
                           {tok: sorted(ls, reverse=True) for tok, ls in lengths.items()})


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

    Scans left to right over the dialog's concatenated token stream.  At
    each position only the lengths of the phrases that start with that
    token are tried, longest first; a match consumes its tokens.  The count
    of matches is divided by the total token count.
    """
    if not tokens:
        raise ValueError("cue_rate undefined for an empty dialog")
    lengths_by_first = lexicon._lengths_by_first
    phrases = lexicon.phrases
    matches = 0
    i = 0
    n = len(tokens)
    while i < n:
        for length in lengths_by_first.get(tokens[i], ()):
            if length <= n - i and tuple(tokens[i : i + length]) in phrases:
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


def dialog_text(dialog: Dialog) -> str:
    """The dialog's utterances joined by single spaces: the text sentiment and
    toxicity score."""
    return " ".join(u.text for u in dialog.utterances)


def toxicity(endpoint: str, texts: Sequence[str], *, max_inflight: int = 4,
             retries: int = 3, backoff: float = 0.5, timeout: float = 30.0) -> list[float]:
    """Score texts via the toxicity wire protocol, one score per text in input order.

    POST {endpoint} {"texts": [batch...]} -> {"scores": [s, ...]}, one s in
    [0, 1] per text, for batches of at most ``TOXICITY_BATCH`` texts.  Up to
    ``max_inflight`` batches are in flight concurrently.  Transient failures
    are retried like the embedding client; a malformed reply raises
    EndpointError.
    """
    batches = [texts[i : i + TOXICITY_BATCH] for i in range(0, len(texts), TOXICITY_BATCH)]

    def score_one(batch: Sequence[str]) -> list[float]:
        data = post_json(endpoint, {"texts": batch}, retries=retries, backoff=backoff,
                         timeout=timeout)
        scores = data.get("scores")
        if not isinstance(scores, list) or len(scores) != len(batch):
            raise EndpointError(f"toxicity endpoint returned malformed scores for a batch "
                                f"of {len(batch)}: {scores!r:.200}")
        for score in scores:
            # a JSON true decodes to bool, an int subclass, and is no score
            number = isinstance(score, (int, float)) and not isinstance(score, bool)
            if not number or not 0.0 <= score <= 1.0:
                raise EndpointError(f"toxicity score out of range [0, 1]: {score!r}")
        return [float(score) for score in scores]

    with ThreadPoolExecutor(max_workers=max(1, max_inflight)) as pool:
        return [score for batch in pool.map(score_one, batches) for score in batch]


def behavior_profile(dialog: Dialog, *, ngram_n: int = 3,
                     cue_lexicons: dict[str, CueLexicon] | None = None,
                     sentiment_lexicon: dict[str, float] | None = None) -> BehaviorProfile:
    """All lexical behavioral metrics for one dialog, over its concatenated text.

    Toxicity is left absent: score it for many dialogs at once with
    ``toxicity`` over their ``dialog_text``.
    """
    if cue_lexicons is None:
        cue_lexicons = default_cue_lexicons()
    tokens = dialog.tokens()
    if not tokens:
        raise ValueError(f"dialog {dialog.id!r} has no tokens")
    return BehaviorProfile(
        repetition_rate=repetition_rate(tokens, ngram_n),
        agreement_rate=cue_rate(tokens, cue_lexicons["agreement"]),
        disagreement_rate=cue_rate(tokens, cue_lexicons["disagreement"]),
        hedging_rate=cue_rate(tokens, cue_lexicons["hedging"]),
        sentiment=sentiment(dialog_text(dialog), sentiment_lexicon),
    )
