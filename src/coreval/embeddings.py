"""Utterance embeddings: file I/O, an embedding-endpoint client, and dialog stagnation.

Embeddings are an external input (a JSONL file or an OpenAI-embeddings-shaped
HTTP service), never an in-process model.  Vectors are held at float64
regardless of input precision.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._http import EndpointError, post_json
from .corpus import Corpus


class EmbeddingError(ValueError):
    """Embedding input violates the matrix contract (missing key, bad vector, ...)."""


def _row_problems(rows: np.ndarray) -> list[tuple[int, str]]:
    """(index, problem) of each row that holds a non-finite value or has a
    zero sum of squares, in row order."""
    finite = np.isfinite(rows).all(axis=1)
    bad = ~finite | (np.einsum("ij,ij->i", rows, rows) == 0.0)
    return [(i, "zero-norm vector" if finite[i] else "non-finite value in vector")
            for i in np.flatnonzero(bad).tolist()]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """One float64 row per utterance key, each finite and non-zero (the modes
    cluster the rows, and the stagnation term takes cosines between them).
    A matrix built for a corpus holds its rows in corpus iteration order."""

    keys: tuple[tuple[str, int], ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise EmbeddingError(f"rows must be 2-D, got shape {rows.shape}")
        if rows.shape[0] != len(self.keys):
            raise EmbeddingError(f"{rows.shape[0]} rows for {len(self.keys)} keys")
        if rows.shape[1] < 1:
            raise EmbeddingError("embedding dimension must be >= 1")
        problems = _row_problems(rows)
        if problems:
            first, problem = problems[0]
            raise EmbeddingError(f"{self.keys[first]}: {problem}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_index", {k: i for i, k in enumerate(self.keys)})
        if len(self._index) != len(self.keys):
            raise EmbeddingError("duplicate utterance key in embedding matrix")

    def subset(self, corpus: Corpus) -> "EmbeddingMatrix":
        """Re-align to another corpus whose utterances are a subset of this matrix."""
        keys = tuple(corpus.utterance_keys())
        try:
            idx = [self._index[k] for k in keys]
        except KeyError as exc:
            raise EmbeddingError(f"missing embedding for utterance {exc.args[0]}") from None
        return EmbeddingMatrix(keys=keys, rows=self.rows[idx])


def _check_vector(key: tuple[str, int], vec: np.ndarray, dim: int | None) -> int:
    if vec.ndim != 1 or vec.size < 1:
        raise EmbeddingError(f"{key}: vector must be a non-empty 1-D array")
    if dim is not None and vec.size != dim:
        raise EmbeddingError(f"{key}: dimension {vec.size} != expected {dim}")
    return int(vec.size)


def load_embeddings(path: str | Path, corpus: Corpus) -> EmbeddingMatrix:
    """Read embedding JSONL and align rows to the corpus iteration order.

    Each line is {"dialog_id": str, "turn_index": int, "vector": [...]}.
    File order is irrelevant; alignment is by (dialog_id, turn_index).  Each
    vector is written straight into its row of the corpus-ordered matrix, so
    the rows are held once.  Every line is validated, also one whose key the
    corpus does not hold: a malformed line raises EmbeddingError at once,
    then the first bad vector in file order is named, then the first key of
    the corpus the file lacks.
    """
    keys = tuple(corpus.utterance_keys())
    index = {key: i for i, key in enumerate(keys)}
    line_of = [0] * len(keys)  # the line of each row, 0 while it is unread
    outside: set[tuple[str, int]] = set()  # keys the corpus does not hold
    bad_lines: list[tuple[int, tuple[str, int], str]] = []  # (line, key, problem)
    rows: np.ndarray | None = None
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
                raise EmbeddingError(f"line {lineno}: invalid JSON: {exc}") from None
            try:
                key = (str(obj["dialog_id"]), obj["turn_index"])
                vec = np.asarray(obj["vector"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise EmbeddingError(f"line {lineno}: bad record: {exc}") from None
            if type(key[1]) is not int:  # a JSON integer; bool is an int subclass
                raise EmbeddingError(f"line {lineno}: bad record: turn_index {key[1]!r:.50}")
            i = index.get(key)
            if key in outside if i is None else line_of[i] > 0:
                raise EmbeddingError(f"line {lineno}: duplicate key {key}")
            dim = _check_vector(key, vec, dim)
            if i is None:  # rare: checked on its own, as the row it would be
                outside.add(key)
                bad_lines += [(lineno, key, problem) for _, problem in _row_problems(vec[None])]
                continue
            if rows is None:  # zeros, so an unread row holds no garbage
                rows = np.zeros((len(keys), dim))
            rows[i] = vec
            line_of[i] = lineno

    if rows is None:  # no line holds a key of the corpus
        rows = np.zeros((len(keys), dim or 1))
    bad_lines += [(line_of[i], keys[i], problem) for i, problem in _row_problems(rows)
                  if line_of[i]]
    if bad_lines:  # the first in file order
        _, key, problem = min(bad_lines)
        raise EmbeddingError(f"{key}: {problem}")
    if 0 in line_of:  # an empty file names the first corpus key
        raise EmbeddingError(f"missing embedding for utterance {keys[line_of.index(0)]}")
    return EmbeddingMatrix(keys=keys, rows=rows)


def save_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write embedding JSONL; floats use repr so a reload is bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        for (dialog_id, turn_index), row in zip(matrix.keys, matrix.rows):
            fh.write(json.dumps({
                "dialog_id": dialog_id,
                "turn_index": turn_index,
                "vector": [float(x) for x in row],
            }) + "\n")


def fetch_embeddings(endpoint: str, corpus: Corpus, batch_size: int = 32, *,
                     model: str | None = None, max_inflight: int = 4) -> EmbeddingMatrix:
    """Embed every utterance text via an embedding-service endpoint.

    Wire protocol: POST {endpoint} {"input": [texts...], "model": str?} ->
    {"data": [{"index": int, "embedding": [...]}, ...]}, matched by index.
    Up to ``max_inflight`` batches are in flight concurrently; assembly is
    deterministic in corpus order.  A malformed reply, a bad vector included,
    raises EndpointError; a bad vector's message names its utterance key.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_inflight < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
    keys = tuple(corpus.utterance_keys())
    texts = [u.text for u in corpus.iter_utterances()]
    batches = [texts[i : i + batch_size] for i in range(0, len(texts), batch_size)]

    def fetch_one(batch: list[str]) -> list[np.ndarray]:
        payload: dict = {"input": batch}
        if model is not None:
            payload["model"] = model
        data = post_json(endpoint, payload)
        items = data.get("data")
        if not isinstance(items, list) or len(items) != len(batch):
            raise EndpointError(f"embedding endpoint returned malformed data for a batch "
                                f"of {len(batch)}: {items!r:.200}")
        out: list[np.ndarray | None] = [None] * len(batch)
        for item in items:
            try:
                idx = item["index"]
                vec = np.asarray(item["embedding"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise EndpointError(f"malformed embedding item: {exc}") from None
            if type(idx) is not int or not 0 <= idx < len(batch) or out[idx] is not None:
                raise EndpointError(f"bad or repeated index {idx!r:.50} in embedding response")
            out[idx] = vec
        return out  # type: ignore[return-value]

    with ThreadPoolExecutor(max_workers=max_inflight) as pool:
        results = list(pool.map(fetch_one, batches))

    vectors = [vec for batch in results for vec in batch]
    dim: int | None = None
    try:  # a bad vector in a reply is the service's fault, not the input's
        for key, vec in zip(keys, vectors):
            dim = _check_vector(key, vec, dim)
        return EmbeddingMatrix(keys=keys, rows=np.vstack(vectors))
    except EmbeddingError as exc:
        raise EndpointError(f"embedding endpoint returned a bad vector: {exc}") from None


def dialog_stagnation(rows: np.ndarray) -> float:
    """Mean cosine similarity over consecutive utterance pairs of one dialog."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] < 2:
        raise EmbeddingError("stagnation undefined for fewer than 2 utterances")
    norms = np.linalg.norm(rows, axis=1)
    if (norms == 0.0).any():
        raise EmbeddingError("cosine undefined for zero-norm vector")
    unit = rows / norms[:, None]
    return float(np.mean(np.einsum("ij,ij->i", unit[:-1], unit[1:])))
