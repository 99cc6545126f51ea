"""Shared test fixtures: corpus builders, a mock HTTP JSON service, ARI."""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from math import comb
from pathlib import Path

import numpy as np
import pytest

from coreval import _http
from coreval.corpus import Corpus, Dialog, Utterance
from coreval.embeddings import EmbeddingMatrix

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """Retries wait 0.01 s, not the policy's 0.5 s; tests of the policy's
    waits set ``_http.BACKOFF_S`` themselves."""
    monkeypatch.setattr(_http, "BACKOFF_S", 0.01)


@pytest.fixture
def sleeps(monkeypatch):
    """Records each backoff wait of ``post_json`` instead of sleeping."""
    recorded = []
    monkeypatch.setattr(_http.time, "sleep", recorded.append)
    return recorded


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    """No proxy in the environment, whatever the machine running the tests
    sets, and no proxy read cached from another test: ``_http`` reads the
    environment once per process."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    _http._proxies.cache_clear()
    yield
    _http._proxies.cache_clear()


def make_dialog(dialog_id: str, condition: str, texts: list[str],
                agent_a: str = "modelA", agent_b: str = "modelB") -> Dialog:
    utterances = tuple(
        Utterance(dialog_id=dialog_id, turn_index=i, agent="A" if i % 2 == 0 else "B", text=t)
        for i, t in enumerate(texts)
    )
    return Dialog(id=dialog_id, condition=condition, agent_a=agent_a, agent_b=agent_b,
                  utterances=utterances)


def make_corpus(spec: list[tuple[str, str, list[str]]]) -> Corpus:
    return Corpus(dialogs=tuple(make_dialog(*args) for args in spec))


def dialog_jsonl_line(dialog_id: str, condition: str, texts: list[str],
                      agent_a: str = "modelA", agent_b: str = "modelB") -> str:
    return json.dumps({
        "id": dialog_id,
        "condition": condition,
        "agent_a": agent_a,
        "agent_b": agent_b,
        "turns": [{"agent": "A" if i % 2 == 0 else "B", "text": t} for i, t in enumerate(texts)],
    })


def matrix_for(corpus: Corpus, rows: np.ndarray) -> EmbeddingMatrix:
    return EmbeddingMatrix(keys=tuple(corpus.utterance_keys()), rows=np.asarray(rows, float))


def random_corpus_and_embeddings(rng: np.random.Generator, *, dim: int = 4,
                                 vocab: int = 12, max_dialogs: int = 4,
                                 max_turns: int = 5, max_words: int = 8):
    """Small random corpus with random unit embeddings (every dialog >= 2 turns)."""
    n_dialogs = int(rng.integers(1, max_dialogs + 1))
    spec = []
    for d in range(n_dialogs):
        n_turns = int(rng.integers(2, max_turns + 1))
        texts = []
        for _ in range(n_turns):
            n_words = int(rng.integers(1, max_words + 1))
            texts.append(" ".join(f"w{int(w)}" for w in rng.integers(0, vocab, n_words)))
        spec.append((f"m1__m2__neutral__{d}", "neutral", texts))
    corpus = make_corpus(spec)
    n_utts = sum(len(d.utterances) for d in corpus.dialogs)
    rows = rng.normal(size=(n_utts, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return corpus, matrix_for(corpus, rows)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Pair-counting ARI between two labelings of the same points."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = len(a)
    contingency: dict[tuple[int, int], int] = {}
    for x, y in zip(a.tolist(), b.tolist()):
        contingency[(x, y)] = contingency.get((x, y), 0) + 1
    sum_comb = sum(comb(c, 2) for c in contingency.values())
    sum_a = sum(comb(int((a == x).sum()), 2) for x in set(a.tolist()))
    sum_b = sum(comb(int((b == y).sum()), 2) for y in set(b.tolist()))
    total = comb(n, 2)
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_comb - expected) / (max_index - expected)


class MockService:
    """Threaded local HTTP server; handler(path, payload) -> (status, body), where
    a bytes body is sent as it is and any other body as its JSON encoding.

    It answers HTTP/1.0, closing each connection after one reply, or with
    ``keep_alive=True`` HTTP/1.1, serving requests on a connection until the
    client closes it.  ``connections`` counts the connections accepted and
    ``closed`` those whose handler has finished."""

    def __init__(self, handler, *, keep_alive: bool = False):
        self.calls: list[tuple[str, dict]] = []
        self.connections = 0
        self.closed = 0
        self._lock = threading.Condition()
        service = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self):
                with service._lock:
                    service.connections += 1
                super().setup()

            def finish(self):
                super().finish()
                with service._lock:
                    service.closed += 1
                    service._lock.notify_all()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with service._lock:
                    service.calls.append((self.path, payload))
                status, body = handler(self.path, payload)
                data = body if isinstance(body, bytes) else json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        # a short poll lets close() return at once rather than after up to 0.5 s
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_port}"

    def wait_all_closed(self, timeout: float = 5.0) -> bool:
        """Wait until every accepted connection's handler has finished, which
        for a kept-alive connection means the client closed it."""
        with self._lock:
            return self._lock.wait_for(lambda: self.closed == self.connections, timeout)

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock_service():
    services = []

    def factory(handler, *, keep_alive: bool = False) -> MockService:
        service = MockService(handler, keep_alive=keep_alive)
        services.append(service)
        return service

    yield factory
    for service in services:
        service.close()


def echo_embed_handler(dim: int = 4):
    """Embedding endpoint returning a deterministic vector per text."""

    def handler(path, payload):
        data = []
        for i, text in enumerate(payload["input"]):
            base = float(len(text) % 7 + 1)
            vec = [base + j + (sum(text.encode()) % 13) / 10.0 for j in range(dim)]
            data.append({"index": i, "embedding": vec})
        return 200, {"data": data}

    return handler


def echo_chat_handler(path, payload):
    """Chat endpoint producing a deterministic reply from (model, history length)."""
    n = len(payload["messages"])
    reply = f"turn {n} reply from {payload['model']} about topic{n % 3}"
    return 200, {"choices": [{"message": {"role": "assistant", "content": reply}}]}
