"""Mock chat-completion, embedding and toxicity endpoints for the benchmark.

Run as ``python3 mockserver.py``: it binds 127.0.0.1 on a free port, prints
``port <n>`` on stdout and serves until its stdin closes, so it cannot
outlive the benchmark process that started it.  It speaks HTTP/1.1 with
keep-alive and ``Content-Length`` framing, as OpenAI-compatible servers do,
so a client that reuses connections can.  Every response is a pure function
of the request (a sha256 of its body or of each text), it injects no errors
and no delay, and ``GET /stats`` returns the number of connections accepted
so far, that request's own connection included.

Routes: ``POST */v1/chat/completions``, ``POST /embed``, ``POST /toxicity``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMBED_DIM = 64
REPLY_TOKENS = 20
# Reply vocabulary: mostly neutral words plus cue and sentiment words, so the
# generated dialogs give the behaviour scanners something to match.
REPLY_WORDS = (
    "the", "we", "you", "i", "it", "plan", "next", "step", "offer", "deal", "puzzle",
    "piece", "time", "move", "try", "should", "could", "will", "agree", "yes", "no",
    "maybe", "perhaps", "sure", "good", "great", "bad", "wrong", "however", "think",
    "fair", "enough", "exactly", "never", "probably", "nice", "trust", "win", "lose",
)


def _digest(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def chat_reply(body: bytes) -> str:
    """REPLY_TOKENS words chosen by the request body's hash; a fixed length
    keeps every seed's corpus the same size."""
    rng = random.Random(_digest(body))
    return " ".join(rng.choice(REPLY_WORDS) for _ in range(REPLY_TOKENS)) + "."


def embed(text: str) -> list[float]:
    rng = random.Random(_digest(text.encode("utf-8")))
    return [round(rng.gauss(0.0, 1.0), 6) for _ in range(EMBED_DIM)]


def toxicity_score(text: str) -> float:
    return round((_digest(text.encode("utf-8")) % 1_000_000) / 1_000_000, 6)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _reply(self, obj: dict) -> None:
        data = json.dumps(obj).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._reply({"connections": self.server.connections})
        else:
            self.send_error(404)

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path.endswith("/v1/chat/completions"):
            self._reply({"choices": [{"message": {"role": "assistant",
                                                  "content": chat_reply(body)}}]})
        elif self.path == "/embed":
            texts = json.loads(body)["input"]
            self._reply({"data": [{"index": i, "embedding": embed(t)}
                                  for i, t in enumerate(texts)]})
        elif self.path == "/toxicity":
            self._reply({"scores": [toxicity_score(t) for t in json.loads(body)["texts"]]})
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address):
        super().__init__(address, _Handler)
        self.connections = 0
        self._lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)


def main() -> None:
    server = _Server(("127.0.0.1", 0))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"port {server.server_port}", flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
