"""Walkthrough: generating dialogs against a chat-completions endpoint.

Starts a tiny in-process mock server that speaks the chat-completions wire
protocol, generates a few dialogs under the competitive seed prompt, and
parses the resulting JSONL back in.  Point `endpoint_a/b` at any real
OpenAI-compatible server to generate from actual models.
"""

import json
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from coreval import GenerationConfig, generate_dialogs, parse_corpus, seed_prompt


class MockChat(BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        n = len(payload["messages"])
        text = f"({payload['model']} turn {n}) I counter your offer with {100 - 7 * n} credits."
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body.encode())

    def log_message(self, *args):
        pass


server = ThreadingHTTPServer(("127.0.0.1", 0), MockChat)
threading.Thread(target=server.serve_forever, daemon=True).start()
url = f"http://127.0.0.1:{server.server_port}"
print(f"mock chat endpoint at {url}")
print(f"seed prompt: {seed_prompt('competitive')!r}\n")

config = GenerationConfig(endpoint_a=url, endpoint_b=url,
                          model_a="negotiator-a", model_b="negotiator-b",
                          condition="competitive", dialogs=3, turns=6)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "dialogs.jsonl"
    result = generate_dialogs(config, out)
    print(f"generated {result.completed} dialogs -> {out}\n")

    with open(out, "rb") as fh:
        corpus = parse_corpus(fh)
first = corpus.dialogs[0]
print(f"transcript of {first.id}:")
for utt in first.utterances:
    print(f"  [{utt.agent}] {utt.text}")

server.shutdown()
print("\nThe `coreval generate` subcommand wraps this with resume support and")
print("a run manifest; defaults are 30 dialogs of 10 turns.")
