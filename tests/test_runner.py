"""Dialog generation tests against deterministic mock chat endpoints."""

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from coreval import runner
from coreval._http import EndpointError
from coreval.cli import EXIT_OK, main
from coreval.corpus import parse_corpus
from coreval.runner import (
    SEED_PROMPTS, GenerationConfig, build_concat_messages, build_messages,
    generate_dialogs, seed_prompt,
)
from conftest import echo_chat_handler


class TestSeedPrompts:
    def test_cooperative(self):
        assert seed_prompt("cooperative") == \
            "You and your partner work together to solve a puzzle efficiently"

    def test_competitive(self):
        assert seed_prompt("competitive") == \
            "You are competing in a negotiation and want to outwit and outperform your opponent"

    def test_neutral(self):
        assert seed_prompt("neutral") == \
            "You engage in casual, open-ended conversation with no specific agenda"


class TestBuildMessages:
    def test_empty_history(self):
        messages = build_messages("neutral", [], "A")
        assert messages == [{"role": "system", "content": SEED_PROMPTS["neutral"]}]

    def test_role_mapping(self):
        messages = build_messages("neutral", [("A", "hi")], "B")
        assert messages == [
            {"role": "system", "content": SEED_PROMPTS["neutral"]},
            {"role": "user", "content": "hi"},
        ]

    def test_own_turns_are_assistant(self):
        history = [("A", "one"), ("B", "two"), ("A", "three")]
        messages = build_messages("neutral", history, "A")
        assert [m["role"] for m in messages] == ["system", "assistant", "user", "assistant"]

    def test_ten_turn_history(self):
        history = [("A" if t % 2 == 0 else "B", f"t{t}") for t in range(10)]
        messages = build_messages("cooperative", history, "A")
        assert len(messages) == 11
        roles = [m["role"] for m in messages[1:]]
        assert roles == ["assistant", "user"] * 5

    def test_concat_mode(self):
        messages = build_concat_messages("neutral", [("A", "hi"), ("B", "yo")], "A")
        assert len(messages) == 1
        assert messages[0]["role"] == "user"
        assert "Agent A: hi" in messages[0]["content"]
        assert messages[0]["content"].endswith("Agent A:")


def quick_config(url, **kwargs) -> GenerationConfig:
    defaults = dict(endpoint_a=url, endpoint_b=url, model_a="mockA", model_b="mockB",
                    condition="neutral", dialogs=2, turns=4)
    defaults.update(kwargs)
    return GenerationConfig(**defaults)


class TestGenerateDialogs:
    def test_structure_and_round_trip(self, mock_service, tmp_path):
        service = mock_service(echo_chat_handler)
        out = tmp_path / "dialogs.jsonl"
        result = generate_dialogs(quick_config(service.url), out)
        assert result.completed == 2
        assert result.failed == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            obj = json.loads(line)
            assert len(obj["turns"]) == 4
        with open(out, "rb") as fh:
            corpus = parse_corpus(fh)
        assert len(corpus) == 2

    def test_request_count(self, mock_service, tmp_path):
        service = mock_service(echo_chat_handler)
        result = generate_dialogs(quick_config(service.url), tmp_path / "d.jsonl")
        assert result.completed == 2
        assert len(service.calls) == 2 * 4
        assert all(path == "/v1/chat/completions" for path, _ in service.calls)

    def test_payload_fields(self, mock_service, tmp_path):
        service = mock_service(echo_chat_handler)
        generate_dialogs(quick_config(service.url, dialogs=1, turns=1,
                                      request_seed=7), tmp_path / "d.jsonl")
        _, payload = service.calls[0]
        assert payload["temperature"] == 0.7
        assert payload["top_p"] == 0.9
        assert payload["max_tokens"] == 128
        assert payload["seed"] == 7
        assert payload["messages"][0]["role"] == "system"

    def test_byte_identical_across_runs(self, mock_service, tmp_path):
        service = mock_service(echo_chat_handler)
        out1 = tmp_path / "run1.jsonl"
        out2 = tmp_path / "run2.jsonl"
        generate_dialogs(quick_config(service.url, dialogs=4), out1)
        generate_dialogs(quick_config(service.url, dialogs=4), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_failure_keeps_clean_prefix(self, mock_service, tmp_path):
        calls = {"n": 0}

        def fail_after_first_dialog(path, payload):
            calls["n"] += 1
            if calls["n"] > 4:  # first dialog consumes exactly 4 turns
                return 500, {"error": "down"}
            return echo_chat_handler(path, payload)

        flaky = mock_service(fail_after_first_dialog)
        out = tmp_path / "partial.jsonl"
        result = generate_dialogs(quick_config(flaky.url, max_inflight=1), out)
        assert result.completed == 1
        assert result.failed == 1
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"].endswith("__0")
        log = (str(out) + ".log")
        assert "failed" in Path(log).read_text()

    def test_resume_skips_complete_lines(self, mock_service, tmp_path):
        service = mock_service(echo_chat_handler)
        out = tmp_path / "resume.jsonl"
        generate_dialogs(quick_config(service.url, dialogs=1), out)
        first_run_calls = len(service.calls)
        result = generate_dialogs(quick_config(service.url, dialogs=3), out)
        assert result.resumed_from == 1
        assert result.completed == 2
        assert len(service.calls) == first_run_calls + 2 * 4
        lines = out.read_text().strip().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == [f"mockA__mockB__neutral__{k}" for k in range(3)]

    def test_resume_truncates_a_torn_last_line(self, mock_service, tmp_path):
        # an interrupted write left a last line with no newline: it is not a
        # dialog, and new dialogs must not be appended onto it
        service = mock_service(echo_chat_handler)
        out = tmp_path / "torn.jsonl"
        generate_dialogs(quick_config(service.url, dialogs=1), out)
        torn = '{"id": "mockA__mockB__neutral__1", "condition": "neu'
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(torn)
        result = generate_dialogs(quick_config(service.url, dialogs=3), out)
        assert (result.resumed_from, result.completed, result.failed) == (1, 2, 0)
        with open(out, "rb") as fh:
            assert [d.id for d in parse_corpus(fh).dialogs] == \
                [f"mockA__mockB__neutral__{k}" for k in range(3)]
        assert (tmp_path / "torn.jsonl.log").read_text() == (
            f"truncated a torn last line of {len(torn)} bytes with no newline; "
            f"resuming at dialog index 1\n")

    def test_empty_response_retried_then_placeholder(self, mock_service, tmp_path):
        def empty_responder(path, payload):
            return 200, {"choices": [{"message": {"content": "   "}}]}

        service = mock_service(empty_responder)
        out = tmp_path / "empty.jsonl"
        result = generate_dialogs(quick_config(service.url, dialogs=1, turns=2), out)
        assert result.completed == 1
        obj = json.loads(out.read_text().strip())
        assert [t["text"] for t in obj["turns"]] == ["...", "..."]
        # one retry per empty turn: 2 turns x 2 requests
        assert len(service.calls) == 4
        assert "empty response" in Path(str(out) + ".log").read_text()

    def test_alternating_endpoints(self, mock_service, tmp_path):
        a = mock_service(echo_chat_handler)
        b = mock_service(echo_chat_handler)
        generate_dialogs(quick_config(a.url, endpoint_b=b.url, dialogs=1, turns=4),
                         tmp_path / "d.jsonl")
        assert len(a.calls) == 2
        assert len(b.calls) == 2
        assert all(p["model"] == "mockA" for _, p in a.calls)
        assert all(p["model"] == "mockB" for _, p in b.calls)

    def test_log_lists_warnings_in_index_order(self, tmp_path, monkeypatch):
        # dialog 0 finishes last, after dialog 1; both warn
        dialog_1_done = threading.Event()

        def fake_generate_one(config, index):
            if index == 0:
                assert dialog_1_done.wait(10)
                time.sleep(0.1)
            if index == 1:
                dialog_1_done.set()
            return {"id": f"d{index}"}, [f"warning {index}"] if index < 2 else []

        monkeypatch.setattr(runner, "_generate_one", fake_generate_one)
        out = tmp_path / "d.jsonl"
        result = generate_dialogs(quick_config("http://unused", dialogs=4, max_inflight=4), out)
        assert (result.completed, result.failed) == (4, 0)
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == \
            ["d0", "d1", "d2", "d3"]
        assert (tmp_path / "d.jsonl.log").read_text() == "warning 0\nwarning 1\n"

    def test_failure_drops_later_dialogs_and_their_warnings(self, tmp_path, monkeypatch):
        # dialog 1 fails after dialogs 2 and 3 have finished; their output
        # and warnings follow the failed index, so none of it is kept
        later_done = threading.Barrier(3)

        def fake_generate_one(config, index):
            if index >= 1:
                later_done.wait(10)
            if index == 1:
                time.sleep(0.1)
                raise EndpointError("down")
            return {"id": f"d{index}"}, [f"warning {index}"]

        monkeypatch.setattr(runner, "_generate_one", fake_generate_one)
        out = tmp_path / "d.jsonl"
        result = generate_dialogs(quick_config("http://unused", dialogs=4, max_inflight=4), out)
        assert (result.completed, result.failed) == (1, 1)
        assert out.read_text() == '{"id": "d0"}\n'
        assert (tmp_path / "d.jsonl.log").read_text() == \
            "warning 0\ndialog index 1 failed: down\n"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(endpoint_a="x", endpoint_b="x", model_a="m", model_b="m",
                             condition="calm")
        with pytest.raises(ValueError):
            GenerationConfig(endpoint_a="x", endpoint_b="x", model_a="m", model_b="m",
                             condition="neutral", top_p=0.0)
        for temperature in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^temperature must be finite and >= 0$"):
                GenerationConfig(endpoint_a="x", endpoint_b="x", model_a="m", model_b="m",
                                 condition="neutral", temperature=temperature)
        for field in ("dialogs", "turns", "max_tokens"):
            with pytest.raises(ValueError, match="must be >= 1"):
                GenerationConfig(endpoint_a="x", endpoint_b="x", model_a="m", model_b="m",
                                 condition="neutral", **{field: 0})


class TestConnections:
    """A dialog's turns share one kept-alive connection per endpoint host and
    port, closed when the dialog ends."""

    def test_one_connection_per_dialog_when_a_and_b_share_a_server(self, mock_service,
                                                                   tmp_path, sleeps):
        service = mock_service(echo_chat_handler, keep_alive=True)
        result = generate_dialogs(quick_config(service.url, dialogs=1, turns=10),
                                  tmp_path / "d.jsonl")
        assert (result.completed, result.failed) == (1, 0)
        assert len(service.calls) == 10
        assert service.connections == 1
        assert service.wait_all_closed()
        assert sleeps == []

    def test_one_connection_per_server_when_a_and_b_differ(self, mock_service, tmp_path):
        a = mock_service(echo_chat_handler, keep_alive=True)
        b = mock_service(echo_chat_handler, keep_alive=True)
        generate_dialogs(quick_config(a.url, endpoint_b=b.url, dialogs=1, turns=10),
                         tmp_path / "d.jsonl")
        assert (len(a.calls), len(b.calls)) == (5, 5)
        assert (a.connections, b.connections) == (1, 1)
        assert a.wait_all_closed() and b.wait_all_closed()

    def test_empty_reply_is_resent_on_the_same_connection(self, mock_service, tmp_path):
        def empty_responder(path, payload):
            return 200, {"choices": [{"message": {"content": ""}}]}

        service = mock_service(empty_responder, keep_alive=True)
        generate_dialogs(quick_config(service.url, dialogs=1, turns=3), tmp_path / "d.jsonl")
        assert len(service.calls) == 6
        assert service.connections == 1

    def test_http_1_0_server_serves_every_turn_without_retries(self, mock_service,
                                                                tmp_path, sleeps):
        service = mock_service(echo_chat_handler)  # closes after each reply
        out = tmp_path / "d.jsonl"
        result = generate_dialogs(quick_config(service.url, dialogs=1, turns=10), out)
        assert (result.completed, result.failed) == (1, 0)
        assert len(json.loads(out.read_text())["turns"]) == 10
        assert service.connections == 10
        assert sleeps == []

    def test_dialog_that_fails_partway_closes_its_connection(self, mock_service, tmp_path):
        def fail_at_third_turn(path, payload):
            if len(payload["messages"]) == 3:  # the system prompt and two turns
                return 404, {"error": "gone"}
            return echo_chat_handler(path, payload)

        service = mock_service(fail_at_third_turn, keep_alive=True)
        result = generate_dialogs(quick_config(service.url, dialogs=1, turns=10),
                                  tmp_path / "d.jsonl")
        assert (result.completed, result.failed) == (0, 1)
        assert len(service.calls) == 3
        assert service.connections == 1
        assert service.wait_all_closed()  # the server read the client's EOF

    def test_thread_count_changes_no_byte_and_shares_no_connection(self, mock_service,
                                                                   tmp_path):
        outputs = []
        for threads in (1, 4):
            service = mock_service(echo_chat_handler, keep_alive=True)
            out = tmp_path / f"threads{threads}.jsonl"
            assert main(["generate", "--endpoint-a", service.url, "--endpoint-b", service.url,
                         "--model-a", "mA", "--model-b", "mB", "--condition", "neutral",
                         "--dialogs", "8", "--turns", "5", "--threads", str(threads),
                         "--out", str(out)]) == EXIT_OK
            assert len(service.calls) == 8 * 5
            assert service.connections == 8  # one per dialog, on either thread count
            assert service.wait_all_closed()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                        reason="the platform has no TCP_QUICKACK")
    def test_headers_and_body_in_two_sends_do_not_stall_a_kept_connection(self, tmp_path):
        # With Nagle on (the stdlib server's default), the body waits until the
        # client ACKs the headers; a client on its delayed-ACK timer would add
        # about 40 ms to every request after the first on the connection
        class TwoSends(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                body = json.dumps(echo_chat_handler(self.path, payload)[1]).encode()
                self.connection.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                                        b"\r\nContent-Length: %d\r\n\r\n" % len(body))
                self.connection.sendall(body)

            def log_message(self, *args):
                pass

        with ThreadingHTTPServer(("127.0.0.1", 0), TwoSends) as server:
            assert not TwoSends.disable_nagle_algorithm
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"poll_interval": 0.01}, daemon=True)
            thread.start()
            try:
                start = time.perf_counter()
                result = generate_dialogs(
                    quick_config(f"http://127.0.0.1:{server.server_port}", dialogs=1,
                                 turns=20), tmp_path / "d.jsonl")
                elapsed = time.perf_counter() - start
            finally:
                server.shutdown()
        assert (result.completed, result.failed) == (1, 0)
        assert elapsed < 0.4  # 20 stalled turns would take 0.8 s or more
