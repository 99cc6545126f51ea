"""post_json retry policy, against a scripted requests.post and a recorded sleep."""

import pytest
import requests

from coreval import _http
from coreval._http import EndpointError, post_json


class FakeResponse:
    def __init__(self, status_code, headers=None, body=None):
        self.status_code = status_code
        self.headers = headers or {}
        self.text = ""
        self._body = body

    def json(self):
        return self._body


@pytest.fixture
def scripted(monkeypatch):
    """Replies with the given responses in order, raising those that are
    exceptions; returns (calls, sleeps)."""
    calls, sleeps = [], []

    def install(*responses):
        replies = iter(responses)

        def post(url, json, timeout):
            calls.append(url)
            reply = next(replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(_http.requests, "post", post)
        monkeypatch.setattr(_http.time, "sleep", sleeps.append)
        monkeypatch.setattr(_http, "BACKOFF_S", 0.5)  # the policy's own first wait
        return calls, sleeps

    return install


OK = FakeResponse(200, body={"ok": True})
POLICY = (_http.ATTEMPTS, _http.BACKOFF_S)  # read at import, before any fixture sets it


def test_policy_is_three_attempts_from_half_a_second():
    assert POLICY == (3, 0.5)


@pytest.mark.parametrize("headers,expected_sleep", [
    ({"Retry-After": "2"}, 2.0),           # longer than the 0.5 s backoff
    ({"Retry-After": "0"}, 0.5),           # never shorter than the backoff
    ({}, 0.5),                             # no header: plain backoff
    ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, 0.5),  # date form: plain backoff
    ({"Retry-After": "600"}, 5.0),         # capped at the request timeout
])
def test_429_is_retried_after_retry_after(scripted, headers, expected_sleep):
    calls, sleeps = scripted(FakeResponse(429, headers), OK)
    assert post_json("http://svc", {}, timeout=5.0) == {"ok": True}
    assert len(calls) == 2
    assert sleeps == [expected_sleep]


def test_429_shares_the_retry_budget(scripted):
    calls, sleeps = scripted(FakeResponse(503), FakeResponse(429, {"Retry-After": "3"}),
                             FakeResponse(429))
    with pytest.raises(EndpointError, match="HTTP 429"):
        post_json("http://svc", {}, timeout=30.0)
    assert len(calls) == 3
    assert sleeps == [0.5, 3.0]


def test_other_4xx_fails_at_once(scripted):
    calls, sleeps = scripted(FakeResponse(404), OK)
    with pytest.raises(EndpointError, match="HTTP 404"):
        post_json("http://svc", {})
    assert len(calls) == 1
    assert sleeps == []


def test_connection_error_backs_off_exponentially(scripted, monkeypatch):
    calls, sleeps = scripted(*[requests.ConnectionError("refused")] * 3)
    monkeypatch.setattr(_http, "BACKOFF_S", 0.25)
    with pytest.raises(EndpointError, match="refused"):
        post_json("http://svc", {})
    assert len(calls) == 3
    assert sleeps == [0.25, 0.5]


@pytest.mark.parametrize("body", [[1, 2, 3], None, "x", 5, True])
def test_reply_that_is_not_an_object_fails_at_once(scripted, body):
    calls, sleeps = scripted(FakeResponse(200, body=body), OK)
    with pytest.raises(EndpointError, match="not a JSON object"):
        post_json("http://svc", {})
    assert len(calls) == 1
    assert sleeps == []
