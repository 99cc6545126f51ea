"""JSON-over-HTTP POST with bounded retries and exponential backoff.

A plain ``http://`` URL with no proxy configured, and no credentials in the
URL, is sent over its own ``http.client`` connection, closed after the
reply; ``requests`` sends every other URL (https, a proxy, credentials), so
certifi, proxies, ``NO_PROXY`` and ``~/.netrc`` keep working there.
The proxy variables are read once per process, at its first request, so
setting or clearing one later does not move a URL between the two paths.
"""

from __future__ import annotations

import functools
import http.client
import json
import threading
import time
from urllib.parse import urlsplit
from urllib.request import getproxies

import requests

ATTEMPTS = 3  # requests per call, the first included
BACKOFF_S = 0.5  # wait before the second attempt; doubles before each later one


class EndpointError(RuntimeError):
    """External service unreachable or returned an invalid response after retries."""


# held around the first read, so threads whose first requests overlap read once
_PROXIES_LOCK = threading.Lock()


@functools.cache
def _proxies() -> dict[str, str]:
    """The proxy environment, read at the process's first request: each
    ``getproxies`` call decodes every environment variable."""
    return getproxies()


def _send(url: str, payload: dict, timeout: float):
    """POST ``payload`` as JSON once; returns (status, headers, body), where
    ``headers.get`` is case-insensitive and ``body`` is bytes.

    ``timeout`` bounds the connect and each read.  Raises ConnectionError when
    no complete reply arrives: the connect, the send or a read failed or timed
    out, or the reply broke off.
    """
    parts = urlsplit(url)
    with _PROXIES_LOCK:
        proxies = _proxies()
    direct = (parts.scheme == "http" and parts.username is None
              and "http" not in proxies and "all" not in proxies)
    if not direct:
        try:
            resp = requests.post(url, json=payload, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout,
                requests.exceptions.ChunkedEncodingError) as exc:
            raise ConnectionError(str(exc)) from exc
        return resp.status_code, resp.headers, resp.content
    if not parts.hostname:
        raise ValueError(f"invalid URL {url!r}: no host")
    # the bytes requests sends for json=payload
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json",
                                          "Connection": "close"})
        resp = conn.getresponse()
        return resp.status, resp.headers, resp.read()
    except (OSError, http.client.HTTPException) as exc:
        raise ConnectionError(str(exc)) from exc
    finally:
        conn.close()


def _retry_after_seconds(headers) -> float:
    """The delta-seconds form of a Retry-After header; 0 when absent or another form."""
    value = headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def post_json(url: str, payload: dict, *, timeout: float = 30.0) -> dict:
    """POST ``payload`` as JSON, returning the response body decoded to a dict.

    Connection errors, timeouts, replies cut short, 5xx and 429 responses are
    retried up to ``ATTEMPTS`` attempts with exponential backoff from
    ``BACKOFF_S``.  After a 429 the wait is at least the response's
    Retry-After seconds, capped at ``timeout``.
    3xx and other 4xx responses, and bodies that are not a JSON object, fail
    at once.
    """
    last_error: EndpointError | None = None
    for attempt in range(ATTEMPTS):
        retry_after = 0.0
        try:
            status, headers, body = _send(url, payload, timeout)
        except ConnectionError as exc:
            last_error = EndpointError(f"POST {url} failed: {exc}")
        else:
            if status >= 500 or status == 429:
                last_error = EndpointError(f"POST {url} failed: HTTP {status}")
                if status == 429:
                    retry_after = min(_retry_after_seconds(headers), timeout)
            elif status >= 300:
                text = body.decode("utf-8", "replace")[:200]
                raise EndpointError(f"POST {url} failed: HTTP {status}: {text}")
            else:
                try:
                    data = json.loads(body)
                except (ValueError, RecursionError) as exc:  # nested too deep
                    raise EndpointError(f"POST {url}: response is not valid JSON: {exc}") from None
                if isinstance(data, dict):
                    return data
                raise EndpointError(f"POST {url}: response is not a JSON object: {data!r:.200}")
        if attempt + 1 < ATTEMPTS:
            time.sleep(max(BACKOFF_S * (2 ** attempt), retry_after))
    assert last_error is not None
    raise last_error
