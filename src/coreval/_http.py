"""JSON-over-HTTP POST with bounded retries and exponential backoff.

A plain ``http://`` URL with no proxy configured, and no credentials in the
URL, is sent over an ``http.client`` connection; ``requests`` sends every
other URL (https, a proxy, credentials), one connection per call, so
certifi, proxies, ``NO_PROXY`` and ``~/.netrc`` keep working there.
The proxy variables are read once per process, at its first request, so
setting or clearing one later does not move a URL between the two paths.

Inside a ``keep_alive()`` block, the direct requests a thread sends share one
kept-alive connection per (host, port), closed when the block exits; every
other direct request has a connection of its own, closed after its reply.
``TCP_QUICKACK`` is set after each request is sent, where the platform has
it (Linux), so the reply's segments are ACKed at once.  Elsewhere a server
that writes its headers and its body in separate sends with Nagle on can
stall each reused request by the client's delayed-ACK timer (about 40 ms);
a server that sets ``TCP_NODELAY`` does not.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import http.client
import json
import select
import socket
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
# .conns: the open keep_alive() block's connections, keyed by (host, port)
_LOCAL = threading.local()


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
    out, or the reply broke off.  A direct request takes its connection from
    this thread's ``keep_alive()`` block when one is open; a kept connection
    found readable while idle is dropped, and one that fails is closed, so
    the next request connects again.
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
    key = parts.hostname, parts.port
    conns = getattr(_LOCAL, "conns", None)
    conn = None if conns is None else conns.get(key)
    if conn is None:
        conn = http.client.HTTPConnection(*key, timeout=timeout)
        if conns is not None:
            conns[key] = conn
    elif conn.sock is not None:
        if _readable(conn.sock):  # closed by the server, or bytes nobody asked for
            conn.close()  # the request below connects again
        else:
            conn.sock.settimeout(timeout)
    conn.timeout = timeout
    reply = None
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        _quick_ack(conn.sock)
        resp = conn.getresponse()
        reply = resp.status, resp.headers, resp.read()
    except (OSError, http.client.HTTPException) as exc:
        raise ConnectionError(str(exc)) from exc
    finally:
        if conns is None or reply is None:  # a failed connection is never reused
            conn.close()
    return reply


@contextlib.contextmanager
def keep_alive():
    """Within the block, this thread's direct requests to one (host, port)
    share one kept-alive connection; every one is closed when it exits."""
    outer = getattr(_LOCAL, "conns", None)
    conns = _LOCAL.conns = {}
    try:
        yield
    finally:
        _LOCAL.conns = outer
        for conn in conns.values():
            conn.close()


def _readable(sock) -> bool:
    """Whether an idle socket has bytes or an EOF waiting (urllib3's
    ``is_connection_dropped`` check)."""
    if hasattr(select, "poll"):  # select() cannot take a descriptor above 1023
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _quick_ack(sock) -> None:
    """ACK the reply's segments at once, not on the delayed-ACK timer.

    Linux leaves quick-ACK mode whenever the socket sends, so this is set
    after each request.  ENOPROTOOPT is ignored, as ``http.client`` ignores
    it for ``TCP_NODELAY``."""
    if hasattr(socket, "TCP_QUICKACK"):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        except OSError as exc:
            if exc.errno != errno.ENOPROTOOPT:
                raise


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
