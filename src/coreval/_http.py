"""JSON-over-HTTP POST with bounded retries and exponential backoff."""

from __future__ import annotations

import time

import requests

ATTEMPTS = 3  # requests per call, the first included
BACKOFF_S = 0.5  # wait before the second attempt; doubles before each later one


class EndpointError(RuntimeError):
    """External service unreachable or returned an invalid response after retries."""


def _retry_after_seconds(resp: requests.Response) -> float:
    """The delta-seconds form of a Retry-After header; 0 when absent or another form."""
    value = resp.headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def post_json(url: str, payload: dict, *, timeout: float = 30.0) -> dict:
    """POST ``payload`` as JSON, returning the response body decoded to a dict.

    Connection errors, timeouts, 5xx and 429 responses are retried up to
    ``ATTEMPTS`` attempts with exponential backoff from ``BACKOFF_S``.
    After a 429 the wait is at least the response's Retry-After seconds,
    capped at ``timeout``.
    Other 4xx responses and bodies that are not a JSON object fail at once.
    """
    last_error: EndpointError | None = None
    for attempt in range(ATTEMPTS):
        retry_after = 0.0
        try:
            resp = requests.post(url, json=payload, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = EndpointError(f"POST {url} failed: {exc}")
        else:
            if resp.status_code >= 500 or resp.status_code == 429:
                last_error = EndpointError(f"POST {url} failed: HTTP {resp.status_code}")
                if resp.status_code == 429:
                    retry_after = min(_retry_after_seconds(resp), timeout)
            elif resp.status_code >= 400:
                raise EndpointError(f"POST {url} failed: HTTP {resp.status_code}: {resp.text[:200]}")
            else:
                try:
                    data = resp.json()
                except (ValueError, RecursionError) as exc:  # nested too deep
                    raise EndpointError(f"POST {url}: response is not valid JSON: {exc}") from None
                if isinstance(data, dict):
                    return data
                raise EndpointError(f"POST {url}: response is not a JSON object: {data!r:.200}")
        if attempt + 1 < ATTEMPTS:
            time.sleep(max(BACKOFF_S * (2 ** attempt), retry_after))
    assert last_error is not None
    raise last_error
