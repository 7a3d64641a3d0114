"""Shared HTTP JSON client for embedding and chat providers.

Retries are limited to transient failures: transport errors, HTTP 429,
and HTTP 5xx, with fixed backoff 0.5s / 1s / 2s between the four
attempts. After a 429 or 503 whose Retry-After header gives
delta-seconds, the wait is max(backoff, min(Retry-After, timeout)); an
HTTP-date or unparsable value keeps the fixed backoff. Client errors
other than 429 fail immediately since retrying a malformed request
cannot succeed. fan_out sends many requests: one runs inline, more run
on min(workers, n) threads, with results in input order.

A provider's config names the environment variable that holds its
bearer token, never the token: auth_headers reads the variable when a
request is built, so no config object, manifest or log holds the value.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from concurrent import futures
from typing import Any, Callable, Iterator, Sequence

RETRY_BACKOFF_S = (0.5, 1.0, 2.0)


class ProviderError(RuntimeError):
    """An embedding or chat provider request failed after retries."""


def auth_headers(token_env: str) -> dict[str, str] | None:
    """The Authorization header for the bearer token in the environment
    variable token_env, read now; None if none is named or it is unset."""
    token = os.environ.get(token_env) if token_env else None
    return {"Authorization": f"Bearer {token}"} if token else None


def post_json(
    url: str,
    payload: dict,
    headers: dict[str, str] | None = None,
    timeout: float = 60.0,
    _sleep=time.sleep,
) -> Any:
    """POST payload as JSON, return the decoded JSON response body."""
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    request = urllib.request.Request(url, data, {"Content-Type": "application/json", **(headers or {})})
    last_error = ""
    for backoff in (*RETRY_BACKOFF_S, None):
        retry_after = 0.0
        try:
            try:
                reply = urllib.request.urlopen(request, timeout=timeout)
            except urllib.error.HTTPError as exc:
                reply = exc  # a status outside 2xx still carries headers and a body
            with reply:
                status, content = reply.status, reply.read()
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"transport error: {exc}"
        else:
            if status == 200:
                try:
                    return json.loads(content)
                except ValueError as exc:
                    raise ProviderError(f"{url}: non-JSON 200 response: {exc}") from exc
            body = content.decode("utf-8", "replace")[:500]
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}: {body}"
                if status in (429, 503):
                    retry_after = min(_delta_seconds(reply.headers.get("Retry-After", "")), timeout)
            else:
                raise ProviderError(f"{url}: HTTP {status}: {body}")
        if backoff is None:
            break
        _sleep(max(backoff, retry_after))
    raise ProviderError(f"{url}: giving up after {len(RETRY_BACKOFF_S) + 1} attempts; {last_error}")


def _delta_seconds(value: str) -> float:
    """A Retry-After value in delta-seconds; 0 for an HTTP-date or junk."""
    value = value.strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def fan_out(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """fn(item), or the ProviderError it raised, for each item in input
    order. Closing the iterator early cancels the calls not yet started."""
    def attempt(item):
        try:
            return fn(item)
        except ProviderError as exc:
            return exc

    if workers == 1 or len(items) <= 1:  # a pool costs more than the one call it would overlap
        yield from map(attempt, items)
        return
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(attempt, items)
