"""Shared HTTP JSON client for embedding and chat providers.

Retries are limited to transient failures: transport errors, HTTP 429,
and HTTP 5xx, with fixed backoff 0.5s / 1s / 2s between the four
attempts. After a 429 or 503 whose Retry-After header gives
delta-seconds, the wait is max(backoff, min(Retry-After, timeout)); an
HTTP-date or unparsable value keeps the fixed backoff. Client errors
other than 429 fail immediately since retrying a malformed request
cannot succeed.
"""

from __future__ import annotations

import time
from typing import Any

import requests

RETRY_BACKOFF_S = (0.5, 1.0, 2.0)


class ProviderError(RuntimeError):
    """An embedding or chat provider request failed after retries."""


def post_json(
    url: str,
    payload: dict,
    headers: dict[str, str] | None = None,
    timeout: float = 60.0,
    _sleep=time.sleep,
) -> Any:
    """POST payload as JSON, return the decoded JSON response body."""
    last_error = ""
    for backoff in (*RETRY_BACKOFF_S, None):
        retry_after = 0.0
        try:
            resp = requests.post(url, json=payload, headers=headers or {}, timeout=timeout)
        except requests.RequestException as exc:
            last_error = f"transport error: {exc}"
        else:
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise ProviderError(f"{url}: non-JSON 200 response: {exc}") from exc
            body = resp.text[:500]
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}: {body}"
                if resp.status_code in (429, 503):
                    retry_after = min(_delta_seconds(resp.headers.get("Retry-After", "")), timeout)
            else:
                raise ProviderError(f"{url}: HTTP {resp.status_code}: {body}")
        if backoff is None:
            break
        _sleep(max(backoff, retry_after))
    raise ProviderError(f"{url}: giving up after {len(RETRY_BACKOFF_S) + 1} attempts; {last_error}")


def _delta_seconds(value: str) -> float:
    """A Retry-After value in delta-seconds; 0 for an HTTP-date or junk."""
    value = value.strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0
