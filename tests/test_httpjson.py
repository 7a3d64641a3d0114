"""The provider client's retry path, driven by a fake requests.post."""

import pytest
import requests

import tabret.httpjson as httpjson
from tabret.httpjson import ProviderError, post_json

URL = "http://provider.invalid/v1/embeddings"


class Reply:
    def __init__(self, status_code: int, body=None, text: str = "", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        self.headers = headers or {}

    def json(self):
        return self._body


class Script:
    """Answers each POST with the next scripted reply or raises it."""

    def __init__(self, *steps):
        self.steps = list(steps)
        self.calls = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append((url, json, headers, timeout))
        step = self.steps.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


@pytest.fixture
def sleeps():
    return []


def run(monkeypatch, sleeps, script, timeout=60.0):
    monkeypatch.setattr(httpjson.requests, "post", script)
    return post_json(URL, {"input": ["x"]}, timeout=timeout, _sleep=sleeps.append)


def test_transient_failures_back_off_then_return_the_200_body(monkeypatch, sleeps):
    script = Script(
        Reply(429, text="slow down"),
        Reply(503, text="unavailable"),
        requests.ConnectionError("connection reset"),
        Reply(200, body={"data": [1, 2]}),
    )
    assert run(monkeypatch, sleeps, script) == {"data": [1, 2]}
    assert sleeps == [0.5, 1.0, 2.0]
    assert len(script.calls) == 4
    assert all(call[1] == {"input": ["x"]} for call in script.calls)


def test_client_error_fails_at_once_without_sleeping(monkeypatch, sleeps):
    script = Script(Reply(400, text="bad request"), Reply(200, body={}))
    with pytest.raises(ProviderError, match="HTTP 400: bad request"):
        run(monkeypatch, sleeps, script)
    assert sleeps == []
    assert len(script.calls) == 1


def test_four_transient_failures_give_up(monkeypatch, sleeps):
    script = Script(
        Reply(500, text="a"),
        Reply(429, text="b"),
        requests.Timeout("read timed out"),
        Reply(502, text="last straw"),
    )
    with pytest.raises(ProviderError, match="giving up after 4 attempts; HTTP 502: last straw"):
        run(monkeypatch, sleeps, script)
    assert sleeps == [0.5, 1.0, 2.0]
    assert script.steps == []


@pytest.mark.parametrize(
    "status, retry_after, waited",
    [
        (429, "3", 3.0),
        (503, "4", 4.0),
        (429, " 2 ", 2.0),
        (503, "0", 0.5),  # never shorter than the fixed backoff
        (429, "90", 5.0),  # capped at the request timeout
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),  # HTTP-date
        (503, "1.5", 0.5),  # not delta-seconds
        (429, "-4", 0.5),
        (429, "soon", 0.5),
        (429, "", 0.5),
        (500, "9", 0.5),  # only 429 and 503 ask the client to wait
        (502, "9", 0.5),
    ],
)
def test_retry_after_lengthens_the_first_backoff(monkeypatch, sleeps, status, retry_after, waited):
    script = Script(
        Reply(status, text="busy", headers={"Retry-After": retry_after}),
        Reply(200, body={"ok": True}),
    )
    assert run(monkeypatch, sleeps, script, timeout=5.0) == {"ok": True}
    assert sleeps == [waited]


def test_retry_after_applies_per_attempt(monkeypatch, sleeps):
    script = Script(
        Reply(429, text="a", headers={"Retry-After": "4"}),
        Reply(503, text="b"),
        Reply(429, text="c", headers={"Retry-After": "1"}),
        Reply(503, text="d", headers={"Retry-After": "7"}),
    )
    with pytest.raises(ProviderError, match="giving up after 4 attempts; HTTP 503: d"):
        run(monkeypatch, sleeps, script)
    # the last attempt's Retry-After is not slept: nothing follows it
    assert sleeps == [4.0, 1.0, 2.0]
