"""The provider client's retry path, driven by a fake requests.post."""

import pytest
import requests

import tabret.httpjson as httpjson
from tabret.httpjson import ProviderError, post_json

URL = "http://provider.invalid/v1/embeddings"


class Reply:
    def __init__(self, status_code: int, body=None, text: str = ""):
        self.status_code = status_code
        self._body = body
        self.text = text

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


def run(monkeypatch, sleeps, script):
    monkeypatch.setattr(httpjson.requests, "post", script)
    return post_json(URL, {"input": ["x"]}, _sleep=sleeps.append)


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
