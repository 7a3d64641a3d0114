"""The provider client's retry path, driven against a scripted HTTP server
on 127.0.0.1 that answers each POST with the next step of its script."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tabret.httpjson import ProviderError, auth_headers, fan_out, post_json

PAYLOAD = {"input": ["x"]}

# script steps that are not replies
DROP = "drop"  # close the connection without a response
STALL = "stall"  # send nothing until the test ends


class Reply:
    def __init__(self, status_code: int, body=None, text: str = "", headers=None):
        self.status_code = status_code
        self.content = json.dumps(body).encode("utf-8") if body is not None else text.encode()
        self.headers = headers or {}


class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with server.lock:
            server.calls.append((self.path, dict(self.headers), body))
            step = server.steps.pop(0)
        if step == DROP:
            self.close_connection = True
            return
        if step == STALL:
            server.release.wait(10)
            self.close_connection = True
            return
        self.send_response(step.status_code)
        for name, value in step.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(step.content)))
        self.end_headers()
        self.wfile.write(step.content)

    def log_message(self, *args):
        pass


class Script(ThreadingHTTPServer):
    """Answers each POST with the next scripted step; records each request
    as (path, headers, body bytes)."""

    def __init__(self, *steps):
        super().__init__(("127.0.0.1", 0), Handler)
        self.steps = list(steps)
        self.calls = []
        self.lock = threading.Lock()
        self.release = threading.Event()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1/embeddings"


@pytest.fixture
def sleeps():
    return []


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    # a proxy from the environment must not carry the loopback requests
    monkeypatch.setenv("no_proxy", "*")


@pytest.fixture
def serve():
    """Starts Script servers in threads and stops them after the test."""
    started = []

    def start(*steps) -> Script:
        server = Script(*steps)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        started.append(server)
        return server

    yield start
    for server in started:
        server.release.set()
        server.shutdown()
        server.server_close()


def run(script, sleeps, timeout=60.0, headers=None):
    return post_json(script.url, PAYLOAD, headers=headers, timeout=timeout, _sleep=sleeps.append)


def test_transient_failures_back_off_then_return_the_200_body(serve, sleeps):
    script = serve(
        Reply(429, text="slow down"),
        Reply(503, text="unavailable"),
        DROP,
        Reply(200, body={"data": [1, 2]}),
    )
    assert run(script, sleeps) == {"data": [1, 2]}
    assert sleeps == [0.5, 1.0, 2.0]
    assert len(script.calls) == 4
    assert all(json.loads(body) == PAYLOAD for _, _, body in script.calls)


def test_request_is_the_json_body_with_the_callers_headers(serve, sleeps):
    payload = {"model": "m", "input": ["naïve | café", "x\ty"], "temperature": 0.4}
    script = serve(Reply(200, body={"ok": True}))
    post_json(script.url, payload, headers={"Authorization": "Bearer sk-test"}, _sleep=sleeps.append)
    ((path, headers, body),) = script.calls
    assert path == "/v1/embeddings"
    assert body == json.dumps(payload, allow_nan=False).encode("utf-8")
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer sk-test"


def test_client_error_fails_at_once_without_sleeping(serve, sleeps):
    script = serve(Reply(400, text="bad request"), Reply(200, body={}))
    with pytest.raises(ProviderError, match="HTTP 400: bad request"):
        run(script, sleeps)
    assert sleeps == []
    assert len(script.calls) == 1


def test_client_error_body_is_cut_at_500_characters(serve, sleeps):
    script = serve(Reply(404, text="x" * 499 + "yz" + "w" * 100))
    with pytest.raises(ProviderError) as info:
        run(script, sleeps)
    assert str(info.value) == f"{script.url}: HTTP 404: {'x' * 499}y"
    assert sleeps == [] and len(script.calls) == 1


def test_non_json_200_fails_at_once(serve, sleeps):
    script = serve(Reply(200, text="<html>ok</html>"), Reply(200, body={}))
    with pytest.raises(ProviderError, match="non-JSON 200 response: Expecting value"):
        run(script, sleeps)
    assert sleeps == []
    assert len(script.calls) == 1


def test_four_transient_failures_give_up(serve, sleeps):
    script = serve(
        Reply(500, text="a"),
        Reply(429, text="b"),
        STALL,  # past the timeout
        Reply(502, text="last straw"),
    )
    with pytest.raises(ProviderError, match="giving up after 4 attempts; HTTP 502: last straw"):
        run(script, sleeps, timeout=0.2)
    assert sleeps == [0.5, 1.0, 2.0]
    assert script.steps == []


def test_stalled_reply_times_out_as_a_transport_error(serve, sleeps):
    script = serve(STALL, STALL, STALL, STALL)
    with pytest.raises(ProviderError, match="giving up after 4 attempts; transport error: .*timed out"):
        run(script, sleeps, timeout=0.2)
    assert sleeps == [0.5, 1.0, 2.0]
    assert len(script.calls) == 4


def test_refused_connection_is_retried_then_given_up(sleeps):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    url = f"http://127.0.0.1:{port}/v1/embeddings"  # nothing listens here now
    with pytest.raises(ProviderError, match="giving up after 4 attempts; transport error: .*refused"):
        post_json(url, PAYLOAD, timeout=5.0, _sleep=sleeps.append)
    assert sleeps == [0.5, 1.0, 2.0]


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
def test_retry_after_lengthens_the_first_backoff(serve, sleeps, status, retry_after, waited):
    script = serve(
        Reply(status, text="busy", headers={"Retry-After": retry_after}),
        Reply(200, body={"ok": True}),
    )
    assert run(script, sleeps, timeout=5.0) == {"ok": True}
    assert sleeps == [waited]


def test_retry_after_applies_per_attempt(serve, sleeps):
    script = serve(
        Reply(429, text="a", headers={"Retry-After": "4"}),
        Reply(503, text="b"),
        Reply(429, text="c", headers={"Retry-After": "1"}),
        Reply(503, text="d", headers={"Retry-After": "7"}),
    )
    with pytest.raises(ProviderError, match="giving up after 4 attempts; HTTP 503: d"):
        run(script, sleeps)
    # the last attempt's Retry-After is not slept: nothing follows it
    assert sleeps == [4.0, 1.0, 2.0]


def test_fan_out_yields_each_result_or_error_in_input_order():
    def fn(i):
        time.sleep(0.01 * (5 - i))  # later items finish first
        if i == 2:
            raise ProviderError("two")
        return (i, threading.current_thread())

    out = list(fan_out(fn, list(range(5)), 3))
    assert isinstance(out[2], ProviderError) and str(out[2]) == "two"
    del out[2]
    assert [i for i, _ in out] == [0, 1, 3, 4]
    threads = {thread for _, thread in out}
    assert len(threads) <= 3 and threading.current_thread() not in threads


@pytest.mark.parametrize("items, workers", [([7], 4), ([1, 2, 3], 1), ([], 4)])
def test_fan_out_runs_inline_with_one_item_or_one_worker(items, workers):
    out = list(fan_out(lambda i: (i, threading.current_thread()), items, workers))
    assert out == [(i, threading.current_thread()) for i in items]


def test_auth_headers_carry_the_bearer_token_of_the_named_variable(monkeypatch):
    monkeypatch.setenv("PROVIDER_TOKEN", "sk-test")
    assert auth_headers("PROVIDER_TOKEN") == {"Authorization": "Bearer sk-test"}


def test_auth_headers_are_none_without_a_token(monkeypatch):
    monkeypatch.delenv("PROVIDER_TOKEN", raising=False)
    assert auth_headers("PROVIDER_TOKEN") is None
    monkeypatch.setenv("PROVIDER_TOKEN", "")
    assert auth_headers("PROVIDER_TOKEN") is None
    assert auth_headers("") is None
