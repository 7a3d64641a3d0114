"""Localhost stand-in for an embedding and chat provider.

Serves the two wire schemas tabret's HTTP providers speak:

- ``POST /v1/embeddings``: one vector per input, from word tokens hashed
  with CRC-32 into ``--dim`` signed buckets. It is deterministic and
  cheap, and still carries the table codes the synthetic corpus plants,
  so retrieval over it is meaningful.
- ``POST /v1/chat/completions``: questions about the first data row of
  the table chunk in the prompt, one per column, cycling.

Every request sleeps ``--delay-ms`` before answering, so the stub spends
its time waiting, not computing. ``GET /stats`` returns how many
provider requests were served. It binds 127.0.0.1 on a free port and
prints ``port <n>`` on stdout once it accepts connections.

Run: python3 perfbench/stub_provider.py --dim 64 --delay-ms 5
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_TOKEN = re.compile(r"[a-z0-9]+")
_CHUNK = re.compile(r"content:\n(.*?)\n\n\nYour Task:", re.DOTALL)
_COUNT = re.compile(r"Generate (\d+) diverse questions")


def embed(text: str, dim: int) -> list[float]:
    acc = [0.0] * dim
    for token in _TOKEN.findall(text.lower()):
        h = zlib.crc32(token.encode("utf-8"))
        acc[h % dim] += 1.0 if (h >> 16) & 1 else -1.0
    if not any(acc):
        acc[0] = 1.0
    return acc


def questions(prompt: str) -> list[str]:
    count = _COUNT.search(prompt)
    chunk = _CHUNK.search(prompt)
    n_q = int(count.group(1)) if count else 1
    lines = chunk.group(1).split("\n") if chunk else []
    if len(lines) < 2:
        return ["Which table is this?"]
    cells = [part.partition(": ") for part in lines[1].split(" | ")]
    return [
        f"Which table has {cells[i % len(cells)][0]} {cells[i % len(cells)][2]}?"
        for i in range(n_q)
    ]


class _Handler(BaseHTTPRequestHandler):
    server: "StubServer"

    def log_message(self, *args: object) -> None:
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, {"requests": self.server.served})
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError:
            self._send(400, {"error": "body is not JSON"})
            return
        time.sleep(self.server.delay_s)
        if self.path == "/v1/embeddings":
            body = {
                "data": [
                    {"index": i, "embedding": embed(text, self.server.dim)}
                    for i, text in enumerate(payload["input"])
                ]
            }
        elif self.path == "/v1/chat/completions":
            content = json.dumps({"questions": questions(payload["messages"][-1]["content"])})
            body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        else:
            self._send(404, {"error": "not found"})
            return
        self.server.count()
        self._send(200, body)


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, dim: int, delay_s: float) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.dim = dim
        self.delay_s = delay_s
        self.served = 0
        self._lock = threading.Lock()

    def count(self) -> None:
        with self._lock:
            self.served += 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    # a handler waking from its delay waits for the interpreter lock; a
    # short switch interval keeps that wait well below the delay
    sys.setswitchinterval(0.0005)
    server = StubServer(args.dim, args.delay_ms / 1000.0)
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
