"""Deterministic local stand-in for the reward and rating endpoints.

Run as its own process: ``python3 perfbench/stub.py TABLE.json``. It binds
an ephemeral port on 127.0.0.1, prints that port on one line of stdout and
serves until it is terminated. TABLE.json holds the planted values:

    {"reward": {"<question>\\u0000<answer>": score, ...},
     "rating": {"<rendered system prompt>": rating, ...}}

POST /reward answers {"score": value}; POST /rating answers {"content":
"<value>"}, both with ``repr`` of the planted float so the client parses
back the exact value. GET /stats answers the number of requests served per
endpoint. An unknown key gets 404.

Each response goes out in a single write: the handler's writer is
buffered and flushed once per request, and TCP_NODELAY is set. A
keep-alive stub that writes headers and body separately stalls on Nagle
plus delayed ACK (about 40 calls/s per connection).
"""

from __future__ import annotations

import http.server
import json
import socket
import sys
import threading


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    wbufsize = -1   # buffered; handle_one_request flushes after each request

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:
        if self.path != "/stats":
            return self._reply(404, {"error": "unknown endpoint"})
        with self.server.lock:
            self._reply(200, dict(self.server.counts))

    def do_POST(self) -> None:
        if self.path not in ("/reward", "/rating"):
            return self._reply(404, {"error": "unknown endpoint"})
        blob = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/reward":
            value = self.server.reward.get(blob["question"] + "\0" + blob["answer"])
            payload = {"score": value}
        else:
            value = self.server.rating.get(blob["system"])
            payload = {"content": repr(value)}
        if value is None:
            return self._reply(404, {"error": "unknown sample"})
        with self.server.lock:
            self.server.counts[self.path[1:]] += 1
        self._reply(200, payload)

    def _reply(self, status: int, payload: object) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class StubServer(http.server.ThreadingHTTPServer):
    def __init__(self, table: dict):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.reward = table["reward"]
        self.rating = table["rating"]
        self.counts = {"reward": 0, "rating": 0}
        self.lock = threading.Lock()


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        table = json.load(fh)
    with StubServer(table) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
