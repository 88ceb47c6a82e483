"""Shared fixtures: a programmable HTTP stub and tiny corpus builders."""

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from vlcurate.corpus import Triplet
from vlcurate.indicators import _JsonClient

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    """One "[criterion NN] PASS/FAIL" verdict line per acceptance check,
    emitted outside pytest's capture so it lands in the run log."""
    if report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n[criterion {int(match.group(1)):02d}] {verdict}")


class StubEndpoint:
    """Local HTTP server whose responses come from a user-supplied callable.

    handler(payload: dict) -> dict | str | int
      dict -> 200 with that JSON body
      str  -> raw body (still JSON-encoded as {"content": str} is the caller's
              job; here a str means a non-JSON 200 body, for malformed replies)
      int  -> empty response with that status code

    It speaks HTTP/1.0, so the server closes the connection after every
    reply. ``connections`` counts the connections it accepted.
    """

    protocol_version = "HTTP/1.0"

    def __init__(self):
        self.received = []
        self.connections = 0
        self.handler = lambda payload: {}
        self._lock = threading.Lock()

        stub = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = stub.protocol_version

            def setup(self):
                super().setup()
                # headers and body go out in two writes; on a kept-alive
                # connection Nagle plus delayed ACK would stall the second
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with stub._lock:
                    stub.connections += 1

            def do_POST(self):
                size = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(size) or b"{}")
                with stub._lock:
                    stub.received.append(
                        {"path": self.path, "payload": payload,
                         "headers": dict(self.headers)}
                    )
                    result = stub.handler(payload)
                stub.reply(self, result)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        # a short poll keeps shutdown() from waiting out the default 0.5 s
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/"

    def reply(self, request, result):
        if isinstance(result, int):
            request.send_response(result)
            request.end_headers()
            return
        body = (result if isinstance(result, str) else json.dumps(result)).encode()
        request.send_response(200)
        request.send_header("Content-Type", "application/json")
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)

    def close(self):
        self._server.shutdown()
        self._server.server_close()


class KeepAliveStub(StubEndpoint):
    """HTTP/1.1 variant: a connection stays open for the client's next request.

    handler may also return (status, body bytes); every reply carries its
    Content-Length. With ``drop_idle`` set, the server closes each
    connection after its reply without announcing it, as a server does
    when it times out an idle keep-alive connection.
    """

    protocol_version = "HTTP/1.1"

    def __init__(self):
        super().__init__()
        self.drop_idle = False

    def reply(self, request, result):
        if isinstance(result, int):
            result = (result, b"")
        if isinstance(result, tuple):
            status, body = result
            request.send_response(status)
            request.send_header("Content-Length", str(len(body)))
            request.end_headers()
            request.wfile.write(body)
        else:
            super().reply(request, result)
        request.close_connection = request.close_connection or self.drop_idle


class Hangup(bytes):
    """A scripted RawStub reply after which the server closes the connection."""


class RawStub:
    """Local TCP server that answers each HTTP request with scripted bytes.

    The n-th request, counted from 0 over all connections, is answered with
    ``replies[n]``, or with the last entry once they run out, sent as is;
    after a ``Hangup`` entry the server closes the connection. ``requests``
    holds the bytes of each request, head and body, and ``connections``
    counts the connections accepted.
    """

    def __init__(self):
        self.replies = [b""]
        self.requests = []
        self.connections = 0
        self._lock = threading.Lock()
        self._socks = []
        self._threads = []
        self._server = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._server.getsockname()[1]}/"
        self._accepting = threading.Thread(target=self._accept, daemon=True)
        self._accepting.start()

    def _accept(self):
        while True:
            try:
                sock, _ = self._server.accept()
            except OSError:  # the server was shut down
                return
            serving = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            with self._lock:
                self.connections += 1
                self._socks.append(sock)
                self._threads.append(serving)
            serving.start()

    def _serve(self, sock):
        with sock, sock.makefile("rb") as reader:
            try:
                while True:
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):
                        line = reader.readline()
                        if not line:
                            return
                        head += line
                    size = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
                    request = head + reader.read(int(size.group(1)) if size else 0)
                    with self._lock:
                        self.requests.append(request)
                        reply = self.replies[min(len(self.requests), len(self.replies)) - 1]
                    sock.sendall(reply)
                    if isinstance(reply, Hangup):
                        return
            except OSError:
                return

    def close(self):
        self._server.shutdown(socket.SHUT_RDWR)  # wakes the accepting thread
        self._server.close()
        self._accepting.join(timeout=10)
        with self._lock:
            socks, threads = list(self._socks), list(self._threads)
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed
                pass
        for thread in threads:
            thread.join(timeout=10)
        assert not self._accepting.is_alive()
        assert not any(thread.is_alive() for thread in threads)


@pytest.fixture(autouse=True)
def waits(monkeypatch):
    """The waits scoring clients take between attempts, recorded instead of
    slept, so that no test sleeps through a backoff."""
    waited = []
    monkeypatch.setattr(_JsonClient, "sleep", staticmethod(waited.append))
    return waited


@pytest.fixture
def raw_stub():
    stub = RawStub()
    yield stub
    stub.close()


@pytest.fixture
def http_stub():
    stub = StubEndpoint()
    yield stub
    stub.close()


@pytest.fixture
def keepalive_stub():
    stub = KeepAliveStub()
    yield stub
    stub.close()


def make_manifest(n, seed=0):
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "cedar", "delta", "ember"]
    out = []
    for i in range(n):
        k = int(rng.integers(1, 6))
        out.append(
            Triplet(
                id=f"t{i:03d}",
                image_ref=f"img/{i}.png",
                instruction="Describe this image in detail.",
                response=" ".join(words[int(rng.integers(5))] for _ in range(k)),
            )
        )
    return out


def make_features(manifest, image_dim=4, text_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    n = len(manifest)
    return {
        "image": rng.normal(size=(n, image_dim)),
        "text_clip": rng.normal(size=(n, image_dim)),
        "text_llm": rng.normal(size=(n, text_dim)),
    }


def feature_text(ids, matrix):
    """Feature-file bytes as one serial pass formats them: ``repr`` of each
    float, the spec that every write must reproduce."""
    return ("id %d\n" % matrix.shape[1] + "".join(
        f"{sample_id} {' '.join(map(repr, row.tolist()))}\n"
        for sample_id, row in zip(ids, matrix))).encode()
