"""Shared fixtures: a programmable HTTP stub and tiny corpus builders."""

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from vlcurate.corpus import Triplet

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
    """

    def __init__(self):
        self.requests = []
        self.handler = lambda payload: {}
        self._lock = threading.Lock()

        stub = self

        class _Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                size = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(size) or b"{}")
                with stub._lock:
                    stub.requests.append(
                        {"path": self.path, "payload": payload,
                         "headers": dict(self.headers)}
                    )
                    result = stub.handler(payload)
                if isinstance(result, int):
                    self.send_response(result)
                    self.end_headers()
                    return
                body = (result if isinstance(result, str) else json.dumps(result)).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def http_stub():
    stub = StubEndpoint()
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
