"""Instrumented chat-completions endpoint for backend and pipeline tests.

Counts every request, tracks the high-water mark of concurrent in-flight
requests, records headers and bodies, and can be scripted to return a
fixed sequence of HTTP statuses before settling on 200. With ``raw_reply``
it writes those bytes in place of the HTTP reply and closes the
connection, so a test can send a reply cut short, or none at all.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def lyrics_for(prompt_text: str) -> str:
    """Deterministic fake lyrics so reruns can be byte-compared."""
    tag = hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()[:12]
    return f"fake verse {tag}\nsecond line {tag}\n\nfake refrain {tag}\n"


def refused_endpoint() -> str:
    """An endpoint on a local port that nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/chat/completions"


class FakeChatServer:
    def __init__(self, script: list[int] | None = None, hold_seconds: float = 0.0,
                 blank_completion: bool = False, raw_reply: bytes | None = None):
        self.script = list(script or [])
        self.hold_seconds = hold_seconds
        self.blank_completion = blank_completion
        self.raw_reply = raw_reply
        self.lock = threading.Lock()
        self.requests: list[dict] = []
        self.in_flight = 0
        self.max_in_flight = 0
        self._mark = 0
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "FakeChatServer":
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # noqa: D102 - quiet test output
                pass

            def do_POST(self):
                outer._handle(self)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._server is not None
        self._server.shutdown()
        self._server.server_close()

    @property
    def endpoint(self) -> str:
        assert self._server is not None
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    # -- instrumentation -----------------------------------------------------

    @property
    def request_count(self) -> int:
        with self.lock:
            return len(self.requests)

    def mark(self) -> None:
        """Remember the current request count; see requests_since_mark."""
        with self.lock:
            self._mark = len(self.requests)

    @property
    def requests_since_mark(self) -> int:
        with self.lock:
            return len(self.requests) - self._mark

    def set_script(self, script: list[int]) -> None:
        with self.lock:
            self.script = list(script)

    # -- request handling ----------------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        length = int(handler.headers.get("Content-Length", 0))
        body = json.loads(handler.rfile.read(length) or b"{}")
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            status = self.script.pop(0) if self.script else 200
            self.requests.append(
                {"body": body, "headers": handler.headers}
            )
        try:
            if self.hold_seconds:
                time.sleep(self.hold_seconds)
            if self.raw_reply is not None:
                handler.wfile.write(self.raw_reply)
                handler.close_connection = True
                return
            if status != 200:
                handler.send_response(status)
                handler.send_header("Content-Length", "0")
                handler.end_headers()
                return
            prompt_text = body.get("messages", [{}])[0].get("content", "")
            content = "" if self.blank_completion else lyrics_for(prompt_text)
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode("utf-8")
            handler.send_response(200)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(payload)))
            handler.end_headers()
            handler.wfile.write(payload)
        finally:
            with self.lock:
                self.in_flight -= 1
