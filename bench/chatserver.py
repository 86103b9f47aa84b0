"""Stand-in chat-completion server for the live-backend workload.

Runs in its own process, so it never competes with the program for the
interpreter lock, and speaks HTTP/1.1, so a client that keeps connections
alive can reuse them (``tests/fakeserver.py`` answers HTTP/1.0 and closes
every connection, so connection reuse could never show against it).

Each request is held for a fixed time. A seeded share of prompts is
answered once with HTTP 503 before it gets its 200. The lyrics are a pure
function of the prompt text, so the benchmark can check every corpus line
without asking the server.

    python3 bench/chatserver.py --seed 1

prints ``PORT <n>`` once it listens on 127.0.0.1. ``GET /stats`` returns
the attempt, connection and injected-503 counts as JSON; ``POST /reset``
zeroes them and forgets which prompts already got their 503.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

VOCAB_MARKER = "using the following vocabulary "
HOLD_S = 0.020  # how long each request is held
SHARE_503 = 0.05  # share of prompts whose first attempt gets HTTP 503


def gets_503(seed: int, prompt_text: str) -> bool:
    """Whether this prompt's first attempt is answered with HTTP 503."""
    digest = hashlib.sha256(f"{seed}:{prompt_text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") < SHARE_503 * 2**32


def lyrics_for(prompt_text: str) -> str:
    """The prompt's vocabulary in reverse, five words a line, then a tag line."""
    words = prompt_text.rsplit(VOCAB_MARKER, 1)[1][:-1].split(", ")
    words.reverse()
    lines = [" ".join(words[i : i + 5]) for i in range(0, len(words), 5)]
    sections = ["\n".join(lines[i : i + 4]) for i in range(0, len(lines), 4)]
    tag = hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()[:12]
    return "\n\n".join(sections) + f"\n\nx{tag}\n"


class _State:
    def __init__(self, seed: int):
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts = 0
            self.connections = 0
            self.injected = 0
            self.failed_once: set[str] = set()

    def stats(self) -> dict:
        with self.lock:
            return {"attempts": self.attempts, "connections": self.connections,
                    "injected_503": self.injected}


def _handler(state: _State) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        counted = False  # whether this connection has carried a chat request

        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, payload: bytes = b"") -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._send(404)
                return
            self._send(200, json.dumps(state.stats()).encode("utf-8"))

        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                state.reset()
                self._send(200)
                return
            prompt_text = json.loads(body)["messages"][0]["content"]
            with state.lock:
                state.attempts += 1
                if not self.counted:
                    self.counted = True
                    state.connections += 1
                fail = (prompt_text not in state.failed_once
                        and gets_503(state.seed, prompt_text))
                if fail:
                    state.failed_once.add(prompt_text)
                    state.injected += 1
            time.sleep(HOLD_S)
            if fail:
                self._send(503)
                return
            reply = {"choices": [{"message": {"role": "assistant",
                                              "content": lyrics_for(prompt_text)}}]}
            self._send(200, json.dumps(reply).encode("utf-8"))

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    state = _State(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(state))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    sys.exit(main())
