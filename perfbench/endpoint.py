"""Loopback chat-completions endpoint that replays recorded replies.

Run as its own process by the benchmark; it imports nothing from
graphcrew, so no change under test can alter what it serves.  Replies
come from a fixtures JSONL written by graphcrew's ``kind: record``
backend and are indexed by the exact ``system``/``user`` prompt pair.
Every reply is sent after a fixed delay that stands in for model
latency.  A prompt with no recorded reply gets a 404.

    python3 endpoint.py --fixtures FILE --delay-ms 20

prints the bound port on its first stdout line, then serves on
127.0.0.1 until its stdin closes, so it ends with the process that
started it even when that process is killed.  ``GET /stats`` returns
the connection and request counts so far.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class ReplayServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replies: dict[tuple[str, str], dict], delay_s: float):
        super().__init__(("127.0.0.1", 0), ReplayHandler)
        self.replies = replies
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.counts = {"connections": 0, "requests": 0}

    def count(self, key: str) -> None:
        with self.lock:
            self.counts[key] += 1


class ReplayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.server.count("connections")

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            counts = dict(self.server.counts)
        self._send(200, counts)

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        try:
            messages = json.loads(self.rfile.read(length))["messages"]
            key = (messages[0]["content"], messages[1]["content"])
        except (ValueError, KeyError, IndexError, TypeError):
            self._send(400, {"error": "expected a chat-completions request"})
            return
        self.server.count("requests")
        time.sleep(self.server.delay_s)
        reply = self.server.replies.get(key)
        if reply is None:
            self._send(404, {"error": "no recorded reply for this prompt"})
            return
        self._send(200, reply)


def load_replies(path: str) -> dict[tuple[str, str], dict]:
    replies = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            entry = json.loads(line)
            replies[(entry["system"], entry["user"])] = {
                "choices": [{"message": {"role": "assistant", "content": entry["text"]}}],
                "usage": {
                    "prompt_tokens": entry["input_tokens"],
                    "completion_tokens": entry["output_tokens"],
                },
            }
    return replies


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    server = ReplayServer(load_replies(args.fixtures), args.delay_ms / 1000.0)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
