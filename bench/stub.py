"""A local chat-completion endpoint for the `live_llm` workload.

The stub answers `POST /chat/completions` on 127.0.0.1 with a reply that is
a fixed function of the prompt, in the agreed two-line format, after a small
fixed delay.  A fixed, hash-chosen share of first prompts gets a malformed
reply so that the program's format-reminder retry runs; a prompt that carries
the reminder is always answered well.  The stub counts every request it
receives and every malformed reply it sends.

It speaks HTTP/1.1 with Nagle's algorithm off: with it on, a keep-alive
client stalls on delayed ACKs for ~40 ms per call, which would swamp the
transport cost the workload is there to measure.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REPLY_DELAY_S = 0.001
MALFORMED_ONE_IN = 8
PROBE_PROMPT = "Reply with the single word: ready"
REMINDER_MARK = "\n\nReminder: reply with exactly two lines"
_VALUATION_RE = re.compile(r"^\s+BS (\d+): (\d+(?:\.\d+)?)$")


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def malformed_first_reply(prompt: str) -> bool:
    """Whether the stub answers this first prompt with a malformed reply."""
    return _digest("malformed|" + prompt) % MALFORMED_ONE_IN == 0


def well_formed_reply(prompt: str) -> str:
    """Bid at the station with the highest valuation, at 60-100% of it."""
    values: dict[int, float] = {}
    in_valuations = False
    for line in prompt.splitlines():
        if line.startswith("- "):
            in_valuations = line.startswith("- Your valuations")
            continue
        match = _VALUATION_RE.match(line)
        if in_valuations and match:
            values[int(match.group(1))] = float(match.group(2))
    station = min(values, key=lambda s: (-values[s], s))
    share = 0.6 + 0.4 * (_digest("bid|" + prompt) % 1000) / 1000
    return (
        f"Selected BS and bid value: BS {station}, {values[station] * share:.2f}\n"
        f'Explanation: "highest valuation at BS {station}; bidding {share:.0%} of it"'
    )


class StubEndpoint:
    """Threaded HTTP stub; use as a context manager to start and stop it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.malformed = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length))
                body = json.dumps(
                    {"choices": [{"message": {"content": stub.answer(payload)}}]}
                ).encode("utf-8")
                time.sleep(REPLY_DELAY_S)
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: object) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = False
        self._thread = threading.Thread(target=self._server.serve_forever, name="stub")

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def answer(self, payload: dict) -> str:
        prompt = payload["messages"][0]["content"]
        malformed = (
            prompt != PROBE_PROMPT
            and REMINDER_MARK not in prompt
            and malformed_first_reply(prompt)
        )
        with self._lock:
            self.requests += 1
            self.malformed += malformed
        if prompt == PROBE_PROMPT:
            return "ready"
        if malformed:
            return "I would go for the strongest station and bid a fair price."
        return well_formed_reply(prompt.split(REMINDER_MARK)[0])

    def counts(self) -> tuple[int, int]:
        """(requests received, malformed replies sent) so far."""
        with self._lock:
            return self.requests, self.malformed

    def __enter__(self) -> "StubEndpoint":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()  # joins the handler threads
