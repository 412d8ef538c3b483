"""Language-model bidder: prompt/parse plumbing plus an offline stand-in.

The live path renders the round's market state into a deterministic prompt,
sends it to a chat-completion endpoint over a small HTTP/1.1 client on the
standard library's ``socket`` and ``ssl``, and parses a one-line answer.  Any
transport or format failure is retried up to ``max_retries`` times (once by
default) and then silently degrades to the greedy policy, so a flaky endpoint
can never stall a simulation or produce an unaffordable bid.  The offline
stand-in is a scripted policy with the same flavor of longer-horizon
reasoning: it paces spending across the remaining rounds and sits out rounds
with weak expected surplus unless service starvation forces its hand.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, BinaryIO

from .strategy import (
    ABSTAIN,
    BidDecision,
    MarketObservation,
    StationView,
    greedy_decide,
    grid_argmax,
    grid_bounds,
    per_unit_budget_cap,
)
from .valuation import channel_valuation

if TYPE_CHECKING:
    import socket
    import ssl

FORMAT_REMINDER = (
    "Reminder: reply with exactly two lines in this format.\n"
    'Selected BS and bid value: BS <id>, <value>\n'
    'Explanation: "<short textual reasoning>"'
)


class LlmError(RuntimeError):
    """Transport or protocol failure talking to the endpoint."""


class ParseError(ValueError):
    """The endpoint replied, but not in the agreed format."""


@dataclass(frozen=True)
class LlmEndpointConfig:
    """Where and how to reach a chat-completion style endpoint.

    The API key is read from the named environment variable at request time
    and never stored in configuration files.
    """

    base_url: str = ""
    model_name: str = ""
    api_key_env_var: str = "LLM_API_KEY"
    timeout_ms: int = 10000
    max_retries: int = 1
    temperature: float = 0.0


class ChatCompletionClient:
    """Minimal HTTP/1.1 JSON client for ``POST <base_url>/chat/completions``.

    The client keeps one connection, and one buffered reader on it, alive
    across requests; ``close`` ends both.  Each request goes out in a single
    write.  A reply's body is read by ``Content-Length``, by chunked transfer
    coding, or up to the server's close (HTTP/1.0, or neither header); interim
    ``1xx`` replies are skipped, and a reply that says ``Connection: close``
    ends the connection.  ``https`` is verified by the default TLS context,
    which honours ``SSL_CERT_FILE``.  Every socket operation times out after
    ``timeout_ms``.  A client serves one thread at a time, so each of a run's
    live lanes has its own.
    """

    def __init__(self, config: LlmEndpointConfig):
        self.config = config
        # (host, port, TLS context or None), read from base_url at the first connection
        self._target: tuple[str, int, ssl.SSLContext | None] | None = None
        self._head = b""
        self._sock: socket.socket | None = None
        self._reader: BinaryIO | None = None

    def _parse_base_url(self) -> tuple[str, int, ssl.SSLContext | None]:
        # imported here: a cold import or an offline run loads no network stack
        import ssl
        from urllib.parse import urlsplit

        try:
            url = urlsplit(self.config.base_url.rstrip("/"))
            port = url.port
        except ValueError as exc:  # such as an unclosed [host] or a port out of range
            raise LlmError(f"unsupported base_url: {exc}") from exc
        path = url.path + "/chat/completions"
        # userinfo is refused, and so is a space, a control or a non-ASCII
        # character in the host or the path (an IDN host goes in its xn-- form)
        if url.scheme not in ("http", "https") or not url.hostname or "@" in url.netloc \
                or re.search(r"[^\x21-\x7e]", url.netloc + path):
            raise LlmError(f"unsupported base_url {self.config.base_url!r}")
        self._head = (
            f"POST {path} HTTP/1.1\r\nHost: {url.netloc}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\n"
        ).encode("ascii")
        https = url.scheme == "https"
        tls = ssl.create_default_context() if https else None
        return url.hostname, (443 if https else 80) if port is None else port, tls

    def _connect(self) -> None:
        import socket

        if self._target is None:
            self._target = self._parse_base_url()
        host, port, tls = self._target
        self._sock = socket.create_connection((host, port), self.config.timeout_ms / 1000.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tls is not None:
            self._sock = tls.wrap_socket(self._sock, server_hostname=host)
        self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        """End the kept-alive connection; a later request opens a new one."""
        if self._sock is not None:
            if self._reader is not None:
                self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _post(self, request: bytes) -> tuple[int, bytes]:
        """Send one request and read the whole reply, so the connection stays usable.

        A kept-alive connection that the server has since closed fails on
        first use; only then is the request sent again, on a new connection.
        """
        while True:
            reused = self._sock is not None
            try:
                if not reused:
                    self._connect()
                self._sock.sendall(self._head + request)
                return self._read_reply()
            except (OSError, ValueError) as exc:
                self.close()
                if not reused or not isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                    raise LlmError(f"request failed: {exc}") from exc

    def _line(self) -> bytes:
        # a reply head's limits are http.client's: lines of 65536 bytes, 100 headers
        line = self._reader.readline(65537)
        if len(line) > 65536:
            raise ValueError("reply line longer than 65536 bytes")
        return line

    def _exactly(self, size: int) -> bytes:
        data = self._reader.read(size)
        if len(data) != size:
            raise ValueError(f"reply cut off after {len(data)} of {size} bytes")
        return data

    def _read_reply(self) -> tuple[int, bytes]:
        """The next final reply's status and body; ends the connection if the reply does."""
        status = 100
        while 100 <= status < 200:  # an interim reply, such as 100 Continue
            line = self._line()
            if not line:
                raise ConnectionResetError("the server closed the connection before replying")
            parts = line.split(None, 2)
            if len(parts) < 2 or not parts[0].startswith(b"HTTP/") \
                    or len(parts[1]) != 3 or not parts[1].isdigit():
                raise ValueError(f"bad status line {line[:80]!r}")
            status = int(parts[1])
            headers = {}
            for _ in range(101):
                line = self._line()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise ValueError("reply head cut off")
                name, _, value = line.partition(b":")
                headers[name.strip().lower()] = value.strip().lower()
            else:
                raise ValueError("more than 100 reply headers")
        length = headers.get(b"content-length")
        if b"chunked" in headers.get(b"transfer-encoding", b""):
            chunks = []
            while size := int(self._line().split(b";", 1)[0], 16):
                if size < 0:
                    raise ValueError(f"negative chunk size {size}")
                chunks.append(self._exactly(size + 2)[:size])
            while self._line() not in (b"\r\n", b"\n", b""):  # the trailer
                pass
            body = b"".join(chunks)
        elif status in (204, 304):
            body = b""
        elif length is not None:
            if not length.isdigit():
                raise ValueError(f"bad Content-Length {length[:80]!r}")
            body = self._exactly(int(length))
        else:  # the body ends where the server closes the connection
            body = self._reader.read()
            self.close()
        if parts[0] == b"HTTP/1.0" or b"close" in headers.get(b"connection", b""):
            self.close()
        return status, body

    def complete(self, prompt: str) -> str:
        name = self.config.api_key_env_var
        api_key = os.environ.get(name, "")
        # only tab, printable ASCII and the rest of Latin-1
        if re.search(r"[^\t\x20-\x7e\x80-\xff]", api_key):
            raise LlmError(f"{name} holds a character a header cannot carry")
        auth = f"Authorization: Bearer {api_key}\r\n".encode("latin-1") if api_key else b""
        body = json.dumps({
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
        }).encode("utf-8")
        status, reply = self._post(b"%sContent-Length: %d\r\n\r\n%s" % (auth, len(body), body))
        if status != 200:
            raise LlmError(f"endpoint returned HTTP {status}")
        try:
            content = json.loads(reply)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LlmError(f"malformed completion payload: {exc}") from exc
        # null for a refusal or a tool call
        if not isinstance(content, str):
            raise LlmError(f"malformed completion payload: content is {type(content).__name__}")
        return content


def render_prompt(observation: MarketObservation) -> str:
    """Deterministic prompt for one user's round; all numbers at 2 decimals."""
    views = sorted(observation.stations, key=lambda v: v.station_id)
    lines = ["Given the following network and economic context:"]
    lines.append("- Your valuations for the available base stations (per sub-channel):")
    for view in views:
        value = channel_valuation(observation.urgency, view.rate_mbps)
        lines.append(f"  BS {view.station_id}: {value:.2f}")
    lines.append(f"- Your remaining budget: {observation.budget:.2f}")
    lines.append("- Number of sub-channels required at each base station:")
    for view in views:
        lines.append(f"  BS {view.station_id}: {view.demand}")
    lines.append(f"- Entrance fee paid per auction entered: {observation.entrance_fee:.2f}")
    lines.append(
        f"- Auction round {observation.round_index} of {observation.rounds_total}"
        f" ({observation.rounds_total - observation.round_index} rounds remain afterwards)."
    )
    lines.append("- Clearing prices observed so far:")
    for view in views:
        history = view.price_history
        if len(history) == 0:
            lines.append(f"  BS {view.station_id}: no observations yet")
        else:
            lines.append(
                f"  BS {view.station_id}: last {history.last:.2f},"
                f" mean {history.mean():.2f} over {len(history)} rounds"
            )
    lines.append("Please analyze and provide:")
    lines.append("1. The optimal base station to associate with, provided it has the highest expected utility.")
    lines.append("2. Recommended bid value for that base station.")
    lines.append("3. A brief explanation of your reasoning.")
    lines.append("")
    lines.append("Expected response format:")
    lines.append("Selected BS and bid value: BS <id>, <value>")
    lines.append('Explanation: "<short textual reasoning>"')
    return "\n".join(lines)


# markdown emphasis may wrap the label or the answer; a number that runs on
# past the match (a digit separator such as "1,000.50") is refused, not cut
_SELECTION_RE = re.compile(
    r"selected\s+bs\s+and\s+bid\s+value[\s*_]*:[\s*_]*(?:bs\s*)?#?(\d+)(?!\d)\s*[,:;-]?\s*\$?"
    r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)(?![.,_]?\d|e[-+]?\d)",
    re.IGNORECASE,
)


def parse_reply(text: str, station_ids: set[int]) -> BidDecision:
    """The selection line as a decision, not yet clamped; loose about punctuation
    and emphasis, strict about the number."""
    match = _SELECTION_RE.search(text)
    if match is None:
        raise ParseError("missing 'Selected BS and bid value' line")
    try:
        station_id = int(match.group(1))
    except ValueError as exc:
        # more digits than int() converts from text (4300 since Python 3.10.7)
        raise ParseError(f"station id of {len(match.group(1))} digits") from exc
    bid = float(match.group(2))
    if bid < 0:
        raise ParseError(f"negative bid {bid}")
    if station_id not in station_ids:
        raise ParseError(f"unknown station id {station_id}")
    return BidDecision(station_id=station_id, per_unit_bid=bid)


def _clamped_decision(parsed: BidDecision, observation: MarketObservation) -> BidDecision:
    """Force the parsed reply into budget feasibility, abstaining if impossible."""
    view = next(v for v in observation.stations if v.station_id == parsed.station_id)
    cap = per_unit_budget_cap(observation.budget, observation.entrance_fee, view.demand)
    if cap < view.reserve_price:
        return ABSTAIN
    bid = max(view.reserve_price, min(parsed.per_unit_bid, cap))
    return BidDecision(station_id=view.station_id, per_unit_bid=bid)


def llm_decide(observation: MarketObservation, client: ChatCompletionClient) -> BidDecision:
    """Ask the client's endpoint for a decision; degrade to greedy after failed retries."""
    if not observation.stations:
        return ABSTAIN
    station_ids = {v.station_id for v in observation.stations}
    base_prompt = render_prompt(observation)
    prompt = base_prompt
    for _ in range(client.config.max_retries + 1):
        try:
            text = client.complete(prompt)
        except LlmError:
            continue
        try:
            parsed = parse_reply(text, station_ids)
        except ParseError:
            prompt = base_prompt + "\n\n" + FORMAT_REMINDER
            continue
        return _clamped_decision(parsed, observation)
    decision = greedy_decide(observation)
    return replace(decision, fallback=True)


@dataclass(frozen=True)
class ForesightPolicy:
    """Knobs for the offline stand-in.

    ``threshold_fraction`` scales the per-round budget share a round's best
    expected utility must beat to be worth entering; ``pacing_fraction`` is
    the share of remaining rounds the agent expects to actually bid in, which
    sets the per-bid spending cap.
    """

    threshold_fraction: float = 0.5
    pacing_fraction: float = 0.5


def _most_winnable_bid(
    observation: MarketObservation, pace_cap: float
) -> tuple[float, float, StationView] | None:
    """Highest-win-probability affordable bid within the pacing envelope.

    Considers the top of each station's grid capped by pacing, skipping bids
    the price history marks as certain losses.  Ties prefer the cheaper bid,
    then the lower station id.
    """
    best = None
    best_key = None
    # station ids are distinct, so no two keys tie and the best does not
    # depend on the order of the stations
    for view in observation.stations:
        prices = view.price_history
        budget_cap = per_unit_budget_cap(observation.budget, observation.entrance_fee, view.demand)
        cap = min(budget_cap, pace_cap)
        value = channel_valuation(observation.urgency, view.rate_mbps)
        bounds = grid_bounds(value, prices.last, view.reserve_price, cap)
        if bounds is None:
            continue
        top = bounds[1]
        prob = prices.win_probability(top, observation.competitors[view.station_id], view.capacity)
        if prob <= 0.0:
            continue
        key = (prob, -top, -view.station_id)
        if best_key is None or key > best_key:
            best_key = key
            best = (prob, top, view)
    return best


def foresight_decide(
    observation: MarketObservation, policy: ForesightPolicy = ForesightPolicy()
) -> BidDecision:
    """Deterministic budget-pacing policy used when no endpoint is available.

    Ordinarily enters a round only when the best expected utility clears a
    proportional share of the remaining budget, and never bids more per unit
    than the budget spread over the rounds it still expects to enter.  Once
    the loss streak saturates, the surplus threshold is dropped and service
    itself becomes the goal: the agent switches to the most winnable bid the
    pacing envelope allows, still skipping rounds its price model calls
    hopeless rather than burning entrance fees on them.
    """
    best = grid_argmax(observation)
    if best is None:
        return ABSTAIN
    utility, bid, view = best
    remaining = max(1, observation.rounds_remaining)
    pace_cap = observation.budget / max(1.0, policy.pacing_fraction * remaining)
    starving = (
        observation.urgency.consecutive_losses >= observation.urgency.saturation_losses
    )
    if not starving and (
        utility <= 0.0
        or utility < policy.threshold_fraction * observation.budget / remaining
    ):
        return ABSTAIN
    if utility > 0.0:
        paced = min(bid, pace_cap)
        if paced >= view.reserve_price:
            return BidDecision(station_id=view.station_id, per_unit_bid=paced)
        if not starving:
            return ABSTAIN
    # saturated loss streak with no profitable entry: chase service instead
    choice = _most_winnable_bid(observation, pace_cap)
    if choice is None:
        return ABSTAIN
    _, top, view = choice
    return BidDecision(station_id=view.station_id, per_unit_bid=top)
