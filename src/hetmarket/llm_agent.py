"""Language-model bidder: prompt/parse plumbing plus an offline stand-in.

The live path renders the round's market state into a deterministic prompt,
sends it to a chat-completion endpoint, and parses a one-line answer.  Any
transport or format failure is retried once and then silently degrades to the
greedy policy, so a flaky endpoint can never stall a simulation or produce an
unaffordable bid.  The offline stand-in is a scripted policy with the same
flavor of longer-horizon reasoning: it paces spending across the remaining
rounds and sits out rounds with weak expected surplus unless service
starvation forces its hand.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

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
    import http.client

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
    """Minimal JSON client for ``POST <base_url>/chat/completions``.

    The client keeps one connection alive across requests; ``close`` ends it.
    Every socket operation times out after ``timeout_ms``.  A client serves
    one thread at a time, so each of a run's live lanes has its own.
    """

    def __init__(self, config: LlmEndpointConfig):
        self.config = config
        self._conn: http.client.HTTPConnection | None = None
        self._path = ""

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            # imported here: a cold import or an offline run loads no HTTP stack
            import http.client
            from urllib.parse import urlsplit

            try:
                url = urlsplit(self.config.base_url.rstrip("/"))
            except ValueError as exc:  # such as an unclosed or invalid [host]
                raise LlmError(f"unsupported base_url: {exc}") from exc
            if url.scheme not in ("http", "https") or not url.netloc:
                raise LlmError(f"unsupported base_url {self.config.base_url!r}")
            https = url.scheme == "https"
            kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
            try:
                self._conn = kind(url.netloc, timeout=self.config.timeout_ms / 1000.0)
            except http.client.InvalidURL as exc:
                raise LlmError(f"unsupported base_url: {exc}") from exc
            self._path = url.path + "/chat/completions"
        return self._conn

    def close(self) -> None:
        """End the kept-alive connection; a later request opens a new one."""
        if self._conn is not None:
            self._conn.close()

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """Send one request and read the whole reply, so the connection stays usable.

        A kept-alive connection that the server has since closed fails on
        first use; only then is the request sent again, on a new connection.
        """
        import http.client

        conn = self._connection()
        while True:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._path, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            # RemoteDisconnected is a ConnectionResetError
            except (ConnectionResetError, BrokenPipeError) as exc:
                conn.close()
                if not reused:
                    raise LlmError(f"request failed: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise LlmError(f"request failed: {exc}") from exc

    def complete(self, prompt: str) -> str:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env_var, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
        }
        status, reply = self._post(json.dumps(body).encode("utf-8"), headers)
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
        prices = view.price_history.or_prior(view.reserve_price)
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
