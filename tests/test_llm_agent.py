from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hetmarket import llm_agent as llm_agent_module
from hetmarket.engine import SimulationRun, spawn_run_seeds
from hetmarket.llm_agent import (
    FORMAT_REMINDER,
    ChatCompletionClient,
    ForesightPolicy,
    LlmEndpointConfig,
    LlmError,
    ParseError,
    foresight_decide,
    llm_decide,
    parse_reply,
    render_prompt,
)
from hetmarket.netmodel import MBS, SBS
from hetmarket.scenario import scenario1
from hetmarket.strategy import (
    EmpiricalPriceModel,
    MarketObservation,
    StationView,
    greedy_decide,
)
from hetmarket.valuation import UrgencyState


def flat_urgency(value_per_mbps=1.0, losses=0):
    return UrgencyState(
        base_value_per_mbps=value_per_mbps, max_value_per_mbps=value_per_mbps,
        consecutive_losses=losses,
    )


def view(station_id=0, tier=MBS, capacity=4, reserve=2.0, rate=3.0, demand=1,
         history=()):
    return StationView(
        station_id=station_id, tier=tier, capacity=capacity,
        reserve_price=reserve, rate_mbps=rate, demand=demand,
        price_history=EmpiricalPriceModel(history),
    )


def observation(stations, budget=15.0, fee=0.1, urgency=None,
                round_index=1, rounds_total=40, competitors=None):
    """``competitors`` by station id; 2 at every station when not given."""
    stations = tuple(stations)
    if competitors is None:
        competitors = {v.station_id: 2 for v in stations}
    return MarketObservation(
        round_index=round_index, rounds_total=rounds_total, budget=budget,
        entrance_fee=fee, urgency=urgency or flat_urgency(),
        stations=stations, competitors=competitors,
    )


ENDPOINT = LlmEndpointConfig(base_url="http://endpoint.invalid", max_retries=1)


class ScriptedClient:
    """Stand-in endpoint that replays canned replies or raises canned errors."""

    def __init__(self, script):
        self.config = ENDPOINT
        self.script = list(script)
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

GOLDEN_PROMPT = (
    "Given the following network and economic context:\n"
    "- Your valuations for the available base stations (per sub-channel):\n"
    "  BS 0: 3.85\n"
    "  BS 2: 1.57\n"
    "- Your remaining budget: 14.80\n"
    "- Number of sub-channels required at each base station:\n"
    "  BS 0: 1\n"
    "  BS 2: 2\n"
    "- Entrance fee paid per auction entered: 0.10\n"
    "- Auction round 3 of 40 (37 rounds remain afterwards).\n"
    "- Clearing prices observed so far:\n"
    "  BS 0: last 3.00, mean 3.50 over 2 rounds\n"
    "  BS 2: no observations yet\n"
    "Please analyze and provide:\n"
    "1. The optimal base station to associate with, provided it has the highest expected utility.\n"
    "2. Recommended bid value for that base station.\n"
    "3. A brief explanation of your reasoning.\n"
    "\n"
    "Expected response format:\n"
    "Selected BS and bid value: BS <id>, <value>\n"
    'Explanation: "<short textual reasoning>"'
)


def golden_observation():
    urgency = UrgencyState(
        base_value_per_mbps=0.5, max_value_per_mbps=1.0,
        consecutive_losses=2, saturation_losses=5,
    )
    stations = (
        view(station_id=0, tier=MBS, reserve=2.0, rate=5.5, demand=1,
             history=[4.0, 3.0]),
        view(station_id=2, tier=SBS, reserve=0.2, rate=2.25, demand=2),
    )
    return observation(stations, budget=14.8, fee=0.1, urgency=urgency,
                       round_index=3, rounds_total=40, competitors={0: 12, 2: 12})


class TestPrompt:
    def test_golden_render(self):
        assert render_prompt(golden_observation()) == GOLDEN_PROMPT

    def test_render_is_deterministic(self):
        obs = golden_observation()
        assert render_prompt(obs) == render_prompt(obs)

    def test_render_tracks_budget(self):
        obs = golden_observation()
        other = observation(obs.stations, budget=9.25, fee=0.1,
                            urgency=obs.urgency, round_index=3)
        assert "9.25" in render_prompt(other)
        assert render_prompt(other) != render_prompt(obs)


class TestParse:
    def test_canonical_reply(self):
        reply = ('Selected BS and bid value: BS 2, 3.45\n'
                 'Explanation: "cheap capacity at the small cell"')
        parsed = parse_reply(reply, {0, 2})
        assert parsed.station_id == 2
        assert parsed.per_unit_bid == 3.45
        # the explanation line is read by no one and changes nothing
        assert parsed == parse_reply(reply.splitlines()[0], {0, 2})

    def test_tolerates_loose_punctuation(self):
        for text, expected in [
            ("selected bs and bid value: 1, 3", (1, 3.0)),
            ("Selected BS and bid value: BS 0: 2.5", (0, 2.5)),
            ("Selected BS and bid value: #2, $1.75", (2, 1.75)),
            ("SELECTED BS AND BID VALUE: BS 1; 0.9", (1, 0.9)),
        ]:
            parsed = parse_reply(text, {0, 1, 2})
            assert (parsed.station_id, parsed.per_unit_bid) == expected

    @pytest.mark.parametrize("text", [
        "**Selected BS and bid value:** BS 1, 2.50",
        "Selected BS and bid value: **BS 1, 2.50**",
        "*Selected BS and bid value*: BS 1, 2.50",
        "__Selected BS and bid value__: _BS 1, 2.50_",
    ])
    def test_reads_markdown_emphasis(self, text):
        parsed = parse_reply(text, {0, 1})
        assert (parsed.station_id, parsed.per_unit_bid) == (1, 2.5)

    @pytest.mark.parametrize("value, expected", [
        ("2.5e1", 25.0), ("2.5E+1", 25.0), ("1.175494351e-38", 1.175494351e-38),
    ])
    def test_reads_an_exponent(self, value, expected):
        parsed = parse_reply(f"Selected BS and bid value: BS 1, {value}", {0, 1})
        assert (parsed.station_id, parsed.per_unit_bid) == (1, expected)

    @given(bid=st.floats(min_value=0.0, allow_infinity=False))
    def test_reads_every_float_repr_exactly(self, bid):
        parsed = parse_reply(f"Selected BS and bid value: BS 1, {bid!r}", {0, 1})
        assert parsed.per_unit_bid == bid

    @pytest.mark.parametrize("text", [
        "Selected BS and bid value: BS 1, 1,000.50",
        "Selected BS and bid value: BS 1, 1.000,50",
        "Selected BS and bid value: BS 1, 1_000",
        # a shorter station id would leave "2" as a bid that runs on no further
        "Selected BS and bid value: BS 12, 1,000.50",
        "Selected BS and bid value: BS 1, 2.5e1.5",
    ])
    def test_refuses_a_bid_with_digit_separators(self, text):
        with pytest.raises(ParseError):
            parse_reply(text, {0, 1, 12})

    def test_digit_separators_take_the_reminder_retry(self):
        obs = observation([view(reserve=2.0, demand=1)], budget=15.0, fee=0.1)
        client = ScriptedClient(["Selected BS and bid value: BS 0, 1,000.50",
                                 "Selected BS and bid value: BS 0, 3.25"])
        decision = llm_decide(obs, client)
        assert (decision.station_id, decision.per_unit_bid) == (0, 3.25)
        assert not decision.fallback
        assert client.prompts[1].endswith(FORMAT_REMINDER)

    def test_rejects_missing_selection_line(self):
        with pytest.raises(ParseError):
            parse_reply("I think BS 0 looks best at around 2.0", {0})

    def test_rejects_unknown_station(self):
        with pytest.raises(ParseError):
            parse_reply("Selected BS and bid value: BS 9, 2.0", {0, 1})

    def test_rejects_negative_bid(self):
        with pytest.raises(ParseError):
            parse_reply("Selected BS and bid value: BS 0, -2.0", {0})

    def test_rejects_station_id_too_long_for_int(self):
        # int() refuses text of more than 4300 digits with a plain ValueError
        with pytest.raises(ParseError):
            parse_reply("Selected BS and bid value: BS " + "1" * 5000 + ", 2.0", {0, 1, 2})


class TestDecisionClamp:
    def test_over_budget_reply_is_clamped_down(self):
        obs = observation([view(reserve=2.0, demand=1)], budget=15.0, fee=0.1)
        client = ScriptedClient(["Selected BS and bid value: BS 0, 100"])
        decision = llm_decide(obs, client)
        assert decision.station_id == 0
        assert decision.per_unit_bid == pytest.approx(14.9)
        assert not decision.fallback

    def test_lowball_reply_is_lifted_to_reserve(self):
        obs = observation([view(reserve=2.0, demand=1)], budget=15.0, fee=0.1)
        client = ScriptedClient(["Selected BS and bid value: BS 0, 0.01"])
        decision = llm_decide(obs, client)
        assert decision.per_unit_bid == pytest.approx(2.0)

    def test_unaffordable_station_becomes_abstention(self):
        obs = observation([view(reserve=2.0, demand=2)], budget=1.0, fee=0.1)
        client = ScriptedClient(["Selected BS and bid value: BS 0, 0.4"])
        decision = llm_decide(obs, client)
        assert decision.abstained

    def test_no_stations_abstains_without_calling_endpoint(self):
        client = ScriptedClient([])
        decision = llm_decide(observation([]), client)
        assert decision.abstained
        assert client.prompts == []


class TestRetriesAndFallback:
    def test_malformed_then_valid_appends_reminder(self):
        obs = observation([view()])
        client = ScriptedClient([
            "no idea what to do",
            "Selected BS and bid value: BS 0, 2.5",
        ])
        decision = llm_decide(obs, client)
        assert decision.station_id == 0
        assert not decision.fallback
        assert len(client.prompts) == 2
        assert client.prompts[0] == render_prompt(obs)
        assert client.prompts[1].endswith(FORMAT_REMINDER)

    def test_transport_error_retries_same_prompt(self):
        obs = observation([view()])
        client = ScriptedClient([
            LlmError("connection reset"),
            "Selected BS and bid value: BS 0, 2.5",
        ])
        decision = llm_decide(obs, client)
        assert not decision.fallback
        assert client.prompts == [render_prompt(obs), render_prompt(obs)]

    def test_exhausted_retries_fall_back_to_greedy(self):
        obs = observation([view(history=[1.0, 1.5])])
        client = ScriptedClient(["garbage", "more garbage"])
        decision = llm_decide(obs, client)
        reference = greedy_decide(obs)
        assert decision.fallback
        assert decision.station_id == reference.station_id
        assert decision.per_unit_bid == reference.per_unit_bid

    def test_over_long_station_id_takes_the_reminder_then_falls_back(self):
        obs = observation([view(history=[1.0, 1.5])])
        reply = "Selected BS and bid value: BS " + "1" * 5000 + ", 2.0"
        client = ScriptedClient([reply, reply])
        decision = llm_decide(obs, client)
        reference = greedy_decide(obs)
        assert decision.fallback
        assert (decision.station_id, decision.per_unit_bid) == (
            reference.station_id, reference.per_unit_bid)
        assert client.prompts[1].endswith(FORMAT_REMINDER)

    def test_dead_endpoint_falls_back_to_greedy(self):
        obs = observation([view(history=[1.0, 1.5])])
        client = ScriptedClient([LlmError("down"), LlmError("still down")])
        decision = llm_decide(obs, client)
        assert decision.fallback
        assert decision.station_id == greedy_decide(obs).station_id

    @given(station=st.sampled_from([0, 1]), bid=st.floats(0.0, 500.0),
           budget=st.floats(0.5, 20.0))
    def test_any_reply_yields_a_feasible_decision(self, station, bid, budget):
        obs = observation(
            [view(station_id=0, reserve=2.0, demand=1),
             view(station_id=1, tier=SBS, reserve=0.2, rate=2.0, demand=2)],
            budget=budget, fee=0.1,
        )
        client = ScriptedClient([f"Selected BS and bid value: BS {station}, {bid}"])
        decision = llm_decide(obs, client)
        if decision.abstained:
            return
        chosen = next(v for v in obs.stations if v.station_id == decision.station_id)
        assert decision.per_unit_bid >= chosen.reserve_price
        spend = chosen.demand * decision.per_unit_bid + obs.entrance_fee
        assert spend <= obs.budget + 1e-9


class TestTransport:
    def test_unconfigured_endpoint_raises(self):
        client = ChatCompletionClient(LlmEndpointConfig())
        with pytest.raises(LlmError):
            client.complete("hello")


class TestForesight:
    def test_sits_out_thin_margins(self):
        # Surplus 0.1 against a participation bar of 0.5 * 15 / 40.
        station = view(reserve=0.5, rate=3.0, history=[2.9] * 4)
        decision = foresight_decide(observation([station]))
        assert decision.abstained

    def test_enters_and_paces_a_rich_round(self):
        station = view(reserve=0.5, rate=3.0, history=[1.0] * 4)
        decision = foresight_decide(observation([station], budget=15.0))
        assert decision.station_id == 0
        # Grid wants 0.8 but round 1 of 40 caps spending at 15 / 20.
        assert decision.per_unit_bid == pytest.approx(0.75)

    def test_pacing_cap_under_reserve_means_waiting(self):
        station = view(reserve=2.0, rate=4.0, history=[1.9] * 3)
        decision = foresight_decide(observation([station], budget=15.0))
        assert decision.abstained

    def test_starving_agent_chases_service_within_pace(self):
        pricey = view(station_id=0, tier=MBS, reserve=2.0, rate=5.0,
                      history=[1.9] * 3)
        reachable = view(station_id=1, tier=SBS, reserve=0.2, rate=2.0,
                         history=[0.5, 0.6])
        urgency = UrgencyState(base_value_per_mbps=0.5, max_value_per_mbps=1.0,
                               consecutive_losses=5)
        decision = foresight_decide(
            observation([pricey, reachable], budget=15.0, urgency=urgency)
        )
        assert decision.station_id == 1
        assert decision.per_unit_bid == pytest.approx(0.75)

    def test_starving_agent_still_skips_certain_losses(self):
        hopeless = view(reserve=0.5, rate=1.0, history=[5.0] * 6)
        urgency = UrgencyState(base_value_per_mbps=0.5, max_value_per_mbps=1.0,
                               consecutive_losses=5)
        decision = foresight_decide(observation([hopeless], budget=15.0,
                                                urgency=urgency, competitors={0: 6}))
        assert decision.abstained

    def test_scenario1_run_chases_service(self, monkeypatch):
        # scenario1 with T = 40 and B = 60 reaches the service-chasing branch
        # in real runs; at seed 5 the llm slot's stand-in (UE 0) takes it in
        # round 14 and bids the most winnable bid of the macro station
        base = scenario1()
        config = replace(base, episodes=40, seed=5,
                         population=replace(base.population, budget=60.0))
        chosen = {}
        most_winnable_bid = llm_agent_module._most_winnable_bid

        def spy(obs, pace_cap):
            chosen[obs.round_index] = most_winnable_bid(obs, pace_cap)
            return chosen[obs.round_index]

        monkeypatch.setattr(llm_agent_module, "_most_winnable_bid", spy)
        run = SimulationRun(config, 0, spawn_run_seeds(config.seed, 1)[0])
        logs = list(run.execute())
        record = logs[13].ues[0]
        assert (logs[13].round_index, record.strategy, record.station_id) == (14, "llm", 0)
        assert record.per_unit_bid == pytest.approx(4.42962962962963, rel=1e-12)
        _, top, chased = chosen[14]
        assert (chased.station_id, top) == (record.station_id, record.per_unit_bid)

    def test_deterministic(self):
        obs = observation([view(history=[2.0, 2.5])])
        assert foresight_decide(obs) == foresight_decide(obs)

    def test_policy_knobs_change_behaviour(self):
        station = view(reserve=0.5, rate=3.0, history=[2.9] * 4)
        eager = ForesightPolicy(threshold_fraction=0.0, pacing_fraction=0.5)
        decision = foresight_decide(observation([station]), policy=eager)
        assert not decision.abstained


@st.composite
def foresight_observations(draw):
    stations = []
    competitors = {}
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        history = draw(st.lists(st.floats(0.1, 8.0), min_size=0, max_size=10))
        stations.append(StationView(
            station_id=k, tier=MBS if k == 0 else SBS,
            capacity=draw(st.integers(1, 4)),
            reserve_price=draw(st.floats(0.0, 3.0)),
            rate_mbps=draw(st.floats(0.5, 10.0)),
            demand=draw(st.integers(1, 4)),
            price_history=EmpiricalPriceModel(history),
        ))
        competitors[k] = draw(st.integers(0, 8))
    urgency = UrgencyState(
        base_value_per_mbps=0.5, max_value_per_mbps=1.0,
        consecutive_losses=draw(st.integers(0, 7)),
    )
    return MarketObservation(
        round_index=draw(st.integers(1, 40)), rounds_total=40,
        budget=draw(st.floats(0.2, 20.0)), entrance_fee=0.1,
        urgency=urgency, stations=tuple(stations), competitors=competitors,
    )


@given(obs=foresight_observations())
def test_foresight_respects_budget_and_reserve(obs):
    decision = foresight_decide(obs)
    if decision.abstained:
        return
    chosen = next(v for v in obs.stations if v.station_id == decision.station_id)
    assert decision.per_unit_bid >= chosen.reserve_price
    spend = chosen.demand * decision.per_unit_bid + obs.entrance_fee
    assert spend <= obs.budget + 1e-9
