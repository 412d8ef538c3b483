from __future__ import annotations

import math
import socket

import pytest

from hetmarket import engine, scenario
from hetmarket.engine import (
    FORESIGHT,
    GREEDY,
    LLM,
    MYOPIC,
    COMPETITORS_ORACLE,
    COMPETITORS_UNIFORM,
    AbstentionRecord,
    AuctionConfig,
    ConfigurationError,
    PopulationConfig,
    RoundLog,
    SimulationConfig,
    SimulationRun,
    TopologyConfig,
    UeRoundRecord,
    UrgencyConfig,
    compute_metrics,
    run_simulation,
    spawn_run_seeds,
)
from hetmarket.llm_agent import ChatCompletionClient, LlmEndpointConfig, foresight_decide
from hetmarket.strategy import ABSTAIN, MarketObservation, greedy_decide
from hetmarket.valuation import UrgencyState

from oracles import (
    PlayedRun,
    metrics_from_logs,
    myopic_reference,
    play,
    record_outcome,
    urgency_factor,
)


def config_with(counts, num_ues=None, **overrides):
    population = PopulationConfig(
        num_ues=num_ues if num_ues is not None else sum(counts.values()),
        strategy_counts=counts,
        **overrides.pop("population", {}),
    )
    return SimulationConfig(population=population, **overrides)


def acts_as(state: UrgencyState, expected: UrgencyState) -> bool:
    """Same parameters, value factor and foresight starving test."""
    return (
        (state.base_value_per_mbps, state.max_value_per_mbps, state.saturation_losses)
        == (expected.base_value_per_mbps, expected.max_value_per_mbps,
            expected.saturation_losses)
        and state.value_per_mbps == expected.value_per_mbps
        and (state.consecutive_losses >= state.saturation_losses)
        == (expected.consecutive_losses >= expected.saturation_losses)
    )


def rebuild_run(config, result: PlayedRun) -> SimulationRun:
    """Reconstruct the seeded runtime to recover positions, rates, demands."""
    return SimulationRun(config, result.run_index, result.seed)


class TestSingleUserClosedForm:
    def setup_method(self):
        self.config = SimulationConfig(
            topology=TopologyConfig(num_small_cells=0),
            population=PopulationConfig(
                num_ues=1, qos_classes_mbps=(2.0,),
                strategy_counts={MYOPIC: 1},
            ),
            episodes=3,
            seed=5,
        )

    def test_uncontested_truthful_rounds(self):
        report, (result,) = play(self.config)
        run = rebuild_run(self.config, result)
        rate = run.ues[0].by_station[0].rate_mbps
        assert run.ues[0].by_station[0].demand == 1

        assert len(result.rounds) == 3
        budget = 15.0
        for log in result.rounds:
            rec = log.ues[0]
            assert not rec.abstained
            assert rec.station_id == 0
            # Truthful up to the per-round budget cap; no rival, floor binds.
            assert rec.per_unit_bid == pytest.approx(min(0.5 * rate, budget - 0.1))
            assert rec.channels_won == 1
            assert rec.per_unit_payment == 2.0
            assert rec.gross_utility == pytest.approx(0.5 * rate - 2.0)
            budget = budget - 0.1 - 2.0
            assert rec.budget_after == pytest.approx(budget)
            assert rec.losses_after == 0
            station = log.stations[0]
            assert station.clearing_price == 2.0
            assert station.revenue == pytest.approx(2.1)

        metrics = report.per_ue[0]
        assert metrics.channels_won == 3
        assert metrics.bids_placed == 3
        assert metrics.wins == 3
        assert metrics.bid_precision == 1.0
        assert metrics.fees_paid == pytest.approx(0.3)
        assert metrics.payments_paid == pytest.approx(6.0)
        assert metrics.gross_utility == pytest.approx(3 * (0.5 * rate - 2.0))
        assert metrics.net_utility == pytest.approx(metrics.gross_utility - 0.3)


class TestRoster:
    def test_canonical_order_puts_llm_first(self):
        population = PopulationConfig(
            num_ues=5,
            strategy_counts={MYOPIC: 2, GREEDY: 1, FORESIGHT: 1, LLM: 1},
        )
        assert population.roster() == [LLM, FORESIGHT, GREEDY, MYOPIC, MYOPIC]

    def test_report_roster_matches(self):
        config = config_with({LLM: 1, GREEDY: 1, MYOPIC: 2}, episodes=2)
        assert [(m.ue_id, m.strategy) for m in run_simulation(config).per_ue] == [
            (0, LLM), (1, GREEDY), (2, MYOPIC), (3, MYOPIC)
        ]


class TestDeterminism:
    def test_same_config_same_report(self):
        config = config_with({GREEDY: 3, MYOPIC: 5}, episodes=6, seed=17)
        assert play(config) == play(config)

    def test_different_seeds_move_users(self):
        base = config_with({MYOPIC: 4}, episodes=1, seed=1)
        other = config_with({MYOPIC: 4}, episodes=1, seed=2)
        run_a = rebuild_run(base, play(base)[1][0])
        run_b = rebuild_run(other, play(other)[1][0])
        positions_a = [r.ue.position for r in run_a.ues]
        positions_b = [r.ue.position for r in run_b.ues]
        assert positions_a != positions_b

    # greedy and foresight UEs read each station's price model and its memo
    @pytest.mark.parametrize(
        "counts, episodes",
        [({MYOPIC: 6}, 4), ({GREEDY: 4, FORESIGHT: 1, MYOPIC: 1}, 12)],
        ids=["myopic", "price-readers"],
    )
    def test_parallel_jobs_match_serial(self, counts, episodes):
        serial = config_with(counts, episodes=episodes, runs=3, seed=9, jobs=1)
        parallel = config_with(counts, episodes=episodes, runs=3, seed=9, jobs=3)
        # every round record, not only the per-user rows
        report, runs = play(serial)
        assert (report, runs) == play(parallel)
        assert [len(run.rounds) for run in runs] == [episodes] * 3
        if GREEDY in counts:
            assert report.per_strategy[GREEDY].avg_bids_placed > 0

    def test_child_seeds_are_stable_and_distinct(self):
        seeds = spawn_run_seeds(123, 5)
        assert seeds == spawn_run_seeds(123, 5)
        assert len(set(seeds)) == 5
        assert all(0 <= seed < 2**64 for seed in seeds)
        assert seeds != spawn_run_seeds(124, 5)
        # run i's seed does not depend on how many runs follow it
        assert spawn_run_seeds(123, 3) == seeds[:3]


def assert_round_conserves_money(log: RoundLog) -> None:
    """Every debit on the user side appears as a station credit, exactly.

    Transactions are compared term by term: winner payment maps must agree
    with the user records, fee totals must replay to the stored value, and
    each station's revenue must decompose into those pieces.
    """
    for st in log.stations:
        winners = {
            rec.ue_id: (rec.channels_won, rec.per_unit_payment)
            for rec in log.ues
            if rec.station_id == st.station_id and rec.channels_won > 0
        }
        assert st.allocations == {u: won for u, (won, _) in winners.items()}
        assert st.per_unit_payments == {u: pay for u, (_, pay) in winners.items()}
        fees = 0.0
        for rec in log.ues:
            if not rec.abstained and rec.station_id == st.station_id:
                fees += rec.fee_paid
        assert st.fees_collected == fees
        sold = math.fsum(
            won * st.per_unit_payments[uid] for uid, won in st.allocations.items()
        )
        assert st.revenue == fees + sold
    served_stations = {st.station_id for st in log.stations}
    for rec in log.ues:
        if not rec.abstained:
            assert rec.station_id in served_stations


class TestAccounting:
    def test_money_conservation_is_exact(self):
        config = config_with(
            {LLM: 1, FORESIGHT: 1, GREEDY: 2, MYOPIC: 8}, episodes=12, seed=3
        )
        _, (result,) = play(config)
        assert result.rounds
        for log in result.rounds:
            assert_round_conserves_money(log)

    def test_budget_trajectories_and_floor(self):
        config = config_with({GREEDY: 4, MYOPIC: 8}, episodes=10, seed=11)
        _, (result,) = play(config)
        budgets = {uid: 15.0 for uid in range(config.population.num_ues)}
        for log in result.rounds:
            for rec in log.ues:
                expected = budgets[rec.ue_id]
                if not rec.abstained:
                    expected = expected - rec.fee_paid
                    expected = expected - rec.channels_won * rec.per_unit_payment
                assert rec.budget_after == expected
                assert rec.budget_after >= 0.0
                budgets[rec.ue_id] = rec.budget_after

    @pytest.mark.parametrize(
        "config",
        [config_with({LLM: 1, GREEDY: 1, MYOPIC: 38}, episodes=40, runs=4, seed=seed)
         for seed in range(1, 6)]
        + [config_with({GREEDY: 100, MYOPIC: 100}, population={"budget": 1e6},
                       topology=TopologyConfig(channels_per_station=16),
                       episodes=10, seed=seed)
           for seed in range(1, 4)],
        ids=[f"scenario1-seed{s}" for s in range(1, 6)]
        + [f"crowd-seed{s}" for s in range(1, 4)],
    )
    def test_no_payment_above_its_bid_and_no_budget_below_zero(self, config):
        # exact comparisons: one ulp above the bid or below zero is a fault
        for result in play(config)[1]:
            for log in result.rounds:
                for rec in log.ues:
                    assert rec.budget_after >= 0.0
                    if rec.channels_won > 0:
                        assert rec.per_unit_payment <= rec.per_unit_bid

    def test_requests_are_sized_to_qos_demand(self):
        config = config_with(
            {FORESIGHT: 1, GREEDY: 3, MYOPIC: 8}, episodes=8, seed=7
        )
        _, (result,) = play(config)
        run = rebuild_run(config, result)
        runtimes = {r.ue.id: r for r in run.ues}
        for log in result.rounds:
            for rec in log.ues:
                if rec.abstained:
                    continue
                runtime = runtimes[rec.ue_id]
                assert rec.station_id in runtime.by_station
                view = runtime.by_station[rec.station_id]
                assert rec.quantity == view.demand
                delivered = rec.quantity * view.rate_mbps * 1e6
                assert delivered >= runtime.ue.qos_rate_bps * (1 - 1e-12)
                assert rec.channels_won <= rec.quantity


class TestLifecycle:
    def test_exhausted_market_stops_before_round_one(self):
        config = config_with(
            {MYOPIC: 2}, episodes=10,
            population={"budget": 0.25},
        )
        _, (result,) = play(config)
        assert result.rounds == ()

    def test_spent_down_market_stops_early(self):
        config = SimulationConfig(
            topology=TopologyConfig(num_small_cells=0),
            population=PopulationConfig(
                num_ues=1, budget=4.5, qos_classes_mbps=(2.0,),
                strategy_counts={MYOPIC: 1},
            ),
            episodes=10,
            seed=5,
        )
        _, (result,) = play(config)
        # Two wins at the 2.0 reserve plus fees leave less than fee + reserve.
        assert len(result.rounds) == 2
        final = result.rounds[-1].ues[0].budget_after
        assert final < 2.1

    def test_unaffordable_fee_forces_abstention(self):
        config = config_with({MYOPIC: 2}, episodes=1)
        run = SimulationRun(config, 0, spawn_run_seeds(config.seed, 1)[0])
        run.ues[0].budget = 0.05
        log = run.run_round(1)
        rec = log.ues[0]
        assert rec.abstained
        assert rec.fee_paid == 0.0
        assert rec.budget_after == 0.05

    def test_price_models_start_from_each_reserve(self):
        # round 1's greedy decision reads the reserve prior; each clearing
        # price broadcast after it replaces the prior
        config = config_with({GREEDY: 6}, episodes=1)
        run = SimulationRun(config, 0, spawn_run_seeds(config.seed, 1)[0])
        for bs in run.stations:
            model, reserve = run.price_models[bs.id], run.reserves[bs.id]
            assert (len(model), model.last, model.mean()) == (0, reserve, reserve)
        log = run.run_round(1)
        for station in log.stations:
            model = run.price_models[station.station_id]
            assert (len(model), model.mean()) == (1, station.clearing_price)
    def test_streaks_follow_outcomes(self):
        config = config_with({GREEDY: 2, MYOPIC: 10}, episodes=10, seed=21)
        _, (result,) = play(config)
        losses = {uid: 0 for uid in range(config.population.num_ues)}
        for log in result.rounds:
            for rec in log.ues:
                if rec.channels_won > 0:
                    assert rec.losses_after == 0
                else:
                    assert rec.losses_after == losses[rec.ue_id] + 1
                losses[rec.ue_id] = rec.losses_after

    def test_value_factor_reflects_entering_streak(self):
        config = config_with({MYOPIC: 8}, episodes=8, seed=13)
        _, (result,) = play(config)
        losses = {uid: 0 for uid in range(config.population.num_ues)}
        for log in result.rounds:
            for rec in log.ues:
                state = UrgencyState(
                    base_value_per_mbps=0.5, max_value_per_mbps=1.0,
                    consecutive_losses=losses[rec.ue_id], saturation_losses=5,
                )
                assert rec.value_factor == urgency_factor(state)
                losses[rec.ue_id] = rec.losses_after

    def test_urgency_after_n_losses_acts_as_the_state_with_n_losses(self):
        # a fee above every budget: each UE abstains, so loses, every round
        config = config_with(
            {MYOPIC: 3, GREEDY: 2}, episodes=9,
            population={"budget": 0.5, "qos_classes_mbps": (2.0, 4.0)},
            auction=AuctionConfig(entrance_fee=1.0),
            urgency=UrgencyConfig(base_value_per_mbps=(0.5, 0.6),
                                  max_value_per_mbps=(1.0, 1.2),
                                  saturation_losses=(3, 4)),
        )
        run = SimulationRun(config, 0, 21)
        classes = [(2.0, 4.0).index(r.ue.qos_rate_bps / 1e6) for r in run.ues]
        assert set(classes) == {0, 1}
        for n in range(1, 10):
            run.run_round(n)
            for r, k in zip(run.ues, classes):
                assert r.losses == n
                assert acts_as(r.urgency, UrgencyState(
                    base_value_per_mbps=(0.5, 0.6)[k],
                    max_value_per_mbps=(1.0, 1.2)[k],
                    consecutive_losses=n,
                    saturation_losses=(3, 4)[k],
                ))
                # both classes reach their ceiling at their saturation
                assert r.urgency.consecutive_losses == min(n, (3, 4)[k])

    def test_shared_streak_states_replay_record_outcome(self):
        config = config_with({GREEDY: 6, FORESIGHT: 4, MYOPIC: 20}, episodes=25, seed=8)
        run = SimulationRun(config, 0, 31)
        expected = {r.ue.id: r.urgency for r in run.ues}
        outcomes = set()
        for t in range(1, 26):
            for rec in run.run_round(t).ues:
                won = rec.channels_won > 0
                outcomes.add(won)
                expected[rec.ue_id] = record_outcome(expected[rec.ue_id], won)
                assert rec.losses_after == expected[rec.ue_id].consecutive_losses
            for r in run.ues:
                assert r.losses == expected[r.ue.id].consecutive_losses
                assert acts_as(r.urgency, expected[r.ue.id])
                assert r.urgency.value_per_mbps == urgency_factor(r.urgency)
        assert outcomes == {True, False}

    def test_urgency_chains_stay_bounded_over_a_long_run(self):
        # Some UEs lose round after round for the whole run; their streaks
        # grow with it, but each class keeps a state per streak only up to
        # the first saturated one at the ceiling.
        config = SimulationConfig(episodes=2000, seed=1)
        run = SimulationRun(config, 0, spawn_run_seeds(config.seed, 1)[0])
        longest = 0
        for log in run.execute():
            longest = max(longest, *(rec.losses_after for rec in log.ues))
        assert run.rounds_played == 2000
        assert longest > 1000
        saturation = config.urgency.saturation_losses[0]
        for chain in run._chains:
            assert saturation < len(chain) <= saturation + 2
            assert [s.consecutive_losses for s in chain] == list(range(len(chain)))
            stops = [s.consecutive_losses >= saturation
                     and s.value_per_mbps == s.max_value_per_mbps for s in chain]
            assert stops[-1] and not any(stops[:-1])


class TestCompetitorEstimates:
    def test_uniform_mode_is_static(self):
        config = config_with({MYOPIC: 6}, episodes=2)
        run = SimulationRun(config, 0, spawn_run_seeds(config.seed, 1)[0])
        obs = run.observation_for(run.ues[0], 1)
        for view in obs.stations:
            # 6 users over 3 stations leaves one rival after ourselves.
            assert obs.competitors[view.station_id] == 1
        run.run_round(1)
        obs = run.observation_for(run.ues[0], 2)
        for view in obs.stations:
            assert obs.competitors[view.station_id] == 1

    @pytest.mark.parametrize("mode", [COMPETITORS_UNIFORM, COMPETITORS_ORACLE])
    def test_views_are_built_once_per_run(self, monkeypatch, mode):
        config = config_with(
            {MYOPIC: 6, GREEDY: 3, FORESIGHT: 3}, episodes=4,
            auction=AuctionConfig(competitor_mode=mode),
        )
        run = SimulationRun(config, 0, spawn_run_seeds(config.seed, 1)[0])
        first = {r.ue.id: run.observation_for(r, 1).stations for r in run.ues}

        def no_views(*args, **kwargs):
            raise AssertionError("a StationView was built after the run was set up")

        monkeypatch.setattr(engine, "StationView", no_views)
        for t in range(1, 5):
            run.run_round(t)
        for r in run.ues:
            views = run.observation_for(r, 5).stations
            assert views is first[r.ue.id]
            assert all(v.price_history is run.price_models[v.station_id] for v in views)
            assert all(len(v.price_history) == 4 for v in views)

    def test_oracle_mode_follows_last_round(self):
        config = config_with(
            {MYOPIC: 6}, episodes=2,
            auction=AuctionConfig(competitor_mode=COMPETITORS_ORACLE),
        )
        run = SimulationRun(config, 0, spawn_run_seeds(config.seed, 1)[0])
        log = run.run_round(1)
        requested = {st.station_id: 0 for st in log.stations}
        for rec in log.ues:
            if not rec.abstained:
                requested[rec.station_id] += 1
        obs = run.observation_for(run.ues[0], 2)
        for view in obs.stations:
            assert obs.competitors[view.station_id] == max(0, requested[view.station_id] - 1)


def step_against_myopic_reference(run: SimulationRun) -> list[dict[int, tuple]]:
    """Play every round of ``run``, checking each myopic UE's record against
    ``myopic_reference`` of its observation taken just before the round.

    Returns each round's reference decisions by UE id.
    """
    rounds = []
    for t in range(1, run.config.episodes + 1):
        expected = {
            r.ue.id: myopic_reference(run.observation_for(r, t))
            for r in run.ues if r.strategy == MYOPIC
        }
        for rec in run.run_round(t).ues:
            if rec.ue_id in expected:
                station, bid = expected[rec.ue_id]
                assert (rec.station_id, rec.per_unit_bid.hex()) == (station, bid.hex())
                assert rec.abstained == (station is None)
        rounds.append(expected)
    return rounds


def stations_of(rounds: list[dict[int, tuple]]) -> set[int | None]:
    return {station for expected in rounds for station, _ in expected.values()}


class TestMyopicReference:
    """The engine decides a myopic UE from its kept fastest view; every such
    decision equals the reference read from the UE's whole observation."""

    MIXED = {MYOPIC: 24, GREEDY: 4, FORESIGHT: 2}

    @pytest.mark.parametrize("mode", [COMPETITORS_UNIFORM, COMPETITORS_ORACLE])
    def test_competitor_modes(self, mode):
        config = config_with(self.MIXED, episodes=30, auction=AuctionConfig(competitor_mode=mode))
        stations = stations_of(step_against_myopic_reference(SimulationRun(config, 0, 11)))
        assert None in stations and len(stations) > 1

    def test_macro_station_only(self):
        config = config_with(
            self.MIXED, episodes=30, topology=TopologyConfig(num_small_cells=0),
            population={"budget": 40.0},
        )
        rounds = step_against_myopic_reference(SimulationRun(config, 0, 12))
        assert stations_of(rounds) == {None, 0}

    def test_class_some_stations_cannot_serve(self):
        config = config_with(
            self.MIXED, episodes=30, topology=TopologyConfig(num_small_cells=4),
            population={"qos_classes_mbps": (0.5, 20.0)},
        )
        run = SimulationRun(config, 0, 7)
        myopic = [r for r in run.ues if r.strategy == MYOPIC]
        served = {len(r.views) for r in myopic}
        assert 0 in served and max(served) < len(run.stations)
        # the fastest station is not always the lowest id a UE can use
        assert any(r.views and r.fastest is not r.views[0] for r in myopic)
        step_against_myopic_reference(run)

    def test_budgets_straddling_reserve_plus_fee(self):
        config = config_with(self.MIXED, episodes=20)
        run = SimulationRun(config, 0, 13)
        fee = config.auction.entrance_fee
        steps = (
            lambda b: b * (1 - 1e-9),
            lambda b: math.nextafter(b, -math.inf),
            lambda b: b,
            lambda b: math.nextafter(b, math.inf),
            lambda b: b * (1 + 1e-9),
        )
        myopic = [r for r in run.ues if r.strategy == MYOPIC and r.views]
        for k, r in enumerate(myopic):
            r.budget = steps[k % len(steps)](r.fastest.reserve_price + fee)
        first = step_against_myopic_reference(run)[0]
        assert {first[r.ue.id][0] is None for r in myopic} == {True, False}


class TestOracleReference:
    """In oracle mode a greedy or foresight UE decides from each station's
    requesters of the last round minus one; its observation, rebuilt from its
    views and a recount of the records, gives the same decision."""

    def test_counts_and_decisions_follow_the_records(self):
        config = config_with(
            {GREEDY: 8, FORESIGHT: 4, MYOPIC: 18}, episodes=30,
            auction=AuctionConfig(competitor_mode=COMPETITORS_ORACLE),
        )
        run = SimulationRun(config, 0, 17)
        fee = config.auction.entrance_fee
        policies = {
            GREEDY: greedy_decide,
            FORESIGHT: lambda obs: foresight_decide(obs, config.foresight),
        }
        # 30 UEs over 3 stations: 9 rivals each before any round is played
        recount = {bs.id: 9 for bs in run.stations}
        counts_seen, stations_bid = set(), set()
        for t in range(1, config.episodes + 1):
            expected = {}
            for r in run.ues:
                assert run.observation_for(r, t).competitors == recount
                if r.strategy not in policies:
                    continue
                rebuilt = MarketObservation(
                    round_index=t, rounds_total=config.episodes, budget=r.budget,
                    entrance_fee=fee, urgency=r.urgency, stations=r.views,
                    competitors=dict(recount),
                )
                decide = policies[r.strategy]
                expected[r.ue.id] = decide(rebuilt) if r.budget >= fee else ABSTAIN
            held = run.observation_for(run.ues[0], t).competitors
            log = run.run_round(t)
            # the map a decision read is replaced, never changed in place
            assert held == recount
            requesters = {bs.id: 0 for bs in run.stations}
            for rec in log.ues:
                if not rec.abstained:
                    requesters[rec.station_id] += 1
                if rec.ue_id in expected:
                    decision = expected[rec.ue_id]
                    assert (rec.station_id, rec.per_unit_bid.hex()) == (
                        decision.station_id, decision.per_unit_bid.hex(),
                    )
                    stations_bid.add(rec.station_id)
            recount = {s: max(0, n - 1) for s, n in requesters.items()}
            counts_seen.add(tuple(recount.values()))
        assert len(counts_seen) > 2
        assert None in stations_bid and len(stations_bid) > 2


class TestOfflineLlm:
    def test_offline_llm_never_touches_network(self, monkeypatch):
        def explode(self, prompt):
            raise AssertionError("offline run attempted a network call")

        monkeypatch.setattr(ChatCompletionClient, "complete", explode)
        config = config_with({LLM: 1, MYOPIC: 3}, episodes=4, offline=True)
        assert run_simulation(config).per_ue[0].strategy == LLM

    def test_offline_llm_mirrors_foresight(self):
        llm_config = config_with({LLM: 1, MYOPIC: 3}, episodes=5, seed=29)
        twin_config = config_with({FORESIGHT: 1, MYOPIC: 3}, episodes=5, seed=29)
        llm_rounds = play(llm_config)[1][0].rounds
        twin_rounds = play(twin_config)[1][0].rounds
        for log_a, log_b in zip(llm_rounds, twin_rounds):
            for rec_a, rec_b in zip(log_a.ues, log_b.ues):
                assert rec_a.station_id == rec_b.station_id
                assert rec_a.per_unit_bid == rec_b.per_unit_bid
                assert rec_a.channels_won == rec_b.channels_won


class TestMetrics:
    """The reference recount of a run's logs, and the per-strategy averages."""

    def record(self, ue_id, *, won=0, pay=0.0, fee=0.0, gross=0.0, fallback=False):
        return UeRoundRecord(
            ue_id=ue_id, strategy="", station_id=0, per_unit_bid=1.0,
            quantity=max(won, 1), fallback=fallback,
            channels_won=won, per_unit_payment=pay, fee_paid=fee,
            gross_utility=gross, budget_after=0.0, value_factor=0.5,
            losses_after=0,
        )

    def abstention(self, ue_id):
        return AbstentionRecord(ue_id, "", False, 0.0, 0.5, 0)

    def reduce(self, config, rounds):
        return compute_metrics(metrics_from_logs(config, PlayedRun(0, 42, rounds)))

    def test_handbuilt_rollup(self):
        # the roster puts greedy before myopic: UE 0 is greedy, UE 1 myopic
        config = config_with({MYOPIC: 1, GREEDY: 1})
        rounds = (
            RoundLog(round_index=1, ues=(
                self.record(0, won=2, pay=1.5, fee=0.1, gross=3.0),
                self.abstention(1),
            ), stations=()),
            RoundLog(round_index=2, ues=(
                self.record(0, won=0, pay=0.0, fee=0.1, gross=0.0),
                self.record(1, won=1, pay=0.5, fee=0.1, gross=1.5, fallback=True),
            ), stations=()),
        )
        metrics = self.reduce(config, rounds)
        first, second = metrics.per_ue
        assert (first.strategy, second.strategy) == (GREEDY, MYOPIC)
        assert first.episodes == second.episodes == 2
        assert first.gross_utility == pytest.approx(3.0)
        assert first.net_utility == pytest.approx(2.8)
        assert first.channels_won == 2
        assert first.bids_placed == 2
        assert first.wins == 1
        assert first.bid_precision == 0.5
        assert first.payments_paid == pytest.approx(3.0)
        assert second.bids_placed == 1
        assert second.bid_precision == 1.0
        assert second.net_utility == pytest.approx(1.4)
        assert second.fallbacks == 1
        assert metrics.per_strategy[GREEDY].num_ue_runs == 1
        assert metrics.per_strategy[MYOPIC].fallback_rounds == 1

    def test_zero_bids_has_no_precision(self):
        rounds = (RoundLog(round_index=1, ues=(self.abstention(0),),
                           stations=()),)
        metrics = self.reduce(config_with({MYOPIC: 1}), rounds)
        assert metrics.per_ue[0].bid_precision is None
        assert metrics.per_strategy[MYOPIC].avg_bid_precision is None


def refused_base_url() -> str:
    """A local URL whose port was just released, so connections are refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestRunningTallies:
    """Each run's rows, tallied as it plays, equal a recount of its logs."""

    @pytest.mark.parametrize(
        "make_config, reaches_case",
        [
            (lambda: config_with({LLM: 1, FORESIGHT: 1, GREEDY: 2, MYOPIC: 8},
                                 episodes=12, seed=3),
             lambda rows: {m.strategy for m in rows} == {LLM, FORESIGHT, GREEDY, MYOPIC}),
            (lambda: config_with({GREEDY: 3, MYOPIC: 6}, episodes=8, seed=4,
                                 auction=AuctionConfig(competitor_mode=COMPETITORS_ORACLE)),
             lambda rows: rows[0].episodes == 8),
            # two wins spend the budget, so the run stops after round 2 of 10
            (lambda: SimulationConfig(
                topology=TopologyConfig(num_small_cells=0),
                population=PopulationConfig(num_ues=1, budget=4.5, qos_classes_mbps=(2.0,),
                                            strategy_counts={MYOPIC: 1}),
                episodes=10, seed=5,
            ),
             lambda rows: rows[0].episodes == 2),
            (lambda: config_with({MYOPIC: 2}, episodes=10, population={"budget": 0.25}),
             lambda rows: [m.episodes for m in rows] == [0, 0]),
            (lambda: config_with({FORESIGHT: 1, GREEDY: 2, MYOPIC: 5}, episodes=6,
                                 runs=3, seed=8),
             lambda rows: [m.run_index for m in rows[::8]] == [0, 1, 2]),
            (lambda: config_with(
                {LLM: 1, GREEDY: 1, MYOPIC: 3}, episodes=3, seed=2, offline=False,
                endpoint=LlmEndpointConfig(base_url=refused_base_url(), timeout_ms=1000),
            ),
             lambda rows: rows[0].fallbacks > 0),
        ],
        ids=["all-strategies", "oracle-competitors", "exhausted-early", "zero-rounds",
             "three-runs", "refused-endpoint"],
    )
    def test_tallies_equal_the_log_recount(self, make_config, reaches_case):
        config = make_config()
        report, runs = play(config)
        rows = report.per_ue
        assert rows == tuple(row for run in runs for row in metrics_from_logs(config, run))
        assert reaches_case(rows)


class TestValidation:
    def test_problem_list_is_comprehensive(self):
        config = SimulationConfig(
            population=PopulationConfig(
                num_ues=0, budget=-1.0,
                strategy_counts={MYOPIC: 3, "psychic": 1},
            ),
            auction=AuctionConfig(entrance_fee=-0.5, competitor_mode="guess"),
            episodes=0,
        )
        with pytest.raises(ConfigurationError) as err:
            run_simulation(config)
        text = "; ".join(err.value.problems)
        assert "episodes" in text
        assert "num_ues" in text
        assert "budget" in text
        assert "psychic" in text
        assert "entrance_fee" in text
        assert "competitor_mode" in text

    def test_strategy_counts_must_cover_population(self):
        config = config_with({MYOPIC: 3}, num_ues=5)
        with pytest.raises(ConfigurationError, match="strategy counts"):
            run_simulation(config)

    def test_urgency_class_mismatch(self):
        config = config_with(
            {MYOPIC: 2},
            urgency=UrgencyConfig(base_value_per_mbps=(0.5, 0.6)),
        )
        with pytest.raises(ConfigurationError, match="base_value_per_mbps"):
            run_simulation(config)

    @pytest.mark.parametrize(
        "path",
        [
            "topology.macro_radius_m",
            "topology.sbs_ring_radius_m",
            "topology.channel.reference_distance_m",
            "topology.channel.mbs_pathloss_exponent",
            "topology.channel.sbs_pathloss_exponent",
            "auction.entrance_fee",
            "urgency.base_value_per_mbps",
            "urgency.saturation_losses",
        ],
    )
    def test_nan_is_refused_before_round_one(self, path):
        # a scenario file cannot hold NaN, but a config built in Python can
        name = path.rpartition(".")[2]
        value = (math.nan,) if path.startswith("urgency.") else math.nan
        try:
            config = scenario._with(SimulationConfig(episodes=3), path, value)
        except ValueError as exc:
            assert name in str(exc)
            return
        with pytest.raises(ConfigurationError) as err:
            run_simulation(config)
        assert any(name in problem for problem in err.value.problems)
