"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test prints ``[ACnn] PASS/FAIL <label>`` with supporting numbers so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  The
assertions carry the same condition as the printed verdict.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from hetmarket.auction import AuctionRequest, run_vcg
from hetmarket.engine import (
    COMPETITORS_ORACLE,
    FORESIGHT,
    GREEDY,
    LLM,
    MYOPIC,
    AuctionConfig,
    PopulationConfig,
    SimulationConfig,
    run_simulation,
)
from hetmarket.llm_agent import LlmEndpointConfig, LlmError, llm_decide
from hetmarket.scenario import scenario1, scenario2
from hetmarket.strategy import EmpiricalPriceModel, MarketObservation, StationView
from hetmarket.valuation import UrgencyState

from oracles import (
    bruteforce_payment,
    bruteforce_welfare,
    play,
    simulate_win_probability,
    win_probability,
)
from test_engine import assert_round_conserves_money, rebuild_run


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[AC{number:02d}] {status} {label}{suffix}")
    assert ok, f"AC{number:02d} {label}{suffix}"


def _random_requests(rng: random.Random, max_bidders=6, max_qty=3):
    n = rng.randint(1, max_bidders)
    requests = []
    for i in range(n):
        if rng.random() < 0.5:
            bid = rng.randint(0, 16) / 2.0  # coarse grid provokes exact ties
        else:
            bid = rng.uniform(0.0, 8.0)
        requests.append(
            AuctionRequest(bidder_id=i, quantity=rng.randint(1, max_qty), per_unit_bid=bid)
        )
    return requests


def test_ac01_vcg_matches_bruteforce_oracle():
    rng = random.Random(101)
    start = time.perf_counter()
    instances = 1000
    for _ in range(instances):
        requests = _random_requests(rng)
        capacity = rng.randint(1, 4)
        reserve = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 4.0)
        outcome = run_vcg(requests, capacity, reserve)
        by_id = {r.bidder_id: r for r in requests}

        assert sum(outcome.allocations.values()) <= capacity
        for bidder, won in outcome.allocations.items():
            assert 1 <= won <= by_id[bidder].quantity

        best, without = bruteforce_welfare(requests, capacity, reserve)
        achieved = sum(
            won * by_id[b].per_unit_bid for b, won in outcome.allocations.items()
        )
        assert abs(achieved - best) <= 1e-9
        for bidder, won in outcome.allocations.items():
            expected = bruteforce_payment(
                bidder, won, by_id[bidder].per_unit_bid, best, without, reserve
            )
            assert abs(outcome.per_unit_payments[bidder] - expected) <= 1e-9
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "auction allocations and payments match exhaustive oracle",
        elapsed < 10.0,
        f"{instances} instances in {elapsed:.2f}s",
    )


def test_ac02_win_probability_matches_monte_carlo():
    from hetmarket.strategy import win_probability_given_cdf

    hand_ok = win_probability_given_cdf(0.5, 5, 4) == 0.8125
    rng = random.Random(202)
    worst = 0.0
    for case in range(50):
        prices = [rng.uniform(0.1, 8.0) for _ in range(rng.randint(1, 25))]
        competitors = rng.randint(0, 10)
        capacity = rng.randint(1, 4)
        if rng.random() < 0.3:
            bid = rng.choice(prices)  # sit exactly on an observed price
        else:
            bid = rng.uniform(0.0, 9.0)
        model = EmpiricalPriceModel(prices)
        exact = win_probability(bid, competitors, capacity, model)
        sampled = simulate_win_probability(
            prices, bid, competitors, capacity, draws=100_000, seed=case
        )
        worst = max(worst, abs(exact - sampled))
    _verdict(
        2,
        "closed-form win probability agrees with simulation",
        hand_ok and worst <= 0.01,
        f"hand case exact, worst gap {worst:.4f}",
    )


def test_ac03_truthful_bidding_is_dominant_on_unit_demand():
    rng = random.Random(303)
    instances = 200
    for _ in range(instances):
        n = rng.randint(2, 6)
        capacity = rng.randint(1, 4)
        reserve = rng.uniform(0.0, 3.0)
        values = [rng.uniform(0.0, 8.0) for _ in range(n)]

        def utility(bid0: float) -> float:
            requests = [AuctionRequest(0, 1, bid0)] + [
                AuctionRequest(i, 1, values[i]) for i in range(1, n)
            ]
            outcome = run_vcg(requests, capacity, reserve)
            won = outcome.allocations.get(0, 0)
            return won * (values[0] - outcome.per_unit_payments[0]) if won else 0.0

        truthful = utility(values[0])
        deviations = [10.0 * k / 20.0 for k in range(21)] + [reserve, values[0]]
        for deviation in deviations:
            assert utility(deviation) <= truthful + 1e-9
    _verdict(
        3,
        "truthful unit-demand bidding dominates grid deviations",
        True,
        f"{instances} instances, 23 deviations each",
    )


def _safety_matrix():
    import dataclasses

    mixed = SimulationConfig(
        population=PopulationConfig(
            num_ues=12,
            strategy_counts={LLM: 1, FORESIGHT: 2, GREEDY: 3, MYOPIC: 6},
        ),
        auction=AuctionConfig(competitor_mode=COMPETITORS_ORACLE),
        episodes=15,
        seed=5,
    )
    return [
        dataclasses.replace(scenario1(), episodes=20, seed=0),
        dataclasses.replace(scenario1(), episodes=20, seed=1),
        dataclasses.replace(scenario1(), episodes=10, seed=7, runs=2),
        dataclasses.replace(scenario2(), episodes=20, seed=0),
        dataclasses.replace(scenario2(), episodes=20, seed=1),
        mixed,
    ]


def test_ac04_conservation_and_safety_across_matrix():
    rounds_checked = 0
    for config in _safety_matrix():
        for result in play(config)[1]:
            run = rebuild_run(config, result)
            runtimes = {r.ue.id: r for r in run.ues}
            for log in result.rounds:
                rounds_checked += 1
                assert_round_conserves_money(log)
                seen = [rec.ue_id for rec in log.ues]
                assert seen == sorted(set(seen))
                for rec in log.ues:
                    assert rec.budget_after >= 0.0
                    if rec.abstained:
                        continue
                    runtime = runtimes[rec.ue_id]
                    view = runtime.by_station[rec.station_id]
                    assert rec.quantity == view.demand
                    delivered = rec.quantity * view.rate_mbps * 1e6
                    assert delivered >= runtime.ue.qos_rate_bps * (1 - 1e-12)
    _verdict(
        4,
        "money conserved, budgets never negative, requests cover QoS",
        rounds_checked > 0,
        f"{rounds_checked} rounds checked",
    )


def test_ac05_cli_runs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "hetmarket", "run",
                "--preset", "scenario1", "--offline",
                "--seed", "11", "--episodes", "15", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    same_metrics = (
        (outputs[0] / "metrics.csv").read_bytes()
        == (outputs[1] / "metrics.csv").read_bytes()
    )
    same_rounds = (
        (outputs[0] / "rounds.jsonl").read_bytes()
        == (outputs[1] / "rounds.jsonl").read_bytes()
    )
    assert (outputs[0] / "summary.json").read_bytes() == (
        outputs[1] / "summary.json"
    ).read_bytes()
    _verdict(
        5,
        "repeated CLI invocations produce byte-identical artifacts",
        same_metrics and same_rounds,
        "metrics.csv and rounds.jsonl compared",
    )


def _myopic_mean_utility(episodes: int, seed: int) -> float:
    config = SimulationConfig(
        population=PopulationConfig(num_ues=40, strategy_counts={MYOPIC: 40}),
        episodes=episodes,
        seed=seed,
    )
    rows = run_simulation(config).per_ue
    return sum(m.gross_utility for m in rows) / len(rows)


def test_ac06_average_utility_grows_with_horizon():
    horizons = [5, 10, 20, 40, 80]
    seeds = range(20)
    table = {t: [_myopic_mean_utility(t, s) for s in seeds] for t in horizons}
    gaps = []
    ok = True
    for t1, t2 in zip(horizons, horizons[1:]):
        diffs = [b - a for a, b in zip(table[t1], table[t2])]
        mean = statistics.mean(diffs)
        stderr = statistics.stdev(diffs) / math.sqrt(len(diffs))
        gaps.append(f"{t1}->{t2}: {mean:+.3f}+-{stderr:.3f}")
        if mean < -stderr:
            ok = False
    _verdict(6, "all-myopic utility is nondecreasing in the horizon", ok,
             "; ".join(gaps))


def _sign_test_p_value(successes: int, trials: int) -> float:
    return sum(math.comb(trials, k) for k in range(successes, trials + 1)) / 2.0 ** trials


def test_ac07_foresight_beats_myopic_in_scenario1():
    import dataclasses

    start = time.perf_counter()
    seeds = range(20)
    precision_wins = 0
    access_wins = 0
    for seed in seeds:
        config = dataclasses.replace(scenario1(), seed=seed)
        metrics = run_simulation(config).per_ue
        agent = next(m for m in metrics if m.strategy == LLM)
        myopic = [m for m in metrics if m.strategy == MYOPIC]
        myopic_precisions = [m.bid_precision for m in myopic if m.bid_precision is not None]
        mean_precision = sum(myopic_precisions) / len(myopic_precisions)
        mean_access = sum(m.channels_won for m in myopic) / len(myopic)
        if agent.bid_precision is not None and agent.bid_precision > mean_precision:
            precision_wins += 1
        if agent.channels_won > mean_access:
            access_wins += 1
    elapsed = time.perf_counter() - start
    p_precision = _sign_test_p_value(precision_wins, 20)
    p_access = _sign_test_p_value(access_wins, 20)
    ok = p_precision < 0.05 and p_access < 0.05 and elapsed < 120.0
    _verdict(
        7,
        "stand-in agent beats the myopic crowd on precision and access",
        ok,
        f"precision {precision_wins}/20 p={p_precision:.4f},"
        f" access {access_wins}/20 p={p_access:.4f}, {elapsed:.1f}s",
    )


def test_ac08_foresight_wins_short_horizons_in_scenario2():
    import dataclasses

    details = []
    ok = True
    for horizon in (5, 10):
        agent_access = []
        greedy_access = []
        for seed in range(20):
            config = dataclasses.replace(scenario2(), episodes=horizon, seed=seed)
            metrics = run_simulation(config).per_ue
            agent = next(m for m in metrics if m.strategy == LLM)
            rivals = [m for m in metrics if m.strategy == GREEDY]
            agent_access.append(agent.channels_won)
            greedy_access.append(sum(m.channels_won for m in rivals) / len(rivals))
        ours = statistics.mean(agent_access)
        theirs = statistics.mean(greedy_access)
        details.append(f"T={horizon}: {ours:.2f} vs {theirs:.2f}")
        if ours < theirs:
            ok = False
    _verdict(8, "stand-in agent out-accesses greedy rivals at short horizons",
             ok, "; ".join(details))


def test_ac09_price_estimators_match_arithmetic_oracles():
    rng = random.Random(909)
    histories = 1000
    for _ in range(histories):
        prices = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 40))]
        model = EmpiricalPriceModel(prices)
        for _ in range(3):
            x = rng.choice([rng.uniform(-1.0, 11.0), rng.choice(prices)])
            expected_cdf = Fraction(sum(1 for p in prices if p <= x), len(prices))
            assert model.cdf(x) == expected_cdf
        exact_sum = sum(Fraction(p) for p in prices)
        assert model.mean() == float(exact_sum) / len(prices)
        assert model.last == prices[-1]
    _verdict(9, "price CDF and mean match exact oracles", True,
             f"{histories} histories")


class ChaosClient:
    """Endpoint mock mixing timeouts, garbage, and wild but parseable replies."""

    def __init__(self, rng: random.Random):
        self.config = LlmEndpointConfig(base_url="http://chaos.invalid", max_retries=1)
        self.rng = rng
        self.station_ids: list[int] = []
        self.budget = 0.0

    def complete(self, prompt: str) -> str:
        roll = self.rng.random()
        if roll < 0.25:
            raise LlmError("simulated timeout")
        if roll < 0.50:
            return self.rng.choice([
                "", "no comment", "Selected BS and bid value: BS x, abc",
                "Explanation: \"I forgot the selection line\"",
            ])
        if roll < 0.58:
            station = 99  # never in the observation; exercises the parse guard
        else:
            station = self.rng.choice(self.station_ids)
        bid = self.rng.uniform(0.0, 3.0 * max(self.budget, 1.0))
        return (
            f"Selected BS and bid value: BS {station}, {bid:.3f}\n"
            'Explanation: "chaos"'
        )


def _random_observation(rng: random.Random) -> MarketObservation:
    stations = []
    competitors = {}
    for k in range(rng.randint(1, 3)):
        history = [rng.uniform(0.1, 8.0) for _ in range(rng.randint(0, 10))]
        capacity = rng.randint(1, 4)
        reserve = rng.uniform(0.0, 3.0)
        stations.append(StationView(
            station_id=k,
            tier="MBS" if k == 0 else "SBS",
            capacity=capacity,
            reserve_price=reserve,
            rate_mbps=rng.uniform(0.5, 10.0),
            demand=rng.randint(1, 4),
            price_history=EmpiricalPriceModel(history, reserve),
        ))
        competitors[k] = rng.randint(0, 8)
    return MarketObservation(
        round_index=rng.randint(1, 40),
        rounds_total=40,
        budget=rng.uniform(0.2, 20.0),
        entrance_fee=0.1,
        urgency=UrgencyState(
            base_value_per_mbps=0.5, max_value_per_mbps=1.0,
            consecutive_losses=rng.randint(0, 7),
        ),
        stations=tuple(stations),
        competitors=competitors,
    )


def test_ac10_llm_decisions_survive_a_chaotic_endpoint():
    rng = random.Random(1010)
    client = ChaosClient(rng)
    calls = 1000
    fallbacks = 0
    for _ in range(calls):
        obs = _random_observation(rng)
        client.station_ids = [v.station_id for v in obs.stations]
        client.budget = obs.budget
        decision = llm_decide(obs, client)
        if decision.fallback:
            fallbacks += 1
        if decision.abstained:
            continue
        chosen = next(v for v in obs.stations if v.station_id == decision.station_id)
        assert decision.per_unit_bid >= chosen.reserve_price
        spend = chosen.demand * decision.per_unit_bid + obs.entrance_fee
        assert spend <= obs.budget + 1e-9
    _verdict(
        10,
        "chaotic endpoint never yields an invalid or unaffordable decision",
        True,
        f"{calls} calls, fallback rate {fallbacks / calls:.1%}",
    )
