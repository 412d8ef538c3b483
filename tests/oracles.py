"""Independent reference implementations used to cross-check the package.

Everything in here trades speed for obviousness: the auction oracle
enumerates every feasible allocation outright, the win-probability oracle
lists every stronger/weaker outcome of the opponents' draws in exact
rationals instead of summing binomial terms, the bid grid is made with
``min`` and ``max`` as first written, the decision
references evaluate every grid point without memo or shortcut or read the
whole observation, and the per-user metrics are recounted from the round
logs that ``play`` keeps.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Sequence

from hetmarket.auction import AuctionRequest
from hetmarket.engine import (
    MetricsReport,
    RoundLog,
    SimulationConfig,
    UeMetrics,
    run_simulation,
)
from hetmarket.netmodel import SBS
from hetmarket.strategy import (
    GRID_SIZE,
    EmpiricalPriceModel,
    MarketObservation,
    win_probability_given_cdf,
)
from hetmarket.valuation import UrgencyState


@lru_cache(maxsize=None)
def _allocation_table(
    quantities: tuple[int, ...], capacity: int
) -> tuple[tuple[int, ...], ...]:
    """All integer allocations w with 0 <= w_i <= q_i and sum(w) <= capacity."""
    axes = [range(min(q, capacity) + 1) for q in quantities]
    return tuple(row for row in itertools.product(*axes) if sum(row) <= capacity)


def bruteforce_welfare(
    requests: Sequence[AuctionRequest], capacity: int, reserve: float
) -> tuple[float, dict[int, float]]:
    """Exhaustive welfare maximisation over reserve-eligible requests.

    Returns the best attainable total bid value and, per bidder, the best
    value attainable with that bidder removed from the market.
    """
    eligible = [r for r in requests if r.per_unit_bid >= reserve]
    absent = {r.bidder_id: 0.0 for r in requests}
    if not eligible:
        return 0.0, absent
    bids = [r.per_unit_bid for r in eligible]
    table = _allocation_table(tuple(r.quantity for r in eligible), capacity)
    values = [math.fsum(won * bid for won, bid in zip(row, bids)) for row in table]
    best = max(values)
    without = dict(absent)
    for column, request in enumerate(eligible):
        without[request.bidder_id] = max(
            value for row, value in zip(table, values) if row[column] == 0
        )
    for request in requests:
        if request.per_unit_bid < reserve:
            # A bidder priced out by the reserve never affects the others.
            without[request.bidder_id] = best
    return best, without


def bruteforce_payment(
    bidder_id: int,
    won: int,
    bid: float,
    best: float,
    without: dict[int, float],
    reserve: float,
) -> float:
    """Per-unit externality charge with the reserve floor applied."""
    others_alongside = best - won * bid
    harm = without[bidder_id] - others_alongside
    return max(reserve, harm / won)


def filtered_externality_payments(
    requests: Sequence[AuctionRequest], capacity: int, reserve: float
) -> dict[int, float]:
    """Per-unit payments of every winner, rebuilding the others' claims for each.

    The others' best ``capacity`` claims, less the ``capacity - won`` of them
    that win beside the bidder, leave the claims it displaces: the same
    elements as ``run_vcg`` sums, in the same order, found without relying on
    a bidder's claims being contiguous in the sorted list.
    """
    eligible = [r for r in requests if r.per_unit_bid >= reserve]
    claims = sorted(
        ((r.per_unit_bid, r.bidder_id) for r in eligible for _ in range(r.quantity)),
        key=lambda c: (-c[0], c[1]),
    )
    winning = claims[:capacity]
    allocations: dict[int, int] = {}
    for _, bidder_id in winning:
        allocations[bidder_id] = allocations.get(bidder_id, 0) + 1
    bids = {r.bidder_id: r.per_unit_bid for r in eligible}
    payments = {}
    for bidder_id, won in allocations.items():
        others = [bid for bid, owner in claims if owner != bidder_id]
        externality = math.fsum(others[capacity - won : capacity])
        payments[bidder_id] = min(bids[bidder_id], max(reserve, externality / won))
    return payments


def exact_win_probability(
    prices: Sequence[float], bid: float, competitors: int, capacity: int
) -> Fraction:
    """Exact chance of winning at least one unit, by listing every outcome.

    Each competitor independently resamples one historical price, which is
    stronger than the bid with chance ``p``, the share of prices strictly
    above it.  Of the ``2**competitors`` stronger/weaker outcomes, those
    with fewer than ``capacity`` stronger draws serve the bidder; their
    chances are summed in rationals.
    """
    p = Fraction(sum(price > bid for price in prices), len(prices))
    total = Fraction(0)
    for outcome in itertools.product((True, False), repeat=competitors):
        stronger = sum(outcome)
        if stronger < capacity:
            total += p**stronger * (1 - p) ** (competitors - stronger)
    return total


def win_probability(
    bid: float, competitors: int, capacity: int, prices: EmpiricalPriceModel
) -> float:
    """The closed form on the price model's CDF at the bid, unmemoised."""
    return win_probability_given_cdf(prices.cdf(bid), competitors, capacity)


def expected_utility(
    bid: float,
    valuation: float,
    prices: EmpiricalPriceModel,
    competitors: int,
    capacity: int,
) -> float:
    """Win probability times the expected surplus over the mean clearing price."""
    prob = win_probability(bid, competitors, capacity, prices)
    return prob * (valuation - prices.mean())


def reference_candidate_bids(
    valuation: float, last_clearing: float, reserve: float, budget_cap: float
) -> list[float]:
    """The bid grid as first written: both anchors and the spaced points
    made by a generator, each clipped by ``min`` and ``max``, then
    deduplicated by ``set`` and sorted."""
    if budget_cap < reserve:
        return []
    lo = max(reserve, 0.8 * min(valuation, last_clearing))
    hi = min(1.2 * max(valuation, last_clearing), budget_cap)
    points = [valuation, last_clearing]
    points.extend(lo + k * (hi - lo) / (GRID_SIZE - 3) for k in range(GRID_SIZE - 2))
    clipped = (min(max(p, reserve), budget_cap) for p in points)
    return sorted(set(clipped))


def urgency_factor(state: UrgencyState) -> float:
    """Value per Mbps: baseline plus one increment per loss, capped."""
    per_loss_increment = (
        state.max_value_per_mbps - state.base_value_per_mbps
    ) / state.saturation_losses
    raw = state.base_value_per_mbps + per_loss_increment * state.consecutive_losses
    return min(state.max_value_per_mbps, raw)


def myopic_reference(observation: MarketObservation) -> tuple[int | None, float]:
    """The myopic (station id, per-unit bid), or (None, 0.0) for an abstention.

    Read from the whole observation: the fastest of every view (rate ties to
    small cells, then the lower id), the truthful value clamped to the
    largest per-unit bid whose demand-fold fits the budget after the fee in
    floats, and an abstention when no view is left or that budget cannot
    pay the station's reserve.
    """
    if not observation.stations:
        return None, 0.0
    view = min(
        observation.stations,
        key=lambda v: (-v.rate_mbps, v.tier != SBS, v.station_id),
    )
    affordable = observation.budget - observation.entrance_fee
    if affordable < view.reserve_price:
        return None, 0.0
    cap = affordable / view.demand
    while view.demand * cap > affordable:
        cap = math.nextafter(cap, -math.inf)
    return view.station_id, min(urgency_factor(observation.urgency) * view.rate_mbps, cap)


def record_outcome(state: UrgencyState, won_any_channel: bool) -> UrgencyState:
    """Next round's state: a win resets the streak, anything else extends it."""
    if won_any_channel:
        return replace(state, consecutive_losses=0)
    return replace(state, consecutive_losses=state.consecutive_losses + 1)


@dataclass(frozen=True)
class PlayedRun:
    run_index: int
    seed: int
    rounds: tuple[RoundLog, ...]


def _pickle_run(directory: str, run_index: int, seed: int, rounds: Iterable[RoundLog]) -> None:
    with open(os.path.join(directory, str(run_index)), "wb") as handle:
        pickle.dump(PlayedRun(run_index, seed, tuple(rounds)), handle)


def play(config: SimulationConfig) -> tuple[MetricsReport, list[PlayedRun]]:
    """``run_simulation(config)`` and every run's round logs in run order.

    The logs come through the run's writer, as the command line's do: each
    run pickles its own to a file, in whichever process plays it.
    """
    with tempfile.TemporaryDirectory() as directory:
        metrics = run_simulation(config, partial(_pickle_run, directory))
        runs = []
        for run_index in range(config.runs):
            with open(os.path.join(directory, str(run_index)), "rb") as handle:
                runs.append(pickle.load(handle))
    return metrics, runs


def metrics_from_logs(config: SimulationConfig, result: PlayedRun) -> tuple[UeMetrics, ...]:
    """Per-user rows of one run, recounted from its round logs.

    Totals start at 0 and add every round's values in round order, as the
    engine's running tallies do, so the two agree exactly.
    """
    roster = dict(enumerate(config.population.roster()))
    gross: dict[int, float] = {uid: 0.0 for uid in roster}
    fees: dict[int, float] = {uid: 0.0 for uid in roster}
    payments: dict[int, float] = {uid: 0.0 for uid in roster}
    channels: dict[int, int] = {uid: 0 for uid in roster}
    bids: dict[int, int] = {uid: 0 for uid in roster}
    wins: dict[int, int] = {uid: 0 for uid in roster}
    fallbacks: dict[int, int] = {uid: 0 for uid in roster}
    for log in result.rounds:
        for rec in log.ues:
            gross[rec.ue_id] += rec.gross_utility
            fees[rec.ue_id] += rec.fee_paid
            payments[rec.ue_id] += rec.channels_won * rec.per_unit_payment
            channels[rec.ue_id] += rec.channels_won
            if not rec.abstained:
                bids[rec.ue_id] += 1
            if rec.channels_won > 0:
                wins[rec.ue_id] += 1
            if rec.fallback:
                fallbacks[rec.ue_id] += 1
    return tuple(
        UeMetrics(
            run_index=result.run_index,
            seed=result.seed,
            ue_id=uid,
            strategy=roster[uid],
            episodes=len(result.rounds),
            gross_utility=gross[uid],
            net_utility=gross[uid] - fees[uid],
            channels_won=channels[uid],
            bids_placed=bids[uid],
            wins=wins[uid],
            bid_precision=(wins[uid] / bids[uid]) if bids[uid] else None,
            fees_paid=fees[uid],
            payments_paid=payments[uid],
            fallbacks=fallbacks[uid],
        )
        for uid in sorted(roster)
    )
