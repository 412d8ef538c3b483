"""Bidding policies built on broadcast clearing prices.

Everything a policy may look at is packed into a ``MarketObservation`` built
from previous rounds only.  The greedy policy is a pure function of it; the
myopic one reads only its part of it: the fastest station's view, the budget,
the fee and the urgency.  Either way a decision depends on past rounds alone,
which keeps the simultaneous-move semantics honest and makes decisions
replayable.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from .netmodel import SBS
from .valuation import UrgencyState, channel_valuation

GRID_SIZE = 11


class NoPriceData(ValueError):
    """Raised when a statistic is requested from an empty price history."""


class EmpiricalPriceModel:
    """Clearing prices heard from one station: kept sorted, plus the latest.

    One model is shared by every user of a station, so what it keeps (the
    mean and the reserve prior) is computed once per station per round;
    ``append`` clears both.  Its win probabilities are kept for its lifetime,
    one run: each depends only on its key, so none goes stale on ``append``.
    """

    __slots__ = ("_sorted", "_last", "_mean", "_prior", "_win")

    def __init__(self, prices: Iterable[float] = ()):
        self._sorted: list[float] = [float(p) for p in prices]
        self._last: float | None = self._sorted[-1] if self._sorted else None
        self._sorted.sort()
        self._mean: float | None = None
        self._prior: EmpiricalPriceModel | None = None
        # (cdf, competitors, capacity) -> win_probability_given_cdf of it
        self._win: dict[tuple[float, int, int], float] = {}

    def append(self, price: float) -> None:
        self._last = float(price)
        insort(self._sorted, self._last)
        self._mean = None
        self._prior = None

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def last(self) -> float:
        """The latest price broadcast."""
        if self._last is None:
            raise NoPriceData("no clearing prices observed yet")
        return self._last

    def cdf(self, x: float) -> float:
        """Fraction of observed prices at or below x (right-continuous step)."""
        if not self._sorted:
            raise NoPriceData("no clearing prices observed yet")
        return bisect_right(self._sorted, x) / len(self._sorted)

    def mean(self) -> float:
        """``fsum`` of the prices over their count, kept until the next ``append``.

        ``fsum`` is correctly rounded, so the order it reads the prices in
        does not change the mean.
        """
        if self._mean is None:
            if not self._sorted:
                raise NoPriceData("no clearing prices observed yet")
            self._mean = math.fsum(self._sorted) / len(self._sorted)
        return self._mean

    def win_probability(self, bid: float, competitors: int, capacity: int) -> float:
        """``win_probability_given_cdf(self.cdf(bid), competitors, capacity)``, memoised."""
        if not self._sorted:
            raise NoPriceData("no clearing prices observed yet")
        return self.win_probability_at(bisect_right(self._sorted, bid), competitors, capacity)

    def win_probability_at(self, count: int, competitors: int, capacity: int) -> float:
        """The win probability of a bid with ``count`` prices at or below it, memoised."""
        key = (count / len(self._sorted), competitors, capacity)
        prob = self._win.get(key)
        if prob is None:
            prob = self._win[key] = win_probability_given_cdf(*key)
        return prob

    def or_prior(self, reserve: float) -> EmpiricalPriceModel:
        """This model, or before any data a one-point prior at ``reserve``.

        The prior is kept until the next ``append`` (or a different reserve).
        """
        if self._sorted:
            return self
        if self._prior is None or self._prior.last != reserve:
            self._prior = EmpiricalPriceModel([reserve])
        return self._prior


def win_probability_given_cdf(cdf_at_bid: float, competitors: int, capacity: int) -> float:
    """Chance that fewer than ``capacity`` of ``competitors`` outbid us.

    Competitor bids are modeled as independent draws from the observed price
    distribution; a draw counts against us only when strictly above our bid.
    Exactly 1.0 with more units than competitors; otherwise the binomial terms
    are summed directly, in log space only when a coefficient overflows a float.
    """
    if not 0.0 <= cdf_at_bid <= 1.0:
        raise ValueError("cdf value must lie in [0, 1]")
    if competitors < 0:
        raise ValueError("competitors cannot be negative")
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if capacity > competitors:
        return 1.0
    p_leq = cdf_at_bid
    p_above = 1.0 - cdf_at_bid
    total = 0.0
    try:
        for j in range(capacity):
            total += math.comb(competitors, j) * p_above**j * p_leq ** (competitors - j)
    except OverflowError:
        total = _log_space_tail(p_leq, p_above, competitors, capacity)
    return min(1.0, total)


def _log_space_tail(p_leq: float, p_above: float, competitors: int, capacity: int) -> float:
    """P(Binomial(competitors, p_above) < capacity), each term formed from lgamma.

    Terms are at most 1, so they never overflow; those below the smallest
    float vanish, as they would in the direct sum.  Needs ``capacity <=
    competitors``, which its caller ensures.
    """
    if p_above == 0.0:
        return 1.0
    if p_leq == 0.0:
        return 0.0
    log_leq, log_above = math.log(p_leq), math.log(p_above)
    log_n = math.lgamma(competitors + 1)
    return math.fsum(
        math.exp(
            log_n
            - math.lgamma(j + 1)
            - math.lgamma(competitors - j + 1)
            + j * log_above
            + (competitors - j) * log_leq
        )
        for j in range(capacity)
    )


def candidate_bids(
    valuation: float, last_clearing: float, reserve: float, budget_cap: float
) -> list[float]:
    """Small search grid bracketing the valuation and the last clearing price.

    Anchors at both plus nine evenly spaced points between 80% of the smaller
    and 120% of the larger, everything clipped to [reserve, budget_cap] and
    deduplicated.  Empty when the cap cannot even cover the reserve.
    """
    if budget_cap < reserve:
        return []
    lo = max(reserve, 0.8 * min(valuation, last_clearing))
    hi = min(1.2 * max(valuation, last_clearing), budget_cap)
    points = [valuation, last_clearing]
    points.extend(lo + k * (hi - lo) / (GRID_SIZE - 3) for k in range(GRID_SIZE - 2))
    clipped = (min(max(p, reserve), budget_cap) for p in points)
    return sorted(set(clipped))


def grid_bounds(
    valuation: float, last_clearing: float, reserve: float, budget_cap: float
) -> tuple[float, float] | None:
    """The cheapest and dearest points of ``candidate_bids``, without building it.

    The evenly spaced points are monotone in their index and clipping keeps
    order, so the grid's ends are the clipped least and greatest of the two
    anchors and the first and last spaced points, each formed as
    ``candidate_bids`` forms it.  None when the grid is empty.
    """
    if budget_cap < reserve:
        return None
    lo = max(reserve, 0.8 * min(valuation, last_clearing))
    hi = min(1.2 * max(valuation, last_clearing), budget_cap)
    steps = GRID_SIZE - 3
    start = lo + 0 * (hi - lo) / steps
    end = lo + steps * (hi - lo) / steps
    least = min(valuation, last_clearing, start, end)
    greatest = max(valuation, last_clearing, start, end)
    return min(max(least, reserve), budget_cap), min(max(greatest, reserve), budget_cap)


@dataclass(frozen=True)
class StationView:
    """What one user knows of one station: fixed for its run but the shared price model."""

    station_id: int
    tier: str
    capacity: int
    reserve_price: float
    rate_mbps: float
    demand: int
    price_history: EmpiricalPriceModel


@dataclass(slots=True)
class MarketObservation:
    """Decision input for one user in one round; built from past rounds only.

    ``competitors`` holds the rivals expected at each station id, the same
    for every user of the round.  An observation is built for one decision
    and kept by nothing else, so unlike its views it is not frozen, which
    saves an ``object.__setattr__`` per field.
    """

    round_index: int
    rounds_total: int
    budget: float
    entrance_fee: float
    urgency: UrgencyState
    stations: tuple[StationView, ...]
    competitors: dict[int, int]

    @property
    def rounds_remaining(self) -> int:
        """Rounds left including the current one."""
        return self.rounds_total - self.round_index + 1


@dataclass(frozen=True)
class BidDecision:
    """An abstention, or a station and a per-unit bid; the engine sets the quantity."""

    station_id: int | None
    per_unit_bid: float = 0.0
    fallback: bool = False

    @property
    def abstained(self) -> bool:
        return self.station_id is None


# every abstention, shared because decisions are frozen
ABSTAIN = BidDecision(station_id=None)


def per_unit_budget_cap(budget: float, fee: float, demand: int) -> float:
    """Highest per-unit bid that keeps fee plus worst-case payment affordable.

    The quotient is stepped down until ``demand * cap <= budget - fee`` holds
    in floats, so paying the cap on every unit never takes a budget below 0.
    """
    affordable = budget - fee
    cap = affordable / demand
    while demand * cap > affordable:
        cap = math.nextafter(cap, -math.inf)
    return cap


def grid_argmax(
    observation: MarketObservation,
) -> tuple[float, float, StationView] | None:
    """Best (expected utility, bid, station) over every station's bid grid.

    Ties prefer the cheaper bid, then the lower station id.  None when no
    station admits any affordable grid point.
    """
    best: tuple[float, float, StationView] | None = None
    best_key: tuple[float, float, float] | None = None
    # no two keys tie (distinct station ids, distinct bids per grid), so the
    # best does not depend on the order of the stations
    for view in observation.stations:
        prices = view.price_history.or_prior(view.reserve_price)
        cap = per_unit_budget_cap(observation.budget, observation.entrance_fee, view.demand)
        value = channel_valuation(observation.urgency, view.rate_mbps)
        last = prices.last
        bounds = grid_bounds(value, last, view.reserve_price, cap)
        if bounds is None:
            continue
        # win probability times the surplus over the mean price, with the
        # bid-independent surplus taken out of the loop
        surplus = value - prices.mean()
        # the probability depends on the bid only through the count of prices
        # at or below it, and the cheaper bid wins a tie, so only the cheapest
        # grid point of each count is scored: the cheapest end alone when
        # both ends have the same count
        ranked = prices._sorted
        competitors = observation.competitors[view.station_id]
        low, high = bounds
        if bisect_right(ranked, low) == bisect_right(ranked, high):
            grid = (low,)
        else:
            grid = candidate_bids(value, last, view.reserve_price, cap)
        scored = -1
        for bid in grid:
            count = bisect_right(ranked, bid)
            if count == scored:
                continue
            scored = count
            prob = prices.win_probability_at(count, competitors, view.capacity)
            utility = prob * surplus
            key = (utility, -bid, -view.station_id)
            if best_key is None or key > best_key:
                best_key = key
                best = (utility, bid, view)
    return best


def greedy_decide(observation: MarketObservation) -> BidDecision:
    """Bid wherever expected utility is maximal, abstain unless it is positive."""
    best = grid_argmax(observation)
    if best is None:
        return ABSTAIN
    utility, bid, view = best
    if utility <= 0.0:
        return ABSTAIN
    return BidDecision(station_id=view.station_id, per_unit_bid=bid)


def fastest_view(stations: Sequence[StationView]) -> StationView | None:
    """The station a myopic user bids at: the highest rate, None when there is none.

    Rate ties go to small cells first, then the lower station id.
    """
    return min(
        stations,
        key=lambda v: (-v.rate_mbps, v.tier != SBS, v.station_id),
        default=None,
    )


def myopic_decide(
    view: StationView | None, budget: float, fee: float, urgency: UrgencyState
) -> BidDecision:
    """Truthful bid at ``view``, the fastest station, clamped to budget, never shopping.

    A user's rates are fixed for its run, so its ``fastest_view`` is too; the
    policy reads no price and no competitor count.  The user abstains only
    when it has no station or a single channel at the station's reserve is
    unaffordable; a clamped bid below the reserve is still submitted.
    """
    if view is None or budget - fee < view.reserve_price:
        return ABSTAIN
    value = channel_valuation(urgency, view.rate_mbps)
    bid = min(value, per_unit_budget_cap(budget, fee, view.demand))
    return BidDecision(station_id=view.station_id, per_unit_bid=bid)
