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
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .netmodel import SBS
from .valuation import UrgencyState, channel_valuation

GRID_SIZE = 11


class EmpiricalPriceModel:
    """Clearing prices heard from one station: kept sorted, plus the latest.

    Until a price is heard the model holds one price, ``reserve``, as a
    prior; the first ``append`` replaces it.  ``len`` counts heard prices
    only, so it is 0 while the prior stands.  One model is shared by every
    user of a station, so its mean is computed once per station per round;
    ``append`` clears it.  Its win probabilities are kept for its lifetime,
    one run: each depends only on its key, so none goes stale on ``append``.
    """

    __slots__ = ("_sorted", "_heard", "last", "_mean", "_win")

    def __init__(self, prices: Iterable[float] = (), reserve: float | None = None):
        """Prices heard so far, in broadcast order; ``reserve`` stands in when there are none."""
        heard = [float(p) for p in prices]
        if not heard and reserve is None:
            raise ValueError("a price model needs prices or a reserve")
        self._heard = len(heard)
        known = heard or [float(reserve)]
        # the latest price broadcast, or the prior
        self.last: float = known[-1]
        self._sorted: list[float] = sorted(known)
        self._mean: float | None = None
        # (cdf as a float, competitors, capacity) -> win_probability_given_cdf
        # of the exact cdf; distinct ratios whose denominators are below 2**26
        # round to distinct floats, so the float names the ratio
        self._win: dict[tuple[float, int, int], float] = {}

    def append(self, price: float) -> None:
        self.last = float(price)
        if self._heard:
            insort(self._sorted, self.last)
        else:
            self._sorted = [self.last]
        self._heard += 1
        self._mean = None

    def __len__(self) -> int:
        return self._heard

    def cdf(self, x: float) -> Fraction:
        """Exact share of prices at or below x (right-continuous step)."""
        return Fraction(bisect_right(self._sorted, x), len(self._sorted))

    def mean(self) -> float:
        """``fsum`` of the prices over their count, kept until the next ``append``.

        ``fsum`` is correctly rounded, so the order it reads the prices in
        does not change the mean.
        """
        if self._mean is None:
            self._mean = math.fsum(self._sorted) / len(self._sorted)
        return self._mean

    def win_probability(self, bid: float, competitors: int, capacity: int) -> float:
        """``win_probability_given_cdf(self.cdf(bid), competitors, capacity)``, memoised.

        Exact and rounded once, so it never falls as the bid rises.
        """
        key = (bisect_right(self._sorted, bid) / len(self._sorted), competitors, capacity)
        prob = self._win.get(key)
        if prob is None:
            prob = self._win[key] = win_probability_given_cdf(self.cdf(bid), competitors, capacity)
        return prob


def win_probability_given_cdf(
    cdf_at_bid: float | Fraction, competitors: int, capacity: int
) -> float:
    """Chance that fewer than ``capacity`` of ``competitors`` outbid us.

    Competitor bids are modeled as independent draws from the observed price
    distribution; a draw counts against us only when strictly above our bid.
    ``cdf_at_bid`` is a float or a ``Fraction``, read as its exact ratio
    ``leq / den``, whose denominator is positive; its range is checked on
    those integers, so a ``Fraction`` is never compared.  Exactly 1.0 with
    more units than competitors; otherwise the binomial sum is an integer
    over ``den**competitors``, formed in integers and rounded once.  The
    exact sum rises with the CDF value and rounding keeps order, so the
    result never falls as the bid rises.
    """
    try:
        leq, den = cdf_at_bid.as_integer_ratio()
    except (ValueError, OverflowError):  # NaN, and the infinities
        raise ValueError("cdf value must lie in [0, 1]") from None
    if not 0 <= leq <= den:
        raise ValueError("cdf value must lie in [0, 1]")
    if competitors < 0:
        raise ValueError("competitors cannot be negative")
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if capacity > competitors:
        return 1.0
    above = den - leq
    # sum over j < capacity of comb(n, j) * above**j * leq**(n - j), with
    # leq**(n - capacity + 1) taken out and the rest in Horner form
    total = 0
    coef = 1
    above_j = 1
    for j in range(capacity):
        total = total * leq + coef * above_j
        above_j *= above
        coef = coef * (competitors - j) // (j + 1)
    # int by int true division is correctly rounded
    return total * leq ** (competitors - capacity + 1) / den**competitors


def candidate_bids(
    valuation: float, last_clearing: float, reserve: float, budget_cap: float
) -> list[float]:
    """Small search grid bracketing the valuation and the last clearing price.

    Anchors at both plus nine evenly spaced points between 80% of the smaller
    and 120% of the larger, everything clipped to [reserve, budget_cap] and
    deduplicated.  Empty when the cap cannot even cover the reserve.
    ``grid_argmax`` builds it only when the grid's cheapest end falls short
    of the dearest end's utility.  Its ``GRID_SIZE`` points are written out
    and clipped with plain comparisons, a third of the cost of forming them
    through a generator and the ``min`` and ``max`` builtins.
    """
    if budget_cap < reserve:
        return []
    # each comparison keeps what ``min`` or ``max`` keeps, the earlier
    # argument on a tie, and the points go in anchors-first, so ``set``
    # keeps the same zero of an equal pair as the builtins would
    least = last_clearing if last_clearing < valuation else valuation
    greatest = last_clearing if last_clearing > valuation else valuation
    lo = 0.8 * least
    lo = lo if lo > reserve else reserve
    hi = 1.2 * greatest
    hi = budget_cap if budget_cap < hi else hi
    span = hi - lo
    points = []
    # the spaced points are lo + k * (hi - lo) / (GRID_SIZE - 3), k = 0..8
    for p in (valuation, last_clearing,
              lo + 0 * span / 8, lo + 1 * span / 8, lo + 2 * span / 8,
              lo + 3 * span / 8, lo + 4 * span / 8, lo + 5 * span / 8,
              lo + 6 * span / 8, lo + 7 * span / 8, lo + 8 * span / 8):
        p = reserve if reserve > p else p
        points.append(budget_cap if budget_cap < p else p)
    return sorted(set(points))


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
    # each comparison keeps what ``min`` or ``max`` keeps, the earlier
    # argument on a tie, so a zero keeps its sign
    least = last_clearing if last_clearing < valuation else valuation
    greatest = last_clearing if last_clearing > valuation else valuation
    lo = 0.8 * least
    lo = lo if lo > reserve else reserve
    hi = 1.2 * greatest
    hi = budget_cap if budget_cap < hi else hi
    steps = GRID_SIZE - 3
    start = lo + 0 * (hi - lo) / steps
    end = lo + steps * (hi - lo) / steps
    # end is below start when hi is below lo, and it can round away from hi
    least = start if start < least else least
    least = end if end < least else least
    greatest = start if start > greatest else greatest
    greatest = end if end > greatest else greatest
    # clipped to [reserve, budget_cap]; greatest is at least start, so at
    # least the reserve already
    least = reserve if reserve > least else least
    least = budget_cap if budget_cap < least else least
    greatest = budget_cap if budget_cap < greatest else greatest
    return least, greatest


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


@dataclass(slots=True)
class BidDecision:
    """An abstention, or a station and a per-unit bid; the engine sets the quantity.

    Not frozen, like an observation, which saves an ``object.__setattr__`` per field.
    """

    station_id: int | None
    per_unit_bid: float = 0.0
    fallback: bool = False

    @property
    def abstained(self) -> bool:
        return self.station_id is None


# every abstention; shared, since no code assigns to a decision
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
    """Best (expected utility, bid, station) among bids whose utility is above 0.

    Ties prefer the cheaper bid, then the lower station id.  None when no
    station has an affordable grid point of positive utility; a station
    whose value is no more than its mean price is skipped unscored.
    """
    best: tuple[float, float, StationView] | None = None
    best_key: tuple[float, float, float] | None = None
    # no two keys tie (distinct station ids), so the best does not depend on
    # the order of the stations
    for view in observation.stations:
        prices = view.price_history
        value = channel_valuation(observation.urgency, view.rate_mbps)
        surplus = value - prices.mean()
        if surplus <= 0.0:
            continue
        cap = per_unit_budget_cap(observation.budget, observation.entrance_fee, view.demand)
        last = prices.last
        bounds = grid_bounds(value, last, view.reserve_price, cap)
        if bounds is None:
            continue
        # utility is the win probability times the surplus over the mean
        # price.  The probability never falls as the bid rises, and a product
        # with a fixed factor rounds in order, so the utility is monotone in
        # the bid: the best is the dearest point's, at the cheapest point
        # that reaches it
        win = prices.win_probability
        competitors = observation.competitors[view.station_id]
        low, high = bounds
        top = win(high, competitors, view.capacity) * surplus
        if top <= 0.0:
            continue
        bid = low
        if win(low, competitors, view.capacity) * surplus != top:
            # the first point between the grid's ends that reaches the top
            grid = candidate_bids(value, last, view.reserve_price, cap)
            first = bisect_left(
                grid, True, 1, len(grid) - 1,
                key=lambda b: win(b, competitors, view.capacity) * surplus == top,
            )
            bid = grid[first]
        key = (top, -bid, -view.station_id)
        if best_key is None or key > best_key:
            best_key = key
            best = (top, bid, view)
    return best


def greedy_decide(observation: MarketObservation) -> BidDecision:
    """Bid wherever expected utility is maximal, abstain when none is positive."""
    best = grid_argmax(observation)
    if best is None:
        return ABSTAIN
    _, bid, view = best
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
