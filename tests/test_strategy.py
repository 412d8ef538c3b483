from __future__ import annotations

import dataclasses
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from hetmarket import llm_agent, strategy
from hetmarket.engine import (
    FORESIGHT,
    GREEDY,
    MYOPIC,
    PopulationConfig,
    SimulationConfig,
    run_simulation,
)
from hetmarket.llm_agent import _most_winnable_bid
from hetmarket.netmodel import MBS, SBS
from hetmarket.strategy import (
    ABSTAIN,
    BidDecision,
    EmpiricalPriceModel,
    MarketObservation,
    StationView,
    candidate_bids,
    fastest_view,
    greedy_decide,
    grid_argmax,
    grid_bounds,
    myopic_decide,
    per_unit_budget_cap,
    win_probability_given_cdf,
)
from hetmarket.valuation import UrgencyState, channel_valuation

from oracles import (
    expected_utility,
    myopic_reference,
    play,
    simulate_win_probability,
    win_probability,
)


def exact_tail(cdf_at_bid, competitors, capacity):
    """P(fewer than capacity of competitors draw above the bid), in rationals.

    With cdf = leq / den, the sum is an integer over den**competitors, so
    only one fraction is reduced however large the coefficients grow.
    """
    leq, den = Fraction(cdf_at_bid).as_integer_ratio()
    above = den - leq
    numerator = sum(
        math.comb(competitors, j) * above**j * leq ** (competitors - j)
        for j in range(min(capacity - 1, competitors) + 1)
    )
    return Fraction(numerator, den**competitors)


def flat_urgency(value_per_mbps=1.0):
    return UrgencyState(
        base_value_per_mbps=value_per_mbps, max_value_per_mbps=value_per_mbps
    )


def view(station_id=0, tier=MBS, capacity=4, reserve=2.0, rate=3.0, demand=1,
         history=()):
    return StationView(
        station_id=station_id, tier=tier, capacity=capacity,
        reserve_price=reserve, rate_mbps=rate, demand=demand,
        price_history=EmpiricalPriceModel(history, reserve),
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


def budget_cap(obs, v):
    return per_unit_budget_cap(obs.budget, obs.entrance_fee, v.demand)


def decide_myopic(obs):
    return myopic_decide(fastest_view(obs.stations), obs.budget, obs.entrance_fee, obs.urgency)


class TestPriceModel:
    def test_cdf_counts_at_or_below(self):
        model = EmpiricalPriceModel([1.0, 2.0, 2.0, 4.0])
        assert model.cdf(2.0) == 0.75
        assert model.cdf(1.99) == 0.25
        assert model.cdf(0.5) == 0.0
        assert model.cdf(4.0) == 1.0
        assert model.cdf(9.0) == 1.0

    def test_mean_and_last(self):
        model = EmpiricalPriceModel([1.0, 2.0, 2.0, 4.0])
        assert model.mean() == pytest.approx(2.25)
        assert model.last == 4.0
        assert len(model) == 4

    def test_append_keeps_order_and_ranks(self):
        model = EmpiricalPriceModel([1.0, 3.0])
        model.append(0.5)
        assert model.last == 0.5
        assert len(model) == 3
        assert model.mean() == pytest.approx(1.5)
        assert model.cdf(0.5) == pytest.approx(1 / 3)

    def test_the_first_append_replaces_the_reserve_prior(self, monkeypatch):
        # Before any price is heard the reserve is the one price, though len
        # counts heard prices only; the first append drops it, and what the
        # memo learnt from it stays valid, as an entry depends on its key alone.
        evaluated = []

        def counted(cdf, competitors, capacity):
            evaluated.append((cdf, competitors, capacity))
            return win_probability_given_cdf(cdf, competitors, capacity)

        monkeypatch.setattr(strategy, "win_probability_given_cdf", counted)
        model = EmpiricalPriceModel(reserve=2.0)
        assert (len(model), model.last, model.mean()) == (0, 2.0, 2.0)
        assert (model.cdf(1.99), model.cdf(2.0)) == (0.0, 1.0)
        assert model.win_probability(2.0, 5, 2) == win_probability_given_cdf(Fraction(1), 5, 2)
        model.append(3.0)
        assert (len(model), model.last, model.mean()) == (1, 3.0, 3.0)
        assert model.cdf(2.0) == 0.0
        assert model.win_probability(3.0, 5, 2) == win_probability_given_cdf(Fraction(1), 5, 2)
        assert evaluated == [(Fraction(1), 5, 2)]
        # heard prices leave the reserve unused
        assert EmpiricalPriceModel([3.0], reserve=2.0).cdf(2.0) == 0.0

    @given(steps=st.lists(st.one_of(st.floats(0.0, 10.0), st.none()),
                          min_size=1, max_size=40))
    def test_mean_follows_every_append(self, steps):
        # A float appends a price, None asks for the mean; a stale cached
        # mean would disagree with the exact sum of the prices so far.
        model = EmpiricalPriceModel(reserve=1.5)
        prices = []
        for step in steps:
            if step is None:
                known = prices or [1.5]
                exact = sum(Fraction(p) for p in known)
                assert model.mean() == float(exact) / len(known)
            else:
                model.append(step)
                prices.append(step)

    # a sum of 64 prices of at most this size stays finite
    @given(prices=st.lists(st.floats(0.0, sys.float_info.max / 64), min_size=1, max_size=64))
    def test_appended_prices_give_the_broadcast_last_and_mean(self, prices):
        # The model keeps its prices sorted; fsum is correctly rounded, so
        # its mean is that of the prices in the order they were broadcast.
        model = EmpiricalPriceModel(reserve=0.0)
        for price in prices:
            model.append(price)
        built = EmpiricalPriceModel(prices)
        for each in (model, built):
            assert len(each) == len(prices)
            assert each.last == prices[-1]
            assert each.mean() == math.fsum(prices) / len(prices)

    @given(
        prices=st.lists(st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.0, 10.0),
                        min_size=1, max_size=20),
        queries=st.lists(
            st.tuples(st.sampled_from([0.5, 1.5, 2.5, 3.5]) | st.floats(-1.0, 11.0),
                      st.integers(0, 12), st.integers(1, 6)),
            min_size=1, max_size=6,
        ),
    )
    def test_memoised_win_probability_follows_every_append(self, prices, queries):
        # The same lookups on the reserve prior and after every append; a
        # memo entry keyed on less than the CDF value and both sizes would
        # disagree with the unmemoised evaluation on the CDF of the prices so far.
        model = EmpiricalPriceModel(reserve=2.0)
        for price in [None, *prices]:
            if price is not None:
                model.append(price)
            for bid, competitors, capacity in queries:
                assert model.win_probability(bid, competitors, capacity) == (
                    win_probability_given_cdf(model.cdf(bid), competitors, capacity)
                )

    def test_memo_is_kept_across_appends(self, monkeypatch):
        # A CDF value the model has evaluated is not evaluated again after
        # an append brings it back; another model keeps its own memo.
        evaluated = []

        def counted(cdf, competitors, capacity):
            evaluated.append((cdf, competitors, capacity))
            return win_probability_given_cdf(cdf, competitors, capacity)

        monkeypatch.setattr(strategy, "win_probability_given_cdf", counted)
        model = EmpiricalPriceModel([1.0, 3.0])
        half = Fraction(1, 2)
        assert model.win_probability(2.0, 5, 2) == win_probability_given_cdf(half, 5, 2)
        model.append(0.5)
        model.append(7.0)
        assert model.win_probability(2.0, 5, 2) == win_probability_given_cdf(half, 5, 2)
        # another bid with 2 of the 4 prices at or below it
        assert model.win_probability(1.5, 5, 2) == win_probability_given_cdf(half, 5, 2)
        assert evaluated == [(half, 5, 2)]
        EmpiricalPriceModel([2.0, 4.0]).win_probability(3.0, 5, 2)
        assert evaluated == [(half, 5, 2)] * 2

    def test_each_miss_evaluates_the_cdf_once(self, monkeypatch):
        # The memo's one CDF is ``cdf``: a miss evaluates it once, at the bid
        # asked about, and a hit evaluates it not at all.
        asked = []
        cdf = EmpiricalPriceModel.cdf

        def counted(model, x):
            asked.append(x)
            return cdf(model, x)

        monkeypatch.setattr(EmpiricalPriceModel, "cdf", counted)
        model = EmpiricalPriceModel([1.0, 3.0, 5.0])
        first = model.win_probability(2.0, 4, 2)
        assert asked == [2.0]
        assert first == win_probability_given_cdf(Fraction(1, 3), 4, 2)
        assert model.win_probability(2.5, 4, 2) == first
        assert asked == [2.0]
        model.win_probability(4.0, 4, 2)
        model.win_probability(4.0, 4, 3)
        assert asked == [2.0, 4.0, 4.0]

    def test_cdf_and_mean_of_two_prices(self):
        model = EmpiricalPriceModel([2.0, 4.0])
        assert model.cdf(2.0) == 0.5
        assert model.mean() == 3.0

    @given(prices=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
           x=st.floats(-1.0, 11.0))
    def test_cdf_matches_direct_count(self, prices, x):
        model = EmpiricalPriceModel(prices)
        assert model.cdf(x) == Fraction(sum(1 for p in prices if p <= x), len(prices))

    def test_needs_prices_or_a_reserve(self):
        with pytest.raises(ValueError, match="needs prices or a reserve"):
            EmpiricalPriceModel()
        with pytest.raises(ValueError, match="needs prices or a reserve"):
            EmpiricalPriceModel([], None)


class TestWinProbability:
    def test_five_rivals_four_channels_even_odds(self):
        # 26 of the 32 equally likely outcomes leave a free channel.
        assert win_probability_given_cdf(0.5, 5, 4) == 0.8125

    def test_three_rivals_single_channel(self):
        model = EmpiricalPriceModel([1.0] * 9 + [3.0])
        assert win_probability(2.0, 3, 1, model) == pytest.approx(0.9 ** 3, abs=1e-12)

    def test_certain_cases(self):
        assert win_probability_given_cdf(0.3, 0, 1) == 1.0
        assert win_probability_given_cdf(0.0, 3, 4) == 1.0
        # more channels than rivals: certain at any bid, not 1 - ulp
        assert win_probability_given_cdf(1 / 9, 3, 4) == 1.0
        assert win_probability_given_cdf(1.0, 8, 1) == 1.0
        assert win_probability_given_cdf(0.0, 4, 2) == 0.0

    @given(cdf=st.floats(0.0, 1.0), competitors=st.integers(0, 12),
           capacity=st.integers(1, 14))
    def test_matches_exact_binomial_sum(self, cdf, competitors, capacity):
        exact = float(exact_tail(cdf, competitors, capacity))
        assert win_probability_given_cdf(cdf, competitors, capacity) == exact
        assert win_probability_given_cdf(Fraction(cdf), competitors, capacity) == exact

    def test_coefficients_too_large_for_a_float(self):
        # comb(1100, 550) is about 1e329, far past the largest float.
        for cdf in (0.25, 0.5, 0.55, 0.75):
            prob = win_probability_given_cdf(cdf, 1100, 600)
            assert prob == float(exact_tail(cdf, 1100, 600))
        assert win_probability_given_cdf(0.0, 1100, 600) == 0.0
        assert win_probability_given_cdf(1.0, 1100, 600) == 1.0
        assert win_probability_given_cdf(0.0, 1100, 1101) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            win_probability_given_cdf(1.5, 3, 1)
        with pytest.raises(ValueError):
            win_probability_given_cdf(Fraction(3, 2), 3, 1)
        # the range is checked on the value's integer ratio, which NaN and
        # the infinities do not have, also where the answer is 1.0 unread
        for cdf in (math.nan, math.inf, -math.inf, -0.5, Fraction(-1, 3)):
            for competitors in (3, 0):
                with pytest.raises(ValueError, match=r"cdf value must lie in \[0, 1\]"):
                    win_probability_given_cdf(cdf, competitors, 1)
        with pytest.raises(ValueError):
            win_probability_given_cdf(0.5, -1, 1)
        with pytest.raises(ValueError):
            win_probability_given_cdf(0.5, 3, 0)

    @given(sizes=st.integers(1, 60).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n))),
           counts=st.integers(1, 2000).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
    # a summed-in-floats tail fell by 2 ulps here, from 0.9999999999999986
    @example(sizes=(37, 29), counts=(1555, 1278))
    def test_never_falls_as_the_count_rises(self, sizes, counts):
        # One count more at or below the bid, of the same prices: as a float
        # ratio, and as the price model evaluates it, where the prices are
        # 1, 2, ..., so a bid of k has k prices at or below it.
        competitors, capacity = sizes
        prices, count = counts
        lower = win_probability_given_cdf(count / prices, competitors, capacity)
        upper = win_probability_given_cdf((count + 1) / prices, competitors, capacity)
        assert lower <= upper
        model = EmpiricalPriceModel(range(1, prices + 1))
        assert (model.win_probability(count, competitors, capacity)
                <= model.win_probability(count + 1, competitors, capacity))

    @given(prices=st.lists(st.floats(0.1, 8.0), min_size=1, max_size=20),
           low=st.floats(0.0, 9.0), bump=st.floats(0.0, 3.0),
           competitors=st.integers(0, 8), capacity=st.integers(1, 4))
    def test_raising_the_bid_never_hurts(self, prices, low, bump, competitors, capacity):
        model = EmpiricalPriceModel(prices)
        p_low = win_probability(low, competitors, capacity, model)
        p_high = win_probability(low + bump, competitors, capacity, model)
        assert 0.0 <= p_low <= p_high <= 1.0

    def test_matches_monte_carlo(self):
        cases = [
            ([1.0, 2.0, 3.0, 4.0, 5.0], 2.5, 6, 2),
            ([0.5, 0.5, 2.0], 0.5, 4, 3),
            ([3.0], 2.9, 5, 1),
        ]
        for prices, bid, competitors, capacity in cases:
            model = EmpiricalPriceModel(prices)
            exact = win_probability(bid, competitors, capacity, model)
            sampled = simulate_win_probability(
                prices, bid, competitors, capacity, draws=40_000, seed=7
            )
            assert exact == pytest.approx(sampled, abs=0.01)


class TestExpectedUtility:
    def test_half_chance_at_two_surplus(self):
        model = EmpiricalPriceModel([2.0, 4.0])
        assert expected_utility(3.0, 5.0, model, 1, 1) == pytest.approx(1.0)

    def test_negative_when_valuation_below_mean_price(self):
        model = EmpiricalPriceModel([4.0, 4.0])
        assert expected_utility(4.0, 1.0, model, 1, 1) < 0.0


class TestCandidateBids:
    def test_grid_brackets_valuation_and_clearing(self):
        grid = candidate_bids(5.0, 2.5, 1.0, 10.0)
        assert grid == [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]

    def test_collapses_to_single_point(self):
        assert candidate_bids(2.0, 2.0, 2.0, 2.0) == [2.0]

    def test_empty_when_cap_below_reserve(self):
        assert candidate_bids(4.0, 2.0, 1.0, 0.5) == []

    @given(valuation=st.floats(0.1, 10.0), clearing=st.floats(0.1, 10.0),
           reserve=st.floats(0.0, 4.0), cap=st.floats(0.0, 12.0))
    def test_grid_is_sorted_clipped_and_small(self, valuation, clearing, reserve, cap):
        grid = candidate_bids(valuation, clearing, reserve, cap)
        if cap < reserve:
            assert grid == []
            return
        assert grid
        assert len(grid) <= 11
        assert grid == sorted(grid)
        assert len(set(grid)) == len(grid)
        for bid in grid:
            assert reserve <= bid <= cap
        clipped_value = min(max(valuation, reserve), cap)
        assert any(b == pytest.approx(clipped_value, abs=1e-12) for b in grid)


class TestGridBounds:
    @given(valuation=st.floats(0.0, 10.0), clearing=st.floats(0.0, 10.0),
           reserve=st.floats(0.0, 4.0), cap=st.floats(0.0, 12.0),
           squeeze=st.none() | st.floats(0.0, 1.0))
    @example(valuation=5.0, clearing=2.5, reserve=0.5, cap=1.0, squeeze=None)
    @example(valuation=5.0, clearing=2.5, reserve=1.0, cap=0.5, squeeze=None)
    # hi below lo, and end = lo + (hi - lo) rounds above hi, the cap, so the
    # cheapest point is clipped down to the cap
    @example(valuation=9.3, clearing=8.4, reserve=1.2, cap=1.7, squeeze=None)
    # a valuation equal to the last price
    @example(valuation=2.0, clearing=2.0, reserve=0.5, cap=10.0, squeeze=None)
    # end rounds above hi, 1.2 times the valuation, and is the dearest point
    @example(valuation=1.65, clearing=3.25, reserve=0.51, cap=10.91, squeeze=None)
    # the reserve is above 80% of the smaller anchor, so lo is the reserve
    @example(valuation=5.8, clearing=1.6, reserve=1.7, cap=4.7, squeeze=None)
    # the reserve is above both anchors, so start is the dearest point
    @example(valuation=1.3, clearing=0.3, reserve=1.4, cap=4.3, squeeze=None)
    # hi is below the reserve, so end is clipped up to it
    @example(valuation=1.0, clearing=0.5, reserve=2.0, cap=3.0, squeeze=None)
    # start is 0.0, and the grid's cheapest point is the last price, -0.0
    @example(valuation=1.0, clearing=-0.0, reserve=0.0, cap=2.0, squeeze=None)
    # end rounds below hi, the cap, and the last price, clipped to the cap,
    # is the dearest point
    @example(valuation=0.4, clearing=7.5, reserve=1.1, cap=5.2, squeeze=None)
    def test_bounds_are_the_ends_of_the_grid(self, valuation, clearing, reserve, cap,
                                              squeeze):
        if squeeze is not None:
            # a cap below 80% of the smaller anchor puts hi below lo
            cap = squeeze * 0.8 * min(valuation, clearing)
        grid = candidate_bids(valuation, clearing, reserve, cap)
        bounds = grid_bounds(valuation, clearing, reserve, cap)
        if cap < reserve:
            assert bounds is None
            return
        # bit for bit, so a zero's sign counts too
        assert [b.hex() for b in bounds] == [grid[0].hex(), grid[-1].hex()]


class TestObservationHelpers:
    def test_budget_cap_spreads_over_demand(self):
        assert per_unit_budget_cap(1.5, 0.1, 2) == pytest.approx(0.7)

    def test_budget_cap_is_affordable_in_floats(self):
        # 3 * (0.053 / 3) is 0.053000000000000005
        cap = per_unit_budget_cap(0.053, 0.0, 3)
        assert 3 * cap <= 0.053
        assert 3 * math.nextafter(cap, math.inf) > 0.053

    @given(budget=st.floats(0.0, 1e6), fee=st.floats(0.0, 1.0), demand=st.integers(1, 64))
    def test_budget_cap_is_affordable_and_one_step_from_the_quotient(self, budget, fee, demand):
        cap = per_unit_budget_cap(budget, fee, demand)
        quotient = (budget - fee) / demand
        assert demand * cap <= budget - fee
        assert cap in (quotient, math.nextafter(quotient, -math.inf))

    def test_rounds_remaining_counts_current(self):
        obs = observation([view()], round_index=3, rounds_total=40)
        assert obs.rounds_remaining == 38
        last = observation([view()], round_index=40, rounds_total=40)
        assert last.rounds_remaining == 1

    def test_shared_abstention(self):
        assert ABSTAIN.abstained
        assert ABSTAIN.station_id is None
        placed = BidDecision(station_id=2, per_unit_bid=1.0)
        assert not placed.abstained


class TestGreedy:
    def test_prefers_station_with_higher_expected_utility(self):
        cheap_macro = view(station_id=0, tier=MBS, reserve=2.0, rate=3.0,
                           history=[1.0] * 10)
        pricey_small = view(station_id=1, tier=SBS, reserve=0.4, rate=4.0,
                            history=[3.5] * 10)
        decision = greedy_decide(
            observation([cheap_macro, pricey_small], competitors={0: 2, 1: 2})
        )
        assert decision.station_id == 0
        # Flat utility across the grid resolves to the cheapest bid on it.
        assert decision.per_unit_bid == pytest.approx(2.0)
        assert not decision.fallback

    def test_cold_start_bids_reserve(self):
        v = view(reserve=2.0, rate=3.0, capacity=4)
        decision = greedy_decide(observation([v], competitors={0: 2}))
        assert decision.station_id == 0
        assert decision.per_unit_bid == pytest.approx(2.0)

    def test_abstains_when_mean_price_exceeds_value(self, monkeypatch):
        # the station is skipped before its grid is bounded or a probability looked up
        def unreachable(*args):
            raise AssertionError("a station with no surplus was scored")

        monkeypatch.setattr(strategy, "per_unit_budget_cap", unreachable)
        monkeypatch.setattr(strategy, "grid_bounds", unreachable)
        monkeypatch.setattr(EmpiricalPriceModel, "win_probability", unreachable)
        v = view(reserve=0.5, rate=1.0, capacity=1, history=[2.0] * 5)
        obs = observation([v], competitors={0: 4})
        assert grid_argmax(obs) is None
        assert greedy_decide(obs).abstained

    def test_abstains_when_the_dearest_affordable_bid_cannot_win(self):
        # a surplus of 5, but every rival outbids the cap of 2.0: one lookup
        looked_up = []
        lookup = EmpiricalPriceModel.win_probability

        def counted(model, *args):
            looked_up.append(args)
            return lookup(model, *args)

        v = view(reserve=0.5, rate=10.0, capacity=1, history=[5.0] * 10)
        obs = observation([v], budget=2.1, fee=0.1, competitors={0: 4})
        with mock.patch.object(EmpiricalPriceModel, "win_probability", counted):
            assert grid_argmax(obs) is None
        assert looked_up == [(2.0, 4, 1)]
        assert greedy_decide(obs).abstained

    def test_abstains_when_nothing_affordable(self):
        v = view(reserve=2.0, demand=2)
        decision = greedy_decide(observation([v], budget=1.0, fee=0.1))
        assert decision.abstained

    def test_deterministic(self):
        obs = observation([view(history=[2.0, 3.0]), view(station_id=1, tier=SBS,
                                                          reserve=0.2, rate=2.0)])
        assert greedy_decide(obs) == greedy_decide(obs)

    def test_doubling_all_prices_doubles_the_bid(self):
        def build(scale):
            urgency = UrgencyState(
                base_value_per_mbps=0.5 * scale, max_value_per_mbps=1.0 * scale,
                consecutive_losses=2,
            )
            stations = [
                view(station_id=0, tier=MBS, reserve=2.0 * scale, rate=5.0,
                     history=[p * scale for p in (2.5, 3.0, 2.0)]),
                view(station_id=1, tier=SBS, reserve=0.2 * scale, rate=2.5,
                     history=[p * scale for p in (0.5, 0.8)]),
            ]
            return observation(stations, budget=15.0 * scale, fee=0.1 * scale,
                               urgency=urgency, competitors={0: 3, 1: 3})

        base = greedy_decide(build(1.0))
        doubled = greedy_decide(build(2.0))
        assert not base.abstained
        assert doubled.station_id == base.station_id
        assert doubled.per_unit_bid == 2.0 * base.per_unit_bid


class TestMyopic:
    def test_chases_fastest_station(self):
        slow = view(station_id=0, rate=3.0)
        fast = view(station_id=1, tier=SBS, reserve=0.2, rate=5.0)
        assert fastest_view([slow, fast]).station_id == 1

    def test_rate_tie_prefers_small_cell_then_lower_id(self):
        tied_macro = view(station_id=0, tier=MBS, rate=4.0)
        tied_small = view(station_id=2, tier=SBS, reserve=0.2, rate=4.0)
        assert fastest_view([tied_macro, tied_small]).station_id == 2
        twin_a = view(station_id=1, tier=SBS, reserve=0.2, rate=4.0)
        twin_b = view(station_id=2, tier=SBS, reserve=0.2, rate=4.0)
        assert fastest_view([twin_b, twin_a]).station_id == 1

    def test_truthful_when_affordable(self):
        v = view(rate=4.0, reserve=0.3)
        decision = decide_myopic(observation([v], budget=15.0, fee=0.1))
        assert decision.per_unit_bid == pytest.approx(4.0)

    def test_budget_clamp(self):
        v = view(rate=4.0, reserve=0.3, demand=1)
        decision = decide_myopic(observation([v], budget=1.5, fee=0.1))
        assert decision.per_unit_bid == pytest.approx(1.4)

    def test_clamped_bid_below_reserve_is_still_submitted(self):
        v = view(rate=4.0, reserve=0.5, demand=4)
        decision = decide_myopic(observation([v], budget=1.5, fee=0.1))
        assert not decision.abstained
        assert decision.per_unit_bid == pytest.approx(0.35)

    def test_abstains_when_reserve_unaffordable(self):
        v = view(rate=4.0, reserve=0.5)
        decision = decide_myopic(observation([v], budget=0.55, fee=0.1))
        assert decision.abstained

    def test_never_shops_below_the_fastest_station(self):
        pricey_fast = view(station_id=0, rate=6.0, reserve=5.0)
        cheap_slow = view(station_id=1, tier=SBS, rate=2.0, reserve=0.2)
        decision = decide_myopic(observation([pricey_fast, cheap_slow],
                                             budget=3.0, fee=0.1))
        assert decision.abstained

    def test_no_stations_means_abstention(self):
        assert decide_myopic(observation([])).abstained

    def test_no_stations_has_no_fastest_view(self):
        assert fastest_view(()) is None

    def test_clamped_bid_is_affordable_in_floats(self):
        v = view(reserve=0.0, demand=3)
        obs = observation([v], budget=0.053, fee=0.0)
        decision = decide_myopic(obs)
        assert decision.per_unit_bid == budget_cap(obs, v)
        assert 3 * decision.per_unit_bid <= 0.053


@st.composite
def market_observations(draw):
    stations = []
    competitors = {}
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        history = draw(st.lists(st.floats(0.1, 8.0), min_size=0, max_size=12))
        reserve = draw(st.floats(0.0, 3.0))
        stations.append(StationView(
            station_id=k,
            tier=MBS if k == 0 else SBS,
            capacity=draw(st.integers(1, 4)),
            reserve_price=reserve,
            rate_mbps=draw(st.floats(0.5, 10.0)),
            demand=draw(st.integers(1, 4)),
            price_history=EmpiricalPriceModel(history, reserve),
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


@st.composite
def crowded_observations(draw):
    """Capacity near the competitor count and hundreds of prices: the shapes
    where a tail summed in floats fell as the count of prices rose."""
    stations = []
    competitors = {}
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        rivals = draw(st.integers(1, 60))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        history = [rng.uniform(0.1, 8.0) for _ in range(draw(st.integers(100, 1600)))]
        reserve = draw(st.floats(0.0, 3.0))
        stations.append(StationView(
            station_id=k,
            tier=MBS if k == 0 else SBS,
            capacity=draw(st.integers(max(1, rivals - 8), rivals)),
            reserve_price=reserve,
            rate_mbps=draw(st.floats(0.5, 10.0)),
            demand=draw(st.integers(1, 4)),
            price_history=EmpiricalPriceModel(history, reserve),
        ))
        competitors[k] = rivals
    urgency = UrgencyState(
        base_value_per_mbps=0.5, max_value_per_mbps=1.0,
        consecutive_losses=draw(st.integers(0, 7)),
    )
    return MarketObservation(
        round_index=draw(st.integers(1, 40)), rounds_total=40,
        budget=draw(st.floats(0.2, 20.0)), entrance_fee=0.1,
        urgency=urgency, stations=tuple(stations), competitors=competitors,
    )


@given(obs=market_observations())
def test_greedy_respects_budget_and_reserve(obs):
    decision = greedy_decide(obs)
    if decision.abstained:
        # the engine's AbstentionRecord holds every abstention's bid as 0.0
        assert decision.per_unit_bid == 0.0
        return
    chosen = next(v for v in obs.stations if v.station_id == decision.station_id)
    assert decision.per_unit_bid >= chosen.reserve_price
    spend = chosen.demand * decision.per_unit_bid + obs.entrance_fee
    assert spend <= obs.budget + 1e-9


@given(obs=market_observations())
def test_myopic_respects_budget(obs):
    decision = decide_myopic(obs)
    if decision.abstained:
        # the engine's AbstentionRecord holds every abstention's bid as 0.0
        assert decision.per_unit_bid == 0.0
        return
    chosen = next(v for v in obs.stations if v.station_id == decision.station_id)
    spend = chosen.demand * decision.per_unit_bid + obs.entrance_fee
    assert spend <= obs.budget + 1e-9


@given(obs=market_observations())
def test_myopic_equals_the_reference(obs):
    decision = decide_myopic(obs)
    assert (decision.station_id, decision.per_unit_bid) == myopic_reference(obs)


@given(obs=market_observations())
def test_grid_argmax_reports_a_grid_point(obs):
    best = grid_argmax(obs)
    if best is None:
        return
    _, bid, chosen = best
    cap = budget_cap(obs, chosen)
    assert chosen.reserve_price <= bid <= cap


def prior_or_history(v):
    """The view's heard prices, or before any a fresh one-point model at its reserve."""
    if len(v.price_history) == 0:
        return EmpiricalPriceModel([v.reserve_price])
    return v.price_history


def reference_grid_argmax(obs):
    """Every station's grid scored by ``expected_utility``, keeping the points
    of positive utility; ties to the cheaper bid, then the lower station id."""
    scored = []
    for v in obs.stations:
        prices = prior_or_history(v)
        value = channel_valuation(obs.urgency, v.rate_mbps)
        grid = candidate_bids(value, prices.last, v.reserve_price,
                              budget_cap(obs, v))
        for bid in grid:
            competitors = obs.competitors[v.station_id]
            utility = expected_utility(bid, value, prices, competitors, v.capacity)
            if utility > 0.0:
                scored.append(((utility, -bid, -v.station_id), (utility, bid, v)))
    return max(scored, key=lambda item: item[0])[1] if scored else None


@given(obs=market_observations())
def test_grid_argmax_equals_the_reference_argmax(obs):
    assert grid_argmax(obs) == reference_grid_argmax(obs)


@given(obs=market_observations() | crowded_observations())
def test_grid_argmax_looks_up_one_or_a_few_probabilities(obs):
    # A station with no surplus costs no grid and no lookup.  Otherwise the
    # dearest grid point is looked up first, and a station it cannot win at
    # costs nothing more; the rest cost the cheapest point and a bisection of
    # the grid between the two.
    looked_up = Counter()
    bounded = []
    lookup = EmpiricalPriceModel.win_probability

    def counted(model, *args):
        looked_up[id(model)] += 1
        return lookup(model, *args)

    def counted_bounds(*args):
        bounded.append(args)
        return grid_bounds(*args)

    with mock.patch.object(EmpiricalPriceModel, "win_probability", counted), \
            mock.patch.object(strategy, "grid_bounds", counted_bounds):
        grid_argmax(obs)
    with_surplus = 0
    for v in obs.stations:
        lookups = looked_up[id(v.price_history)]
        prices = v.price_history
        value = channel_valuation(obs.urgency, v.rate_mbps)
        if value <= prices.mean():
            assert lookups == 0
            continue
        with_surplus += 1
        bounds = grid_bounds(value, prices.last, v.reserve_price, budget_cap(obs, v))
        if bounds is None:
            assert lookups == 0
        elif prices.win_probability(bounds[1], obs.competitors[v.station_id], v.capacity) == 0:
            assert lookups == 1
        else:
            assert 2 <= lookups <= 2 + math.ceil(math.log2(strategy.GRID_SIZE))
    assert len(bounded) == with_surplus


@given(obs=market_observations(), pace_cap=st.floats(0.0, 20.0))
def test_argmaxes_do_not_depend_on_station_order(obs, pace_cap):
    backwards = dataclasses.replace(obs, stations=obs.stations[::-1])
    assert grid_argmax(backwards) == grid_argmax(obs)
    assert _most_winnable_bid(backwards, pace_cap) == _most_winnable_bid(obs, pace_cap)


def reference_grid_bounds(*args):
    """The ends of the built grid."""
    grid = candidate_bids(*args)
    return (grid[0], grid[-1]) if grid else None


def reference_most_winnable_bid(obs, pace_cap):
    """The top of every station's built grid under the pacing cap, scored by
    the unmemoised win probability; certain losses are skipped, ties go to
    the cheaper bid, then the lower station id."""
    scored = []
    for v in obs.stations:
        prices = prior_or_history(v)
        value = channel_valuation(obs.urgency, v.rate_mbps)
        grid = candidate_bids(value, prices.last, v.reserve_price,
                              min(budget_cap(obs, v), pace_cap))
        if not grid:
            continue
        competitors = obs.competitors[v.station_id]
        prob = win_probability(grid[-1], competitors, v.capacity, prices)
        if prob > 0.0:
            scored.append(((prob, -grid[-1], -v.station_id), (prob, grid[-1], v)))
    return max(scored, key=lambda item: item[0])[1] if scored else None


@given(obs=market_observations(), pace_cap=st.floats(0.0, 20.0))
def test_most_winnable_bid_equals_the_reference(obs, pace_cap):
    assert _most_winnable_bid(obs, pace_cap) == reference_most_winnable_bid(obs, pace_cap)


@given(obs=crowded_observations(), pace_cap=st.floats(0.0, 20.0))
def test_crowded_argmaxes_equal_the_references(obs, pace_cap):
    # the closed-form argmax equals the full grid scan only if the win
    # probability never falls as the bid rises
    assert grid_argmax(obs) == reference_grid_argmax(obs)
    assert _most_winnable_bid(obs, pace_cap) == reference_most_winnable_bid(obs, pace_cap)


def test_greedy_heavy_run_matches_the_reference_argmax(monkeypatch):
    # 300 rounds of long price histories, with foresight UEs that reach the
    # service-chasing branch; the reference path scores every grid point
    # with the unmemoised closed form and reads the grid's top from the grid.
    config = SimulationConfig(
        population=PopulationConfig(
            num_ues=24, budget=200.0,
            strategy_counts={GREEDY: 16, FORESIGHT: 3, MYOPIC: 5},
        ),
        episodes=300, seed=12,
    )
    fast = play(config)
    monkeypatch.setattr(strategy, "grid_argmax", reference_grid_argmax)
    monkeypatch.setattr(llm_agent, "grid_argmax", reference_grid_argmax)
    monkeypatch.setattr(llm_agent, "grid_bounds", reference_grid_bounds)
    assert play(config) == fast


def test_each_batch_of_runs_starts_from_an_empty_memo(monkeypatch):
    # Every price model keeps its own memo for one run: each evaluation adds
    # one key to one model's memo, so no model evaluates a key twice, and a
    # second identical batch makes the same evaluations as the first,
    # whatever ran before it.
    evaluated = []
    models = []
    made = EmpiricalPriceModel.__init__

    def tracked(self, *args, **kwargs):
        made(self, *args, **kwargs)
        models.append(self)

    def counted(cdf, competitors, capacity):
        evaluated.append((cdf, competitors, capacity))
        return win_probability_given_cdf(cdf, competitors, capacity)

    monkeypatch.setattr(EmpiricalPriceModel, "__init__", tracked)
    monkeypatch.setattr(strategy, "win_probability_given_cdf", counted)
    config = SimulationConfig(
        population=PopulationConfig(strategy_counts={GREEDY: 30, MYOPIC: 10}),
        episodes=30, runs=3, seed=4,
    )
    run_simulation(config)
    first = list(evaluated)
    assert len(first) == sum(len(model._win) for model in models) > 0
    evaluated.clear()
    run_simulation(config)
    assert evaluated == first
