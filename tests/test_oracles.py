"""Hand-worked values of the exact reference implementations themselves."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hetmarket.auction import AuctionRequest

from oracles import bruteforce_welfare, exact_win_probability


def test_win_probability_of_a_bid_between_the_prices():
    # half the prices are above 2.5, and both competitors must draw below it
    assert exact_win_probability([1, 2, 3, 4], 2.5, 2, 1) == Fraction(1, 4)


def test_a_bid_equal_to_every_price_wins_for_sure():
    # only a draw strictly above the bid is stronger
    assert exact_win_probability([2.0, 2.0, 2.0], 2.0, 5, 1) == 1


@pytest.mark.parametrize(
    "competitors, capacity",
    [(0, 1), (0, 4), (2, 3)],
    ids=["no-competitors", "no-competitors-many-units", "more-units-than-competitors"],
)
def test_a_bid_no_competitor_can_crowd_out_wins_for_sure(competitors, capacity):
    # every price is above the bid, yet there are too few rivals to take every unit
    assert exact_win_probability([1.0, 5.0, 9.0], 0.5, competitors, capacity) == 1


def test_welfare_of_a_small_auction():
    # three units: bidder 0 takes two at 3.0 and bidder 1 one at 2.0, for 8.0;
    # without 0, bidder 1's unit and two of bidder 2's at 1.0 make 4.0;
    # without 1, bidder 0's two units and one of bidder 2's make 7.0; bidder
    # 2 wins nothing and bidder 3 is below the reserve of 0.5, so without
    # either the best is still 8.0
    requests = [
        AuctionRequest(bidder_id=0, quantity=2, per_unit_bid=3.0),
        AuctionRequest(bidder_id=1, quantity=1, per_unit_bid=2.0),
        AuctionRequest(bidder_id=2, quantity=2, per_unit_bid=1.0),
        AuctionRequest(bidder_id=3, quantity=1, per_unit_bid=0.25),
    ]
    assert bruteforce_welfare(requests, 3, 0.5) == (8.0, {0: 4.0, 1: 7.0, 2: 8.0, 3: 8.0})
