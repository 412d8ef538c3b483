from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from hetmarket.auction import (
    AuctionOutcome,
    AuctionRequest,
    reservation_price,
    run_vcg,
)
from hetmarket.netmodel import BaseStation

from oracles import bruteforce_payment, bruteforce_welfare, filtered_externality_payments


def make_requests(rows):
    return [
        AuctionRequest(bidder_id=i, quantity=q, per_unit_bid=b)
        for i, (q, b) in enumerate(rows)
    ]


class TestWorkedExamples:
    def test_three_bidder_capacity_three(self):
        requests = [
            AuctionRequest(bidder_id=1, quantity=2, per_unit_bid=5.0),
            AuctionRequest(bidder_id=2, quantity=2, per_unit_bid=4.0),
            AuctionRequest(bidder_id=3, quantity=1, per_unit_bid=3.0),
        ]
        outcome = run_vcg(requests, capacity=3, reserve=1.0)
        assert outcome.allocations == {1: 2, 2: 1}
        assert outcome.per_unit_payments[1] == pytest.approx(3.5)
        assert outcome.per_unit_payments[2] == pytest.approx(3.0)
        assert outcome.clearing_price == pytest.approx(4.0)

    def test_uncontested_pays_reserve(self):
        requests = [
            AuctionRequest(bidder_id=1, quantity=2, per_unit_bid=3.0),
            AuctionRequest(bidder_id=2, quantity=2, per_unit_bid=2.0),
        ]
        outcome = run_vcg(requests, capacity=4, reserve=1.0)
        assert outcome.allocations == {1: 2, 2: 2}
        # No displaced rival means the floor price applies to everyone.
        assert outcome.per_unit_payments[1] == pytest.approx(1.0)
        assert outcome.per_unit_payments[2] == pytest.approx(1.0)
        assert outcome.clearing_price == pytest.approx(1.0)

    def test_zero_reserve_single_bidder_pays_nothing(self):
        requests = [AuctionRequest(bidder_id=4, quantity=1, per_unit_bid=0.0)]
        outcome = run_vcg(requests, capacity=1, reserve=0.0)
        assert outcome.allocations == {4: 1}
        assert outcome.per_unit_payments[4] == pytest.approx(0.0)
        assert outcome.clearing_price == pytest.approx(0.0)

    def test_tie_resolved_by_lower_bidder_id(self):
        requests = [
            AuctionRequest(bidder_id=7, quantity=1, per_unit_bid=2.0),
            AuctionRequest(bidder_id=3, quantity=1, per_unit_bid=2.0),
        ]
        outcome = run_vcg(requests, capacity=1, reserve=0.5)
        assert outcome.allocations == {3: 1}
        assert outcome.clearing_price == pytest.approx(2.0)

    def test_bids_below_reserve_are_discarded(self):
        requests = [
            AuctionRequest(bidder_id=1, quantity=2, per_unit_bid=1.5),
            AuctionRequest(bidder_id=2, quantity=1, per_unit_bid=0.3),
        ]
        outcome = run_vcg(requests, capacity=4, reserve=2.0)
        assert outcome.allocations == {}
        assert outcome.per_unit_payments == {}
        assert outcome.clearing_price == pytest.approx(2.0)

    def test_no_requests_clears_at_reserve(self):
        outcome = run_vcg([], capacity=4, reserve=0.2)
        assert outcome.allocations == {}
        assert outcome.clearing_price == pytest.approx(0.2)


@pytest.mark.parametrize(
    "rows, reserve",
    [
        ([(2, 1.5), (1, 0.3), (4, 1.9999999999999998)], 2.0),
        ([(1, 0.0), (3, 0.25)], 0.5),
        ([], 2.0),
        ([], 0.0),
    ],
    ids=["below-reserve", "below-small-reserve", "no-requests", "no-requests-zero-reserve"],
)
def test_an_auction_no_request_can_win_clears_at_the_reserve(rows, reserve):
    requests = make_requests(rows)
    outcome = run_vcg(requests, capacity=3, reserve=reserve)
    # the oracles' outcome: no welfare to gain, so no winner and no payment,
    # and no claim to reject, so the clearing price is the reserve
    best, without = bruteforce_welfare(requests, 3, reserve)
    assert best == 0.0
    assert set(without.values()) <= {0.0}
    assert filtered_externality_payments(requests, 3, reserve) == {}
    assert outcome == AuctionOutcome(
        allocations={}, per_unit_payments={}, clearing_price=reserve, seller_utility_terms={}
    )
    assert outcome.clearing_price is reserve


@pytest.mark.parametrize(
    "requests, capacity, reserve, problem",
    [
        # the two requests of bidder 0 are both below the reserve
        (make_requests([(1, 0.5)]) * 2, 3, 2.0, "duplicate bidder id 0"),
        (make_requests([(1, 0.5)]), 0, 2.0, "capacity must be at least 1"),
        ([], 0, 2.0, "capacity must be at least 1"),
        ([], 3, -2.0, "reserve cannot be negative"),
    ],
    ids=["duplicate-ids", "no-capacity", "no-capacity-no-requests", "negative-reserve"],
)
def test_an_auction_no_request_can_win_still_checks_its_arguments(
    requests, capacity, reserve, problem
):
    with pytest.raises(ValueError, match=f"^{problem}$"):
        run_vcg(requests, capacity, reserve)


class TestValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            run_vcg([], capacity=0, reserve=1.0)

    def test_rejects_negative_reserve(self):
        requests = [AuctionRequest(bidder_id=1, quantity=1, per_unit_bid=2.0)]
        with pytest.raises(ValueError, match="reserve cannot be negative"):
            run_vcg(requests, capacity=1, reserve=-0.5)

    def test_rejects_duplicate_bidders(self):
        requests = [
            AuctionRequest(bidder_id=1, quantity=1, per_unit_bid=2.0),
            AuctionRequest(bidder_id=1, quantity=1, per_unit_bid=3.0),
        ]
        with pytest.raises(ValueError):
            run_vcg(requests, capacity=2, reserve=0.0)

    def test_rejects_bad_request_fields(self):
        with pytest.raises(ValueError):
            AuctionRequest(bidder_id=1, quantity=0, per_unit_bid=1.0)
        with pytest.raises(ValueError):
            AuctionRequest(bidder_id=1, quantity=1, per_unit_bid=-0.5)


class TestReservationPrice:
    def test_scales_with_transmit_power(self):
        mbs = BaseStation(
            id=0, tier="MBS", position=(0.0, 0.0), tx_power_watts=40.0,
            num_channels=4, power_unit_price=0.1,
        )
        sbs = BaseStation(
            id=1, tier="SBS", position=(10.0, 0.0), tx_power_watts=4.0,
            num_channels=4, power_unit_price=0.1,
        )
        assert reservation_price(mbs) == pytest.approx(4.0)
        assert reservation_price(sbs) == pytest.approx(0.4)

    def test_free_power_means_zero_reserve(self):
        bs = BaseStation(
            id=0, tier="MBS", position=(0.0, 0.0), tx_power_watts=40.0,
            num_channels=4, power_unit_price=0.0,
        )
        assert reservation_price(bs) == 0.0


class TestSellerUtility:
    def test_worked_example_margins(self):
        requests = [
            AuctionRequest(bidder_id=1, quantity=2, per_unit_bid=5.0),
            AuctionRequest(bidder_id=2, quantity=2, per_unit_bid=4.0),
            AuctionRequest(bidder_id=3, quantity=1, per_unit_bid=3.0),
        ]
        outcome = run_vcg(requests, capacity=3, reserve=1.0)
        margins = outcome.seller_utility_terms
        assert margins[1] == pytest.approx(5.0)
        assert margins[2] == pytest.approx(2.0)

    def test_margins_never_negative(self):
        requests = make_requests([(2, 3.0), (2, 2.0)])
        outcome = run_vcg(requests, capacity=4, reserve=1.0)
        for margin in outcome.seller_utility_terms.values():
            assert margin >= 0.0


request_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.0, max_value=10.0),
    ),
    min_size=1,
    max_size=6,
).map(make_requests)


@given(
    requests=request_lists,
    capacity=st.integers(min_value=1, max_value=4),
    reserve=st.floats(min_value=0.0, max_value=5.0),
)
def test_allocation_is_feasible_and_eligible(requests, capacity, reserve):
    outcome = run_vcg(requests, capacity, reserve)
    by_id = {r.bidder_id: r for r in requests}
    assert sum(outcome.allocations.values()) <= capacity
    for bidder, won in outcome.allocations.items():
        assert 1 <= won <= by_id[bidder].quantity
        assert by_id[bidder].per_unit_bid >= reserve


@given(
    requests=request_lists,
    capacity=st.integers(min_value=1, max_value=4),
    reserve=st.floats(min_value=0.0, max_value=5.0),
)
def test_allocation_maximises_declared_value(requests, capacity, reserve):
    outcome = run_vcg(requests, capacity, reserve)
    by_id = {r.bidder_id: r for r in requests}
    achieved = sum(
        won * by_id[bidder].per_unit_bid
        for bidder, won in outcome.allocations.items()
    )
    best, _ = bruteforce_welfare(requests, capacity, reserve)
    assert achieved == pytest.approx(best, abs=1e-9)


@given(
    requests=request_lists,
    capacity=st.integers(min_value=1, max_value=4),
    reserve=st.floats(min_value=0.0, max_value=5.0),
)
def test_payments_match_externality_with_floor(requests, capacity, reserve):
    outcome = run_vcg(requests, capacity, reserve)
    by_id = {r.bidder_id: r for r in requests}
    best, without = bruteforce_welfare(requests, capacity, reserve)
    for bidder, won in outcome.allocations.items():
        bid = by_id[bidder].per_unit_bid
        paid = outcome.per_unit_payments[bidder]
        expected = bruteforce_payment(bidder, won, bid, best, without, reserve)
        assert paid == pytest.approx(expected, abs=1e-9)
        assert reserve <= paid <= bid


def test_rounding_never_charges_above_the_bid():
    # bidder 0 displaces bidder 1's three claims of 0.1; their exact sum,
    # 0.30000000000000004, over 3 is 0.10000000000000002 in floats
    outcome = run_vcg(make_requests([(3, 0.1), (3, 0.1)]), capacity=3, reserve=0.0)
    assert outcome.per_unit_payments == {0: 0.1}


def test_each_winner_pays_exactly_the_claim_it_displaces():
    # each winner displaces the 0.1 claim; the difference of the float totals
    # with and without a winner is a few ulps off 0.1 here, and off by other
    # ulps on Python 3.12, whose sum() is compensated
    requests = make_requests([(1, 0.1), (1, 0.2), (1, 0.3), (1, 0.4)])
    outcome = run_vcg(requests, capacity=3, reserve=0.0)
    assert outcome.per_unit_payments == {1: 0.1, 2: 0.1, 3: 0.1}


def test_a_winner_that_displaces_nothing_pays_the_reserve():
    # four claims for four channels; the difference of the float totals is
    # 3.55e-15 and 7.4e-16 on Python 3.12
    requests = make_requests([(1, 3.1), (3, 5.376188137058657)])
    outcome = run_vcg(requests, capacity=4, reserve=0.0)
    assert outcome.per_unit_payments == {0: 0.0, 1: 0.0}


# few distinct bids, so ties between bidders are common; quantities above
# the capacity force partial fills
tied_request_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.one_of(st.sampled_from([0.5, 1.25, 2.0, 3.1]), st.floats(0.0, 10.0)),
    ),
    min_size=1,
    max_size=8,
).map(make_requests)


@given(
    requests=tied_request_lists,
    capacity=st.integers(min_value=1, max_value=10),
    reserve=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_payments_equal_the_filtered_claims_formulation(requests, capacity, reserve):
    # exact equality: the claims past the bidder's block and the winners are
    # the same floats, in the same order, as the filtered others' claims
    outcome = run_vcg(requests, capacity, reserve)
    assert outcome.per_unit_payments == filtered_externality_payments(
        requests, capacity, reserve
    )


def bit_for_bit(outcome):
    """The outcome with its maps in order and its floats as hex, so a zero's sign counts."""
    return (
        list(outcome.allocations.items()),
        [(i, p.hex()) for i, p in outcome.per_unit_payments.items()],
        outcome.clearing_price.hex(),
        [(i, m.hex()) for i, m in outcome.seller_utility_terms.items()],
    )


@given(
    rows=st.lists(
        st.tuples(st.integers(1, 6), st.sampled_from([-0.0, 0.0, 0.5, 1.25, 2.0])),
        min_size=1, max_size=8,
    ),
    capacity=st.integers(min_value=1, max_value=10),
    reserve=st.sampled_from([0.0, 0.5, 1.0]),
    data=st.data(),
)
def test_outcome_does_not_depend_on_the_order_of_the_requests(rows, capacity, reserve, data):
    # make_requests numbers bidders in list order; a drawn permutation hands
    # run_vcg tied bids out of id order, and the lower id must still come first
    requests = make_requests(rows)
    shuffled = data.draw(st.permutations(requests))
    assert bit_for_bit(run_vcg(shuffled, capacity, reserve)) == bit_for_bit(
        run_vcg(requests, capacity, reserve)
    )


@given(
    requests=request_lists,
    capacity=st.integers(min_value=1, max_value=4),
    reserve=st.floats(min_value=0.0, max_value=5.0),
)
def test_clearing_price_is_best_rejected_claim(requests, capacity, reserve):
    outcome = run_vcg(requests, capacity, reserve)
    unit_bids = sorted(
        (r.per_unit_bid for r in requests if r.per_unit_bid >= reserve
         for _ in range(r.quantity)),
        reverse=True,
    )
    if len(unit_bids) > capacity:
        assert outcome.clearing_price == pytest.approx(unit_bids[capacity])
    else:
        assert outcome.clearing_price == pytest.approx(reserve)


def test_unit_demand_truthfulness_spot_check():
    """Misreporting a single-channel valuation never helps."""
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 5)
        capacity = rng.randint(1, 3)
        reserve = rng.uniform(0.0, 3.0)
        values = [rng.uniform(0.0, 8.0) for _ in range(n)]

        def utility_of(bid0: float) -> float:
            requests = [
                AuctionRequest(bidder_id=0, quantity=1, per_unit_bid=bid0)
            ] + [
                AuctionRequest(bidder_id=i, quantity=1, per_unit_bid=values[i])
                for i in range(1, n)
            ]
            outcome = run_vcg(requests, capacity, reserve)
            won = outcome.allocations.get(0, 0)
            if not won:
                return 0.0
            return won * (values[0] - outcome.per_unit_payments[0])

        truthful = utility_of(values[0])
        for step in range(15):
            deviation = 9.0 * step / 14.0
            assert utility_of(deviation) <= truthful + 1e-9


def test_outcome_is_plain_data():
    outcome = AuctionOutcome(
        allocations={1: 2},
        per_unit_payments={1: 3.0},
        clearing_price=3.0,
        seller_utility_terms={1: 2.0},
    )
    assert math.isclose(outcome.per_unit_payments[1] * outcome.allocations[1], 6.0)
