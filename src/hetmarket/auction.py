"""Sealed-bid multi-unit auction with externality pricing.

Each station sells ``capacity`` identical sub-channels per round.  A request
names a quantity and a single per-unit bid; requests below the station's
reservation price are discarded.  Remaining requests are sorted by falling
bid, then expanded into unit claims, and the highest claims win, so partial
fills are possible.  A winner pays its externality: the best total value the
others could have realized without it, minus the value the others actually
realized, spread evenly over its units, never below the reservation price nor
above its own bid.  That difference is the sum of the claims it displaces,
which is taken exactly, so a seed gives the same payments on every Python
version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

from .netmodel import BaseStation


@dataclass(slots=True)
class AuctionRequest:
    """One bidder's sealed request: quantity at a flat per-unit price.

    Built for one auction, and no code assigns to it, so it is not frozen,
    which saves an ``object.__setattr__`` per field.
    """

    bidder_id: int
    quantity: int
    per_unit_bid: float

    def __post_init__(self) -> None:
        if self.quantity < 1:
            raise ValueError("quantity must be at least 1")
        if self.per_unit_bid < 0:
            raise ValueError("per_unit_bid cannot be negative")


@dataclass(frozen=True)
class AuctionOutcome:
    """Allocation, pricing, and the public clearing price for one round."""

    allocations: dict[int, int] = field(default_factory=dict)
    per_unit_payments: dict[int, float] = field(default_factory=dict)
    clearing_price: float = 0.0
    # station margin per winner: units sold times payment above the reserve
    seller_utility_terms: dict[int, float] = field(default_factory=dict)


def reservation_price(bs: BaseStation) -> float:
    """Per-channel energy cost the station refuses to sell below."""
    return bs.power_unit_price * bs.tx_power_watts


def run_vcg(
    requests: list[AuctionRequest], capacity: int, reserve: float
) -> AuctionOutcome:
    """Clear one round at a single station.

    Ties on the per-unit bid are broken toward the lower bidder id.  The
    clearing price reported to everyone is the highest rejected per-unit bid
    among reserve-meeting claims, falling back to the reservation price when
    nothing was rejected; a partially filled bidder's unserved units count as
    rejected claims at its own bid.  When no request meets the reserve,
    nothing is sorted or cleared: once the arguments and the ids are
    checked, the outcome is empty maps and the reservation price.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if reserve < 0:
        raise ValueError("reserve cannot be negative")
    seen: set[int] = set()
    for req in requests:
        if req.bidder_id in seen:
            raise ValueError(f"duplicate bidder id {req.bidder_id}")
        seen.add(req.bidder_id)

    eligible = [r for r in requests if r.per_unit_bid >= reserve]
    if not eligible:
        return AuctionOutcome(clearing_price=reserve)
    # falling bids, lower ids first among equal ones: a bidder's claims are
    # equal, so expanding the sorted requests gives the claims in sorted order
    eligible.sort(key=attrgetter("bidder_id"))
    eligible.sort(key=attrgetter("per_unit_bid"), reverse=True)
    claims: list[tuple[float, int]] = []
    winners: list[tuple[AuctionRequest, int, int]] = []  # (request, first claim, units won)
    allocations: dict[int, int] = {}
    for req in eligible:
        start = len(claims)
        if start < capacity:
            won = min(req.quantity, capacity - start)
            winners.append((req, start, won))
            allocations[req.bidder_id] = won
        claims += [(req.per_unit_bid, req.bidder_id)] * req.quantity

    if len(claims) > capacity:
        clearing_price = claims[capacity][0]
    else:
        clearing_price = reserve

    per_unit_payments: dict[int, float] = {}
    seller_utility_terms: dict[int, float] = {}
    for req, start, won in winners:
        # a bidder's claims are contiguous, so without its block the others'
        # best ``capacity`` claims are the winners it sits beside plus the
        # ``won`` claims just past both the block and the winners; those
        # displaced claims are its externality, summed exactly
        displaced = max(start + req.quantity, capacity)
        externality = math.fsum(claim for claim, _ in claims[displaced : displaced + won])
        # the clamp to the bid stops the division from rounding a few ulps above it
        payment = min(req.per_unit_bid, max(reserve, externality / won))
        per_unit_payments[req.bidder_id] = payment
        seller_utility_terms[req.bidder_id] = won * (payment - reserve)

    return AuctionOutcome(
        allocations=allocations,
        per_unit_payments=per_unit_payments,
        clearing_price=clearing_price,
        seller_utility_terms=seller_utility_terms,
    )

