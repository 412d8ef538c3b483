"""Desk-scale simulator of repeated sealed-bid spectrum auctions in a
two-tier cellular network: stations sell identical sub-channels every round
under externality pricing, budget-constrained users pick a station and a bid
via pluggable policies, and everything is reproducible from a single seed."""

from .auction import AuctionOutcome, AuctionRequest, reservation_price, run_vcg
from .engine import (
    AuctionConfig,
    MetricsReport,
    PopulationConfig,
    SimulationConfig,
    TopologyConfig,
    UrgencyConfig,
    compute_metrics,
    run_simulation,
)
from .llm_agent import (
    ForesightPolicy,
    LlmEndpointConfig,
    foresight_decide,
    llm_decide,
    parse_reply,
    render_prompt,
)
from .netmodel import (
    BaseStation,
    ChannelModel,
    Topology,
    UserEquipment,
    achievable_rate_bps,
    channel_demand,
    sinr,
)
from .strategy import (
    BidDecision,
    EmpiricalPriceModel,
    MarketObservation,
    StationView,
    candidate_bids,
    greedy_decide,
    myopic_decide,
)
from .valuation import UrgencyState, channel_valuation, urgency_factor

__version__ = "0.1.0"
