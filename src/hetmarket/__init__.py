"""Desk-scale simulator of repeated sealed-bid spectrum auctions in a
two-tier cellular network: stations sell identical sub-channels every round
under externality pricing, budget-constrained users pick a station and a bid
via pluggable policies, and everything is reproducible from a single seed."""

__version__ = "0.1.0"
