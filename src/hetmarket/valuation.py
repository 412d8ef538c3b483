"""Urgency-scaled channel valuations.

A user values one sub-channel in proportion to the rate it delivers.  The
proportionality factor starts at a baseline and climbs linearly with each
consecutive round the user walked away empty-handed, saturating at a ceiling
after a fixed number of losses.  Any win snaps the factor back to baseline.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class UrgencyState:
    """Loss streak plus the parameters mapping it to a value factor.

    ``value_per_mbps`` is the current factor: the baseline plus one equal
    increment per loss, capped at the ceiling.
    """

    base_value_per_mbps: float
    max_value_per_mbps: float
    consecutive_losses: int = 0
    saturation_losses: int = 5
    value_per_mbps: float = field(init=False)

    def __post_init__(self) -> None:
        # each check fails for NaN, which min() would turn into the ceiling
        if not self.base_value_per_mbps > 0:
            raise ValueError("base_value_per_mbps must be positive")
        if not self.max_value_per_mbps >= self.base_value_per_mbps:
            raise ValueError("max_value_per_mbps must be at least the base value")
        if not self.saturation_losses >= 1:
            raise ValueError("saturation_losses must be at least 1")
        # the increment divides by it as a float
        if self.saturation_losses > sys.float_info.max:
            raise ValueError("saturation_losses must be at most the largest float")
        if self.consecutive_losses < 0:
            raise ValueError("consecutive_losses cannot be negative")
        increment = (self.max_value_per_mbps - self.base_value_per_mbps) / self.saturation_losses
        raw = self.base_value_per_mbps + increment * self.consecutive_losses
        object.__setattr__(self, "value_per_mbps", min(self.max_value_per_mbps, raw))


def channel_valuation(state: UrgencyState, rate_mbps: float) -> float:
    """Willingness to pay for one sub-channel delivering ``rate_mbps``."""
    if rate_mbps < 0:
        raise ValueError("rate_mbps cannot be negative")
    return state.value_per_mbps * rate_mbps
