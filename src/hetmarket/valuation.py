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
        settings = (self.base_value_per_mbps, self.max_value_per_mbps, self.saturation_losses)
        if problems := urgency_problems(*settings, self.consecutive_losses):
            raise ValueError("; ".join(problems))
        increment = (self.max_value_per_mbps - self.base_value_per_mbps) / self.saturation_losses
        raw = self.base_value_per_mbps + increment * self.consecutive_losses
        object.__setattr__(self, "value_per_mbps", min(self.max_value_per_mbps, raw))


def urgency_problems(base: float, ceiling: float, saturation: int, losses: int = 0) -> list[str]:
    """Every rule an urgency state's base value, maximum value, saturation
    losses and consecutive losses break."""
    # each of the first three checks fails for NaN, which min() would turn
    # into the ceiling; the increment divides by saturation_losses as a float
    rules = [
        (not base > 0, "base_value_per_mbps must be positive"),
        (not ceiling >= base, "max_value_per_mbps must be at least the base value"),
        (not saturation >= 1, "saturation_losses must be at least 1"),
        (saturation > sys.float_info.max, "saturation_losses must be at most the largest float"),
        (losses < 0, "consecutive_losses cannot be negative"),
    ]
    return [line for broken, line in rules if broken]


def channel_valuation(state: UrgencyState, rate_mbps: float) -> float:
    """Willingness to pay for one sub-channel delivering ``rate_mbps``."""
    if rate_mbps < 0:
        raise ValueError("rate_mbps cannot be negative")
    return state.value_per_mbps * rate_mbps
