"""Physical layer for a two-tier downlink cellular topology.

Geometry is static for the lifetime of a simulation run: stations and users
keep their positions, so per-channel rates are constants that can be computed
once and reused every auction round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

MBS = "MBS"
SBS = "SBS"

FULL_COCHANNEL = "full_cochannel"
NO_INTERFERENCE = "none"


@dataclass(frozen=True)
class BaseStation:
    """One station selling identical downlink sub-channels."""

    id: int
    tier: str
    position: tuple[float, float]
    tx_power_watts: float
    num_channels: int
    power_unit_price: float

    def __post_init__(self) -> None:
        if problems := station_problems(
            self.tier, self.tx_power_watts, self.num_channels, self.power_unit_price
        ):
            raise ValueError("; ".join(problems))


def station_problems(
    tier: str, tx_power_watts: float, num_channels: int, power_unit_price: float,
    power_key: str = "tx_power_watts", channels_key: str = "num_channels",
) -> list[str]:
    """Every rule a station's settings break, naming its power and channel
    count by the given keys."""
    rules = [
        (tier not in (MBS, SBS), f"unknown tier {tier!r}"),
        (not tx_power_watts > 0, f"{power_key} must be positive"),  # NaN fails it too
        (num_channels < 1, f"{channels_key} must be at least 1"),
        # a -0.0 price passes ``< 0`` and would be broadcast as a -0.0 reserve
        (math.copysign(1.0, power_unit_price) < 0, "power_unit_price must be nonnegative"),
    ]
    return [line for broken, line in rules if broken]


@dataclass(frozen=True)
class UserEquipment:
    """A downlink user at a position, with a rate requirement."""

    id: int
    position: tuple[float, float]
    qos_rate_bps: float

    def __post_init__(self) -> None:
        if self.qos_rate_bps <= 0:
            raise ValueError("qos_rate_bps must be positive")


@dataclass(frozen=True)
class ChannelModel:
    """Log-distance path loss plus thermal noise, per-tier exponents."""

    bandwidth_hz: float = 1e6
    noise_density_w_per_hz: float = 4e-21
    mbs_pathloss_exponent: float = 3.0
    sbs_pathloss_exponent: float = 3.5
    reference_distance_m: float = 1.0
    interference_mode: str = FULL_COCHANNEL

    def pathloss_exponent(self, tier: str) -> float:
        return self.mbs_pathloss_exponent if tier == MBS else self.sbs_pathloss_exponent


@dataclass(frozen=True)
class Topology:
    """All stations plus the shared channel model."""

    stations: tuple[BaseStation, ...]
    channel: ChannelModel

    def __post_init__(self) -> None:
        ids = [bs.id for bs in self.stations]
        if len(ids) != len(set(ids)):
            raise ValueError("station ids must be distinct")
        macros = [bs for bs in self.stations if bs.tier == MBS]
        if len(macros) != 1:
            raise ValueError("topology needs exactly one macro station")
        smalls = [bs.tx_power_watts for bs in self.stations if bs.tier == SBS]
        if problems := tier_power_problems(macros[0].tx_power_watts, smalls):
            raise ValueError("; ".join(problems))


def tier_power_problems(mbs_power_watts: float, sbs_powers: Iterable[float]) -> list[str]:
    """The rule the macro's and the small cells' powers break, if any."""
    broken = any(power >= mbs_power_watts for power in sbs_powers)
    return ["sbs_power_watts must be below mbs_power_watts"] if broken else []


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def path_gain(bs: BaseStation, ue: UserEquipment, channel: ChannelModel) -> float:
    """Log-distance gain, flat inside the reference distance."""
    effective = max(distance(bs.position, ue.position), channel.reference_distance_m)
    exponent = channel.pathloss_exponent(bs.tier)
    return (effective / channel.reference_distance_m) ** (-exponent)


def sinr(bs: BaseStation, ue: UserEquipment, topology: Topology) -> float:
    """Signal-to-interference-plus-noise ratio on one sub-channel.

    Under ``full_cochannel`` every other station contributes interference at
    full transmit power; under ``none`` the result reduces to plain SNR.
    """
    channel = topology.channel
    signal = bs.tx_power_watts * path_gain(bs, ue, channel)
    noise = channel.noise_density_w_per_hz * channel.bandwidth_hz
    interference = 0.0
    if channel.interference_mode == FULL_COCHANNEL:
        for other in topology.stations:
            if other.id == bs.id:
                continue
            interference += other.tx_power_watts * path_gain(other, ue, channel)
    return signal / (interference + noise)


def achievable_rate_bps(bs: BaseStation, ue: UserEquipment, topology: Topology) -> float:
    """Shannon rate of one sub-channel in bits per second."""
    return topology.channel.bandwidth_hz * math.log2(1.0 + sinr(bs, ue, topology))


def channel_demand(ue: UserEquipment, rate_per_channel_bps: float) -> int | None:
    """Fewest whole sub-channels covering the QoS rate, at least one; None if
    unservable, as where no finite count covers it because the quotient
    overflows.  The floor holds where the quotient underflows to 0."""
    if rate_per_channel_bps <= 0.0:
        return None
    channels = ue.qos_rate_bps / rate_per_channel_bps
    if math.isinf(channels):
        return None
    return max(1, math.ceil(channels))
