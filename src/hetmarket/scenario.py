"""Scenario files and built-in presets.

Scenario files are flat INI-style text with six known sections.  Parsing is
strict: an unknown section or key is an error with its location spelled out,
while a missing key silently takes the documented default (reported once at
INFO level so quiet runs stay quiet).
"""

from __future__ import annotations

import configparser
import logging
from typing import Callable

from .engine import (
    FORESIGHT,
    GREEDY,
    LLM,
    MYOPIC,
    AuctionConfig,
    ConfigurationError,
    PopulationConfig,
    SimulationConfig,
    TopologyConfig,
    UrgencyConfig,
)
from .llm_agent import ForesightPolicy, LlmEndpointConfig
from .netmodel import ChannelModel

log = logging.getLogger(__name__)

PRESETS = ("scenario1", "scenario2")


def _float(text: str) -> float:
    return float(text)


def _int(text: str) -> int:
    return int(text)


def _str(text: str) -> str:
    return text.strip()


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# section -> key -> (parser, default); None default means "derived later"
_SCHEMA: dict[str, dict[str, tuple[Callable, object]]] = {
    "topology": {
        "num_sbs": (_int, 2),
        "mbs_power_watts": (_float, 40.0),
        "sbs_power_watts": (_float, 4.0),
        "channels_per_station": (_int, 4),
        "power_unit_price": (_float, 0.05),
        "macro_radius_m": (_float, 500.0),
        "sbs_ring_radius_m": (_float, 250.0),
        "bandwidth_hz": (_float, 1e6),
        "noise_density_w_per_hz": (_float, 4e-21),
        "mbs_pathloss_exponent": (_float, 3.0),
        "sbs_pathloss_exponent": (_float, 3.5),
        "reference_distance_m": (_float, 1.0),
        "interference_mode": (_str, "full_cochannel"),
    },
    "population": {
        "num_ues": (_int, 40),
        "budget": (_float, 15.0),
        "qos_classes_mbps": (_float_list, (2.0, 4.0, 8.0)),
        "myopic": (_int, None),
        "greedy": (_int, 0),
        "llm": (_int, 0),
        "foresight": (_int, 0),
    },
    "auction": {
        "entrance_fee": (_float, 0.1),
        "competitor_mode": (_str, "uniform"),
    },
    "valuation": {
        "base_value_per_mbps": (_float_list, (0.5,)),
        "max_value_per_mbps": (_float_list, (1.0,)),
        "saturation_losses": (_int_list, (5,)),
    },
    "llm": {
        "base_url": (_str, ""),
        "model_name": (_str, ""),
        "api_key_env_var": (_str, "LLM_API_KEY"),
        "timeout_ms": (_int, 10000),
        "max_retries": (_int, 1),
        "temperature": (_float, 0.0),
        "foresight_threshold": (_float, 0.5),
        "foresight_pacing": (_float, 0.5),
    },
    "simulation": {
        "episodes": (_int, 40),
        "runs": (_int, 1),
        "seed": (_int, 0),
        "jobs": (_int, 1),
    },
}


def parse_scenario_text(text: str, source: str = "<scenario>") -> SimulationConfig:
    """Parse and validate scenario text; raises ConfigurationError listing problems."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError([str(exc)]) from exc

    problems: list[str] = []
    values: dict[str, dict[str, object]] = {}
    for section, keys in _SCHEMA.items():
        values[section] = {key: default for key, (_, default) in keys.items()}

    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"{source}: unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                problems.append(f"{source}: unknown key '{key}' in [{section}]")
                continue
            convert = _SCHEMA[section][key][0]
            try:
                values[section][key] = convert(raw)
            except ValueError:
                problems.append(
                    f"{source}: bad value {raw!r} for '{key}' in [{section}]"
                )
        for key, (_, default) in _SCHEMA[section].items():
            if not parser.has_option(section, key) and default is not None:
                log.info("%s: [%s] %s defaulted to %r", source, section, key, default)
    if problems:
        raise ConfigurationError(problems)

    pop = values["population"]
    if pop["myopic"] is None:
        explicit = sum(pop[s] for s in (GREEDY, LLM, FORESIGHT))
        pop["myopic"] = max(0, pop["num_ues"] - explicit)
        log.info("%s: [population] myopic defaulted to %d", source, pop["myopic"])

    topo = values["topology"]
    try:
        channel = ChannelModel(
            bandwidth_hz=topo["bandwidth_hz"],
            noise_density_w_per_hz=topo["noise_density_w_per_hz"],
            mbs_pathloss_exponent=topo["mbs_pathloss_exponent"],
            sbs_pathloss_exponent=topo["sbs_pathloss_exponent"],
            reference_distance_m=topo["reference_distance_m"],
            interference_mode=topo["interference_mode"],
        )
    except ValueError as exc:
        raise ConfigurationError([f"{source}: {exc}"]) from exc

    sim = values["simulation"]
    llm = values["llm"]
    return SimulationConfig(
        topology=TopologyConfig(
            num_small_cells=topo["num_sbs"],
            mbs_power_watts=topo["mbs_power_watts"],
            sbs_power_watts=topo["sbs_power_watts"],
            channels_per_station=topo["channels_per_station"],
            power_unit_price=topo["power_unit_price"],
            macro_radius_m=topo["macro_radius_m"],
            sbs_ring_radius_m=topo["sbs_ring_radius_m"],
            channel=channel,
        ),
        population=PopulationConfig(
            num_ues=pop["num_ues"],
            budget=pop["budget"],
            qos_classes_mbps=pop["qos_classes_mbps"],
            strategy_counts={
                MYOPIC: pop["myopic"],
                GREEDY: pop["greedy"],
                LLM: pop["llm"],
                FORESIGHT: pop["foresight"],
            },
        ),
        auction=AuctionConfig(
            entrance_fee=values["auction"]["entrance_fee"],
            competitor_mode=values["auction"]["competitor_mode"],
        ),
        urgency=UrgencyConfig(
            base_value_per_mbps=values["valuation"]["base_value_per_mbps"],
            max_value_per_mbps=values["valuation"]["max_value_per_mbps"],
            saturation_losses=values["valuation"]["saturation_losses"],
        ),
        endpoint=LlmEndpointConfig(
            base_url=llm["base_url"],
            model_name=llm["model_name"],
            api_key_env_var=llm["api_key_env_var"],
            timeout_ms=llm["timeout_ms"],
            max_retries=llm["max_retries"],
            temperature=llm["temperature"],
        ),
        foresight=ForesightPolicy(
            threshold_fraction=llm["foresight_threshold"],
            pacing_fraction=llm["foresight_pacing"],
        ),
        episodes=sim["episodes"],
        runs=sim["runs"],
        seed=sim["seed"],
        jobs=sim["jobs"],
    )


def load_scenario_file(path: str) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read(), source=path)


def scenario1() -> SimulationConfig:
    """Mixed population: one LLM bidder, one greedy, the rest myopic."""
    return SimulationConfig(
        population=PopulationConfig(
            strategy_counts={LLM: 1, FORESIGHT: 0, GREEDY: 1, MYOPIC: 38}
        )
    )


def scenario2() -> SimulationConfig:
    """Adversarial population: one LLM bidder against all-greedy rivals."""
    return SimulationConfig(
        population=PopulationConfig(
            strategy_counts={LLM: 1, FORESIGHT: 0, GREEDY: 39, MYOPIC: 0}
        )
    )


def preset(name: str) -> SimulationConfig:
    if name == "scenario1":
        return scenario1()
    if name == "scenario2":
        return scenario2()
    raise ConfigurationError([f"unknown preset {name!r}"])
