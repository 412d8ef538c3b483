"""Scenario files and built-in presets.

Scenario files are flat INI-style text with six known sections.  Parsing is
strict: an unknown section or key is an error with its location spelled out,
while a missing key silently takes the default of the config field it sets
(reported once at INFO level so quiet runs stay quiet).
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import replace
from typing import Callable

from .engine import (
    FORESIGHT,
    GREEDY,
    LLM,
    MYOPIC,
    ConfigurationError,
    PopulationConfig,
    SimulationConfig,
)

log = logging.getLogger(__name__)

_COUNTS = "population.strategy_counts."

# section -> key -> dotted path of the SimulationConfig field it sets.  A key's
# default is that field's value in SimulationConfig(), and its text is read as
# the default's type (a tuple as comma-separated items of its first item's
# type), so float fields keep float defaults such as 40.0.
_KEYS: dict[str, dict[str, str]] = {
    "topology": {
        "num_sbs": "topology.num_small_cells",
        "mbs_power_watts": "topology.mbs_power_watts",
        "sbs_power_watts": "topology.sbs_power_watts",
        "channels_per_station": "topology.channels_per_station",
        "power_unit_price": "topology.power_unit_price",
        "macro_radius_m": "topology.macro_radius_m",
        "sbs_ring_radius_m": "topology.sbs_ring_radius_m",
        "bandwidth_hz": "topology.channel.bandwidth_hz",
        "noise_density_w_per_hz": "topology.channel.noise_density_w_per_hz",
        "mbs_pathloss_exponent": "topology.channel.mbs_pathloss_exponent",
        "sbs_pathloss_exponent": "topology.channel.sbs_pathloss_exponent",
        "reference_distance_m": "topology.channel.reference_distance_m",
        "interference_mode": "topology.channel.interference_mode",
    },
    "population": {
        "num_ues": "population.num_ues",
        "budget": "population.budget",
        "qos_classes_mbps": "population.qos_classes_mbps",
        # an omitted myopic count absorbs the UEs the other counts leave
        **{s: _COUNTS + s for s in (MYOPIC, GREEDY, LLM, FORESIGHT)},
    },
    "auction": {
        "entrance_fee": "auction.entrance_fee",
        "competitor_mode": "auction.competitor_mode",
    },
    "valuation": {
        "base_value_per_mbps": "urgency.base_value_per_mbps",
        "max_value_per_mbps": "urgency.max_value_per_mbps",
        "saturation_losses": "urgency.saturation_losses",
    },
    "llm": {
        "base_url": "endpoint.base_url",
        "model_name": "endpoint.model_name",
        "api_key_env_var": "endpoint.api_key_env_var",
        "timeout_ms": "endpoint.timeout_ms",
        "max_retries": "endpoint.max_retries",
        "temperature": "endpoint.temperature",
        "foresight_threshold": "foresight.threshold_fraction",
        "foresight_pacing": "foresight.pacing_fraction",
    },
    "simulation": {
        "episodes": "episodes",
        "runs": "runs",
        "seed": "seed",
        "jobs": "jobs",
    },
}


def _field(config: object, path: str) -> object:
    """The value at a dotted path of attributes and dict keys."""
    for name in path.split("."):
        config = config[name] if isinstance(config, dict) else getattr(config, name)
    return config


def _parse(text: str, default: object) -> object:
    """``text`` (stripped by configparser) read as a value of the type of ``default``.

    A float must be finite: ``nan`` and ``inf`` raise ValueError like any bad text.
    """
    if isinstance(default, tuple):
        return tuple(_parse(part, default[0]) for part in text.split(",") if part.strip())
    value = type(default)(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _with(config: object, path: str, value: object) -> object:
    """``config`` with ``value`` at a dotted path: the write twin of ``_field``."""
    name, _, rest = path.partition(".")
    if rest:
        value = _with(_field(config, name), rest, value)
    return {**config, name: value} if isinstance(config, dict) else replace(config, **{name: value})


def parse_scenario_text(text: str, source: str = "<scenario>") -> SimulationConfig:
    """Parse scenario text, checking its sections, its keys and the syntax of
    its values; raises ConfigurationError listing every problem of these.

    One fold from ``SimulationConfig()`` sets each key's value at its path as it
    is read.  No rule on the values is checked here: that is
    ``SimulationConfig.validate``'s, which the caller runs on the config it
    plays, after its own overrides.  An unknown section or key is skipped and
    an unreadable value left at its default, so when the text's syntax is
    sound the error carries that config and the unreadable keys, and the
    caller can check the rules on the rest too.
    """
    # no header names the empty section, so [DEFAULT] is a section like any
    # other, not one whose keys are copied into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.DuplicateSectionError as exc:
        raise ConfigurationError(
            [f"{source}: line {exc.lineno}: section [{exc.section}] appears again"]
        ) from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigurationError(
            [f"{source}: line {exc.lineno}: key '{exc.option}' appears again in [{exc.section}]"]
        ) from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigurationError(
            [f"{source}: line {exc.lineno}: {exc.line.rstrip()!r} comes before any [section]"]
        ) from exc
    except configparser.ParsingError as exc:
        # an entry holds the line as text from 3.13, its repr before, so the
        # line is read from the text, which configparser splits at "\n" alone
        lines = text.split("\n")
        raise ConfigurationError(
            [
                f"{source}: line {n}: {lines[n - 1].rstrip()!r} is not a key = value line"
                for n, _ in exc.errors
            ]
        ) from exc
    except configparser.Error as exc:
        raise ConfigurationError([str(exc)]) from exc

    config = SimulationConfig()
    problems: list[str] = []  # unknown sections and keys, unreadable values
    unread: set[str] = set()  # keys whose values are unreadable, left at their defaults
    for section in parser.sections():
        keys = _KEYS.get(section)
        if keys is None:
            problems.append(f"{source}: unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in keys:
                problems.append(f"{source}: unknown key '{key}' in [{section}]")
                continue
            try:  # a key appears once, so its path still holds the default
                value = _parse(raw, _field(config, keys[key]))
            except ValueError:
                problems.append(f"{source}: bad value {raw!r} for '{key}' in [{section}]")
                unread.add(key)
                continue
            config = _with(config, keys[key], value)
    # a section the text leaves out defaults every one of its keys
    for section, keys in _KEYS.items():
        for key, path in keys.items():
            if not parser.has_option(section, key) and key != MYOPIC:
                log.info("%s: [%s] %s defaulted to %r", source, section, key, _field(config, path))

    if not parser.has_option("population", MYOPIC):
        explicit = sum(_field(config, _COUNTS + s) for s in (GREEDY, LLM, FORESIGHT))
        myopic = max(0, config.population.num_ues - explicit)
        config = _with(config, _COUNTS + MYOPIC, myopic)
        log.info("%s: [population] myopic defaulted to %d", source, myopic)
    if problems:
        raise ConfigurationError(problems, config, frozenset(unread))
    return config


def load_scenario_file(path: str) -> SimulationConfig:
    """Parse the file at ``path``; one not readable as UTF-8 is a ConfigurationError too."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError([str(exc)]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError([f"{path} is not UTF-8 text: {exc}"]) from exc
    return parse_scenario_text(text, source=path)


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


PRESETS: dict[str, Callable[[], SimulationConfig]] = {
    "scenario1": scenario1,
    "scenario2": scenario2,
}


def preset(name: str) -> SimulationConfig:
    factory = PRESETS.get(name)
    if factory is None:
        raise ConfigurationError([f"unknown preset {name!r}"])
    return factory()
