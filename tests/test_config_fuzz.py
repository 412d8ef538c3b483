"""Scenario texts drawn over every scenario key, run through ``cli.main``.

No valid config may crash: each drawn text either runs (exit 0) with finite
artifacts, budgets never below 0 and every payment between the station's
reserve and the winner's bid, or it is refused with exit 2.  The counts that
size a run stay small, so no case starts many processes or plays long.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from hetmarket import cli, scenario
from hetmarket.auction import reservation_price
from hetmarket.engine import SimulationConfig

# extremes for every float key and for saturation_losses, as scenario text
EXTREMES = [
    "0", "1", "-1", "5e-324", "1e-310", "2.2250738585072014e-308",
    "1e-300", "1e300", "-1e300", "1e308", "nan", "inf", "-inf",
    str(2**53 + 1), str(10**30), str(10**400),
]
# key -> the largest value drawn for it; these keys size the run
COUNT_BOUNDS = {
    "jobs": 2, "runs": 2, "num_ues": 12, "episodes": 6, "channels_per_station": 8,
    "num_sbs": 4, "myopic": 12, "greedy": 12, "llm": 12, "foresight": 12,
}
CHOICES = {
    "interference_mode": ["full_cochannel", "none", "partial"],
    "competitor_mode": ["uniform", "oracle", "psychic"],
}
# the LLM strategy runs as its offline stand-in, so the endpoint's text is never used
UNUSED = {"base_url", "model_name", "api_key_env_var"}

DEFAULTS = SimulationConfig()
KEYS = [
    (section, key)
    for section, keys in scenario._KEYS.items()
    for key in keys
    if key not in UNUSED
]


def values_for(section: str, key: str) -> st.SearchStrategy[str]:
    if key in COUNT_BOUNDS:
        return st.integers(-1, COUNT_BOUNDS[key]).map(str)
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    default = scenario._field(DEFAULTS, scenario._KEYS[section][key])
    if key == "saturation_losses" or isinstance(default, float):
        return st.sampled_from(EXTREMES)
    if isinstance(default, tuple):
        return st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=3).map(", ".join)
    # the remaining ints: seed, timeout_ms, max_retries
    return st.one_of(st.integers(-1, 3), st.sampled_from(EXTREMES)).map(str)


@st.composite
def scenario_texts(draw) -> str:
    """A few keys set to drawn values, on top of small bounded run sizes."""
    chosen = {
        ("population", "num_ues"): str(draw(st.integers(1, COUNT_BOUNDS["num_ues"]))),
        ("simulation", "episodes"): str(draw(st.integers(1, COUNT_BOUNDS["episodes"]))),
        ("simulation", "runs"): str(draw(st.integers(1, COUNT_BOUNDS["runs"]))),
        ("simulation", "jobs"): str(draw(st.integers(1, COUNT_BOUNDS["jobs"]))),
    }
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=4, unique=True)):
        chosen[section, key] = draw(values_for(section, key))
    sections: dict[str, list[str]] = {}
    for (section, key), value in chosen.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def no_constant(name: str) -> float:
    raise AssertionError(f"{name} in a JSON artifact")


def check_artifacts(out: str, text: str) -> None:
    config = scenario.parse_scenario_text(text)
    reserves = {bs.id: reservation_price(bs) for bs in config.topology.build().stations}
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
        json.loads(handle.read(), parse_constant=no_constant)
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == config.population.num_ues * config.runs
    for row in rows:
        for column, cell in row.items():
            if column != "strategy" and cell:
                assert math.isfinite(float(cell)), (column, cell)
    with open(os.path.join(out, "rounds.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line, parse_constant=no_constant)
            for ue in record["ues"]:
                assert ue["budget_after"] >= 0.0
                if ue["channels_won"] > 0:
                    reserve = reserves[ue["station_id"]]
                    assert reserve <= ue["per_unit_payment"] <= ue["per_unit_bid"]


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=scenario_texts())
def test_drawn_config_runs_or_is_refused(text):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "drawn.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(workdir, "out")
        code = cli.main(["run", "--config", path, "--offline", "--out", out])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
        if code == cli.EXIT_OK:
            check_artifacts(out, text)
