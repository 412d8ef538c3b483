from __future__ import annotations

import configparser
import dataclasses
import logging
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hetmarket.engine import (
    FORESIGHT,
    GREEDY,
    LLM,
    MYOPIC,
    ConfigurationError,
    SimulationConfig,
    run_simulation,
)
from hetmarket import scenario
from hetmarket.scenario import (
    load_scenario_file,
    parse_scenario_text,
    preset,
    scenario1,
    scenario2,
)

FULL_TEXT = """
[topology]
num_sbs = 3
mbs_power_watts = 20
sbs_power_watts = 2
channels_per_station = 6
power_unit_price = 0.2
macro_radius_m = 400
sbs_ring_radius_m = 200
bandwidth_hz = 2e6
noise_density_w_per_hz = 1e-20
mbs_pathloss_exponent = 2.8
sbs_pathloss_exponent = 3.2
reference_distance_m = 2.0
interference_mode = none

[population]
num_ues = 10
budget = 8.5
qos_classes_mbps = 1.0, 3.0
myopic = 6
greedy = 2
llm = 1
foresight = 1

[auction]
entrance_fee = 0.25
competitor_mode = oracle

[valuation]
base_value_per_mbps = 0.4, 0.6
max_value_per_mbps = 0.9, 1.1
saturation_losses = 4, 6

[llm]
base_url = http://localhost:9999/v1
model_name = test-model
api_key_env_var = TEST_KEY
timeout_ms = 2500
max_retries = 3
temperature = 0.5
foresight_threshold = 0.25
foresight_pacing = 0.75

[simulation]
episodes = 12
runs = 2
seed = 99
jobs = 2
"""


class TestParsing:
    def test_full_round_trip(self):
        config = parse_scenario_text(FULL_TEXT)
        assert config.topology.num_small_cells == 3
        assert config.topology.mbs_power_watts == 20.0
        assert config.topology.channels_per_station == 6
        assert config.topology.power_unit_price == 0.2
        assert config.topology.channel.bandwidth_hz == 2e6
        assert config.topology.channel.interference_mode == "none"
        assert config.topology.channel.reference_distance_m == 2.0
        assert config.population.num_ues == 10
        assert config.population.budget == 8.5
        assert config.population.qos_classes_mbps == (1.0, 3.0)
        assert config.population.strategy_counts == {
            MYOPIC: 6, GREEDY: 2, LLM: 1, FORESIGHT: 1,
        }
        assert config.auction.entrance_fee == 0.25
        assert config.auction.competitor_mode == "oracle"
        assert config.urgency.base_value_per_mbps == (0.4, 0.6)
        assert config.urgency.max_value_per_mbps == (0.9, 1.1)
        assert config.urgency.saturation_losses == (4, 6)
        assert config.endpoint.base_url == "http://localhost:9999/v1"
        assert config.endpoint.model_name == "test-model"
        assert config.endpoint.api_key_env_var == "TEST_KEY"
        assert config.endpoint.timeout_ms == 2500
        assert config.endpoint.max_retries == 3
        assert config.endpoint.temperature == 0.5
        assert config.foresight.threshold_fraction == 0.25
        assert config.foresight.pacing_fraction == 0.75
        assert config.episodes == 12
        assert config.runs == 2
        assert config.seed == 99
        assert config.jobs == 2

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_drawn_keys_in_a_drawn_order_set_their_paths_alone(self, data):
        full, default = parse_scenario_text(FULL_TEXT), SimulationConfig()
        paths = [path for keys in scenario._KEYS.values() for path in keys.values()]
        # FULL_TEXT sets every key to a value other than its default
        assert all(scenario._field(full, p) != scenario._field(default, p) for p in paths)
        parser = configparser.ConfigParser()
        parser.read_string(FULL_TEXT)
        lines = {(s, k): f"{k} = {v}" for s in parser.sections() for k, v in parser.items(s)}
        chosen = data.draw(st.lists(st.sampled_from(sorted(lines)), unique=True))
        sections: dict[str, list[str]] = {}  # a section's keys stay together
        for section, key in chosen:
            sections.setdefault(section, []).append(lines[section, key])
        text = "".join(f"[{s}]\n" + "\n".join(body) + "\n" for s, body in sections.items())
        config = parse_scenario_text(text)
        set_paths = {scenario._KEYS[s][k] for s, k in chosen}
        for section, keys in scenario._KEYS.items():
            for key, path in keys.items():
                expected = scenario._field(full if path in set_paths else default, path)
                if key == MYOPIC and path not in set_paths:
                    # an omitted myopic count absorbs the UEs the other counts leave
                    counts = config.population.strategy_counts
                    others = counts[GREEDY] + counts[LLM] + counts[FORESIGHT]
                    expected = max(0, config.population.num_ues - others)
                assert scenario._field(config, path) == expected, (path, text)

    def test_empty_text_gives_documented_defaults(self):
        config = parse_scenario_text("")
        assert config.population.num_ues == 40
        assert config.population.budget == 15.0
        assert config.population.qos_classes_mbps == (2.0, 4.0, 8.0)
        assert config.population.strategy_counts == {
            MYOPIC: 40, GREEDY: 0, LLM: 0, FORESIGHT: 0,
        }
        assert config.topology.num_small_cells == 2
        assert config.topology.power_unit_price == 0.05
        assert config.auction.entrance_fee == 0.1
        assert config.episodes == 40
        assert config.seed == 0

    def test_empty_text_is_the_default_config(self):
        # file runs and preset runs start from the same defaults
        assert parse_scenario_text("") == SimulationConfig()

    def test_every_key_default_has_its_field_type(self):
        # a key's text is read as its default's type, so a float field with
        # the default 40 would turn its key into an int key
        config = SimulationConfig()
        for keys in scenario._KEYS.values():
            for path in keys.values():
                owner_path, _, name = path.rpartition(".")
                owner = scenario._field(config, owner_path) if owner_path else config
                if isinstance(owner, dict):
                    continue  # strategy counts, ints in a dict[str, int]
                default = getattr(owner, name)
                expected = (
                    f"tuple[{type(default[0]).__name__}, ...]"
                    if isinstance(default, tuple)
                    else type(default).__name__
                )
                types = {f.name: f.type for f in dataclasses.fields(owner)}
                assert types[name] == expected, path

    def test_readme_key_set_is_the_defaults_and_its_alternatives_parse(self):
        # the block as printed, so that it can be pasted as a file
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        assert parse_scenario_text(block) == parse_scenario_text("")
        # "; or <value>" on its own line names another value of the key above it
        lines = block.splitlines()
        alternatives = [
            (i - 1, match.group(1))
            for i, line in enumerate(lines)
            if (match := re.fullmatch(r"; or (\S+)", line))
        ]
        assert alternatives
        for i, value in alternatives:
            key = re.fullmatch(r"(\w+) = \S+", lines[i]).group(1)
            text = "\n".join(lines[:i] + [f"{key} = {value}"] + lines[i + 1:])
            config = parse_scenario_text(text, source=f"README {key}")
            assert config.validate() == []
            assert config != parse_scenario_text("")

    def test_unfilled_myopic_count_absorbs_remainder(self):
        text = "[population]\nnum_ues = 40\ngreedy = 2\nllm = 1\n"
        config = parse_scenario_text(text)
        assert config.population.strategy_counts[MYOPIC] == 37

    def test_default_notices_logged_at_info(self, caplog):
        with caplog.at_level(logging.INFO, logger="hetmarket.scenario"):
            parse_scenario_text("[simulation]\nepisodes = 5\n")
        noticed = [
            re.fullmatch(r"<scenario>: \[(\w+)\] (\w+) defaulted to .*", record.message).groups()
            for record in caplog.records
        ]
        # one notice per omitted key, also in the sections the text leaves out
        omitted = [
            (section, key)
            for section, keys in scenario._KEYS.items()
            for key in keys
            if (section, key) != ("simulation", "episodes")
        ]
        assert sorted(noticed) == sorted(omitted)

    def test_mismatched_counts_fail_at_run_time(self):
        config = parse_scenario_text(
            "[population]\nnum_ues = 10\nmyopic = 3\ngreedy = 1\n"
        )
        with pytest.raises(Exception, match="strategy counts"):
            run_simulation(config)


class TestRejection:
    def test_unknown_section_named_with_source(self):
        with pytest.raises(ConfigurationError) as err:
            parse_scenario_text("[turbo]\nboost = 1\n", source="bad.ini")
        assert "bad.ini" in str(err.value)
        assert "[turbo]" in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nepisodes = 7\n",
            "[DEFAULT]\nnum_ues = 5\n[population]\nllm = 1\n",
            "[DEFAULT]\nnum_ues = 5\n[topology]\nnum_sbs = 1\n",
        ],
        ids=["alone", "beside-its-section", "beside-another-section"],
    )
    def test_default_section_is_an_unknown_section(self, text):
        # configparser would copy its keys into every section; here it is
        # one more section the scenario does not have
        with pytest.raises(ConfigurationError) as err:
            parse_scenario_text(text, source="bad.ini")
        assert err.value.problems == ["bad.ini: unknown section [DEFAULT]"]

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError) as err:
            parse_scenario_text("[population]\nqos = 2\n")
        assert "'qos'" in str(err.value)
        assert "[population]" in str(err.value)

    def test_bad_value_named(self):
        with pytest.raises(ConfigurationError) as err:
            parse_scenario_text("[population]\nnum_ues = many\n")
        assert "'num_ues'" in str(err.value)
        assert "many" in str(err.value)

    def test_problems_accumulate(self):
        text = "[population]\nnum_ues = many\nqos = 2\n\n[turbo]\nboost = 1\n"
        with pytest.raises(ConfigurationError) as err:
            parse_scenario_text(text)
        assert len(err.value.problems) == 3

    def test_broken_ini_syntax(self):
        with pytest.raises(ConfigurationError):
            parse_scenario_text("num_ues = 40\n")

    def test_bad_interference_mode(self):
        # parsing reads the value; validate() refuses it
        config = parse_scenario_text("[topology]\ninterference_mode = partial\n")
        assert config.validate() == ["unknown interference_mode 'partial'"]


class TestFiles:
    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "small.ini"
        path.write_text("[simulation]\nepisodes = 7\nseed = 3\n")
        config = load_scenario_file(str(path))
        assert config.episodes == 7
        assert config.seed == 3

    def test_file_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        # Windows editors start a UTF-8 file with U+FEFF, here before its first [section]
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_bytes(FULL_TEXT.lstrip().encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_scenario_file(str(marked)) == load_scenario_file(str(plain))

    def test_load_reports_path_in_errors(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[population]\nqos = 2\n")
        with pytest.raises(ConfigurationError) as err:
            load_scenario_file(str(path))
        assert "broken.ini" in str(err.value)

    def test_unreadable_files_are_configuration_errors(self, tmp_path):
        latin1 = tmp_path / "latin1.ini"
        latin1.write_bytes("[population]\n; d\xe9bit\nnum_ues = 4\n".encode("latin-1"))
        with pytest.raises(ConfigurationError) as err:
            load_scenario_file(str(latin1))
        assert err.value.problems[0].startswith(f"{latin1} is not UTF-8 text")
        # a missing file, and a directory in place of a file
        for path in (tmp_path / "absent.ini", tmp_path):
            with pytest.raises(ConfigurationError) as err:
                load_scenario_file(str(path))
            assert str(path) in err.value.problems[0]


class TestPresets:
    def test_scenario1_mix(self):
        config = scenario1()
        assert config.population.num_ues == 40
        assert config.population.budget == 15.0
        assert config.population.strategy_counts == {
            LLM: 1, FORESIGHT: 0, GREEDY: 1, MYOPIC: 38,
        }
        assert config.topology.channels_per_station == 4
        assert config.episodes == 40

    def test_scenario2_mix(self):
        config = scenario2()
        assert config.population.strategy_counts == {
            LLM: 1, FORESIGHT: 0, GREEDY: 39, MYOPIC: 0,
        }

    def test_preset_lookup(self):
        assert preset("scenario1") == scenario1()
        assert preset("scenario2") == scenario2()
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset("scenario9")
