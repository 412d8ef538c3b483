from __future__ import annotations

import csv
import dataclasses
import functools
import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hetmarket.cli import (
    METRICS_COLUMNS,
    main,
    round_line,
    write_metrics_csv,
    write_rounds_jsonl,
    write_rounds_part,
)
from hetmarket.engine import (
    STRATEGIES,
    RoundLog,
    SimulationRun,
    StationRoundRecord,
    UeMetrics,
    UeRoundRecord,
    run_simulation,
    spawn_run_seeds,
)
from hetmarket.llm_agent import ChatCompletionClient
from hetmarket.scenario import preset

from oracles import play


# a pool's workers see a monkeypatch only when they are forked from the test
forked = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers are not forked"
)


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


TWO_SHORT_RUNS = dataclasses.replace(preset("scenario1"), offline=True, episodes=4, runs=2)


def write_two_short_runs(path):
    """rounds.jsonl of TWO_SHORT_RUNS at ``path``, as ``run`` writes it."""
    metrics = run_simulation(TWO_SHORT_RUNS, functools.partial(write_rounds_part, str(path)))
    write_rounds_jsonl(str(path), TWO_SHORT_RUNS.runs)
    return metrics


class TestRunCommand:
    def test_preset_offline_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--preset", "scenario1", "--offline",
                       "--episodes", "5", "--seed", "4", "--out", str(out))
        assert code == 0
        assert (out / "rounds.jsonl").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert "llm" in stdout
        assert "myopic" in stdout

    def test_metrics_csv_shape(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--preset", "scenario1", "--offline",
                "--episodes", "4", "--out", str(out))
        rows = read_rows(out / "metrics.csv")
        assert rows[0] == METRICS_COLUMNS
        assert len(rows) == 1 + 40
        strategies = {row[3] for row in rows[1:]}
        assert strategies == {"llm", "greedy", "myopic"}
        assert [row[2] for row in rows[1:]] == [str(i) for i in range(40)]

    def test_rounds_jsonl_structure(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--preset", "scenario1", "--offline",
                "--episodes", "5", "--out", str(out))
        lines = (out / "rounds.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["round"] for r in records] == [1, 2, 3, 4, 5]
        for record in records:
            assert len(record["ues"]) == 40
            assert len(record["stations"]) == 3
            for station in record["stations"]:
                assert set(station) == {
                    "station_id", "clearing_price", "allocations",
                    "per_unit_payments", "seller_utility_terms",
                    "fees_collected", "revenue",
                }

    @pytest.mark.parametrize(
        "key, record_type", [("ues", UeRoundRecord), ("stations", StationRoundRecord)]
    )
    def test_objects_carry_every_record_field(self, tmp_path, key, record_type):
        # A field added to a round record must reach rounds.jsonl unchanged.
        path = tmp_path / "rounds.jsonl"
        write_two_short_runs(path)
        fields = {f.name for f in dataclasses.fields(record_type)}
        logs = [log for result in play(TWO_SHORT_RUNS)[1] for log in result.rounds]
        lines = path.read_text().splitlines()
        assert len(lines) == len(logs) == 8
        for line, log in zip(lines, logs):
            objects = json.loads(line)[key]
            records = getattr(log, key)
            assert len(objects) == len(records)
            for obj, record in zip(objects, records):
                assert set(obj) == fields
                # JSON keys are text; the record's maps are keyed by UE id
                assert obj == json.loads(json.dumps(dataclasses.asdict(record)))

    def test_lines_are_the_records_with_str_keys(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        write_two_short_runs(path)
        logs = [(result, log) for result in play(TWO_SHORT_RUNS)[1] for log in result.rounds]
        lines = path.read_text().splitlines()
        assert len(lines) == len(logs)

        def with_str_keys(record):
            return {
                name: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
                for name, value in dataclasses.asdict(record).items()
            }

        # str keys sort as text ("12" before "3"), int keys as numbers, so a
        # map holding ids on both sides of 10 tells them apart
        assert any(
            any(k < 10 for k in s.allocations) and any(k >= 10 for k in s.allocations)
            for _, log in logs
            for s in log.stations
        )
        for line, (result, log) in zip(lines, logs):
            expected = {
                "run": result.run_index,
                "seed": result.seed,
                "round": log.round_index,
                "ues": [with_str_keys(r) for r in log.ues],
                "stations": [with_str_keys(s) for s in log.stations],
            }
            assert line == json.dumps(expected, sort_keys=True)

    def test_metrics_cells_are_the_record_fields(self, tmp_path):
        # Each cell is str() of the UeMetrics field its column names, or empty
        # for None; the column ``run`` names ``run_index``.
        report = run_simulation(TWO_SHORT_RUNS)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(str(path), report)
        rows = read_rows(path)
        assert rows[0] == METRICS_COLUMNS
        assert len(rows) == 1 + len(report.per_ue) == 81
        fields = {f.name for f in dataclasses.fields(UeMetrics)}
        names = ["run_index" if column == "run" else column for column in METRICS_COLUMNS]
        assert set(names) <= fields
        # a UE-run with no bids has no bid precision
        assert any(m.bid_precision is None for m in report.per_ue)
        for row, metrics in zip(rows[1:], report.per_ue):
            values = [getattr(metrics, name) for name in names]
            assert row == ["" if value is None else str(value) for value in values]

    @pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=forked)])
    def test_failed_run_leaves_no_rounds_file(self, tmp_path, monkeypatch, jobs):
        played = SimulationRun.run_round

        def failing(self, round_index):
            if self.run_index == 2 and round_index == 3:
                raise RuntimeError("round 3 of run 2 failed")
            return played(self, round_index)

        monkeypatch.setattr(SimulationRun, "run_round", failing)
        out = tmp_path / "out"
        # runs 0 and 1 have written their parts when run 2 fails
        with pytest.raises(RuntimeError, match="run 2"):
            run_cli("run", "--preset", "scenario1", "--offline", "--runs", "4",
                    "--episodes", "5", "--jobs", jobs, "--out", str(out))
        assert list(out.glob("rounds.jsonl*")) == []

    def test_summary_json_contents(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--preset", "scenario1", "--offline",
                "--episodes", "3", "--out", str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["episodes"] == 3
        assert summary["offline"] is True
        assert summary["num_ues"] == 40
        assert summary["strategy_counts"] == {
            "llm": 1, "foresight": 0, "greedy": 1, "myopic": 38,
        }
        assert set(summary["per_strategy"]) == {"llm", "greedy", "myopic"}

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            code = run_cli("run", "--preset", "scenario1", "--offline",
                           "--episodes", "6", "--seed", "11", "--out", str(out))
            assert code == 0
        for name in ("metrics.csv", "rounds.jsonl", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_format_selects_artifacts(self, tmp_path):
        csv_out = tmp_path / "csv_only"
        run_cli("run", "--preset", "scenario2", "--offline", "--episodes", "2",
                "--format", "csv", "--out", str(csv_out))
        assert (csv_out / "metrics.csv").exists()
        assert (csv_out / "rounds.jsonl").exists()
        assert not (csv_out / "summary.json").exists()

        json_out = tmp_path / "json_only"
        run_cli("run", "--preset", "scenario2", "--offline", "--episodes", "2",
                "--format", "json", "--out", str(json_out))
        assert not (json_out / "metrics.csv").exists()
        assert (json_out / "summary.json").exists()

    def test_multiple_runs_stack_rows(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--preset", "scenario2", "--offline", "--episodes", "2",
                "--runs", "2", "--out", str(out))
        rows = read_rows(out / "metrics.csv")
        assert len(rows) == 1 + 80
        runs = {json.loads(line)["run"]
                for line in (out / "rounds.jsonl").read_text().splitlines()}
        assert runs == {0, 1}

    def test_offline_never_opens_a_connection(self, tmp_path, monkeypatch):
        def explode(self, prompt):
            raise AssertionError("network call during offline run")

        monkeypatch.setattr(ChatCompletionClient, "complete", explode)
        code = run_cli("run", "--preset", "scenario1", "--offline",
                       "--episodes", "2", "--out", str(tmp_path / "out"))
        assert code == 0

    def test_runs_with_numpy_blocked(self, tmp_path):
        # the runtime needs only the standard library
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["run", "--preset", "scenario1", "--offline", "--episodes", "3",
                "--out", str(tmp_path)]
        code = (
            "import sys; sys.modules['numpy'] = None; "
            f"from hetmarket.cli import main; sys.exit(main({argv!r}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "rounds.jsonl").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verbose_logs_each_finished_run_in_order(self, tmp_path, caplog, jobs):
        with caplog.at_level(logging.INFO, logger="hetmarket.engine"):
            code = run_cli("-v", "run", "--preset", "scenario1", "--offline",
                           "--runs", "3", "--episodes", "4", "--seed", "7",
                           "--jobs", jobs, "--out", str(tmp_path))
        assert code == 0
        seeds = spawn_run_seeds(7, 3)
        assert [r.getMessage() for r in caplog.records if r.name == "hetmarket.engine"] == [
            f"config 0 run {i} done: seed {seeds[i]}, 4 rounds" for i in range(3)
        ]


# every float form json writes: signed zeros, subnormals, the ends of the
# range, and the non-finite values that have no JSON form
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-308, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
)
INTS = st.one_of(st.integers(), st.integers(-(2**200), 2**200))
# ids on both sides of 10, so text order and number order differ
IDS = st.one_of(st.integers(0, 30), INTS)

UE_RECORDS = st.builds(
    UeRoundRecord,
    ue_id=IDS, strategy=st.sampled_from(STRATEGIES), station_id=st.none() | IDS,
    per_unit_bid=FLOATS, quantity=INTS, abstained=st.booleans(), fallback=st.booleans(),
    channels_won=INTS, per_unit_payment=FLOATS, fee_paid=FLOATS, gross_utility=FLOATS,
    budget_after=FLOATS, value_factor=FLOATS, losses_after=INTS,
)
STATION_RECORDS = st.builds(
    StationRoundRecord,
    station_id=IDS, clearing_price=FLOATS,
    allocations=st.dictionaries(IDS, INTS, max_size=6),
    per_unit_payments=st.dictionaries(IDS, FLOATS, max_size=6),
    seller_utility_terms=st.dictionaries(IDS, FLOATS, max_size=6),
    fees_collected=FLOATS, revenue=FLOATS,
)
ROUND_LOGS = st.builds(
    RoundLog,
    round_index=INTS,
    ues=st.lists(UE_RECORDS, max_size=4).map(tuple),
    stations=st.lists(STATION_RECORDS, max_size=4).map(tuple),
)


def json_object(record):
    """The record as json takes it: its fields by name, its maps with str keys."""
    return {
        name: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
        for name, value in dataclasses.asdict(record).items()
    }


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(run_index=INTS, seed=INTS, log=ROUND_LOGS)
def test_round_line_is_json_dumps_with_sorted_keys(run_index, seed, log):
    record = {
        "run": run_index,
        "seed": seed,
        "round": log.round_index,
        "ues": [json_object(r) for r in log.ues],
        "stations": [json_object(s) for s in log.stations],
    }
    expected = json.dumps(record, sort_keys=True)
    if "NaN" in expected or "Infinity" in expected:
        # no JSON form: a fault, never a line
        with pytest.raises(ValueError, match=f"round {log.round_index} of run {run_index} "):
            round_line(run_index, seed, log)
    else:
        assert round_line(run_index, seed, log) == expected


class TestExitCodes:
    def test_missing_endpoint_is_exit_three(self, tmp_path, capsys):
        code = run_cli("run", "--preset", "scenario1",
                       "--episodes", "2", "--out", str(tmp_path / "out"))
        assert code == 3
        assert "--offline" in capsys.readouterr().err

    @pytest.mark.parametrize("base_url", ["http://[::1", "https://[::1", "http://[zz]"])
    def test_malformed_bracketed_host_is_exit_three(self, tmp_path, capsys, base_url):
        path = tmp_path / "live.ini"
        path.write_text(f"[population]\nllm = 1\n[llm]\nbase_url = {base_url}\n")
        code = run_cli("run", "--config", str(path), "--episodes", "2",
                       "--out", str(tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert "pass --offline" in err
        assert "Traceback" not in err

    def test_bad_scenario_file_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[population]\nqos = 2\n")
        code = run_cli("run", "--config", str(path), "--offline",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "qos" in capsys.readouterr().err

    def test_missing_scenario_file_is_exit_two(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(tmp_path / "absent.ini"),
                       "--offline", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_scenario_file_not_in_utf8_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes("[population]\n; d\xe9bit\nnum_ues = 4\n".encode("latin-1"))
        code = run_cli("run", "--config", str(path), "--offline", "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} is not UTF-8 text")
        assert "Traceback" not in err

    def test_invalid_override_is_exit_two(self, tmp_path, capsys):
        code = run_cli("run", "--preset", "scenario1", "--offline",
                       "--episodes", "0", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "episodes" in capsys.readouterr().err

    def test_thousand_rivals_for_hundreds_of_channels_is_exit_zero(self, tmp_path):
        # 1100 UEs per station and 600 channels: binomial coefficients of the
        # win probability exceed the float range.
        path = tmp_path / "big.ini"
        path.write_text(
            "[topology]\nchannels_per_station = 600\n"
            "[population]\nnum_ues = 3300\nbudget = 1000000.0\n"
            "greedy = 1650\nmyopic = 1650\n"
            "[simulation]\nepisodes = 1\nruns = 1\njobs = 1\n"
        )
        code = run_cli("run", "--config", str(path), "--offline", "--seed", "1",
                       "--out", str(tmp_path / "out"))
        assert code == 0

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("topology", "channels_per_station", "0"),
            ("topology", "mbs_power_watts", "0"),
            ("valuation", "base_value_per_mbps", "0"),
            ("valuation", "max_value_per_mbps", "0.1"),
            ("valuation", "saturation_losses", "0"),
            # the macro's SNR overflows to inf, so the best-case rate is not finite
            pytest.param("topology", "noise_density_w_per_hz", "1e-320\nnum_sbs = 0",
                         id="topology-noise_density_w_per_hz-1e-320"),
            # the noise power underflows to 0
            pytest.param("topology", "bandwidth_hz",
                         "1e-300\nnoise_density_w_per_hz = 1e-30\nnum_sbs = 0",
                         id="topology-bandwidth_hz-1e-300"),
            # every UE would stand on the macro station
            ("topology", "macro_radius_m", "0"),
            ("topology", "macro_radius_m", "-5"),
            # small cell 1 would stand at (-250, 0), the ring turned by half a turn
            ("topology", "sbs_ring_radius_m", "-250"),
            # the rate in bit/s overflows to inf
            ("population", "qos_classes_mbps", "1e303"),
            # the sums of channel values overflow: fsum raises, or inf is written
            pytest.param("valuation", "max_value_per_mbps", "1e306\nbase_value_per_mbps = 1e306",
                         id="valuation-max_value_per_mbps-1e306"),
            pytest.param("valuation", "max_value_per_mbps", "1e308\nbase_value_per_mbps = 1e308",
                         id="valuation-max_value_per_mbps-1e308"),
            # the sums of fees and payments could overflow: fsum raised
            pytest.param("population", "budget", "1.5e308\n[auction]\nentrance_fee = 1e308",
                         id="population-budget-1.5e308-fee-1e308"),
            # the macro's reserve overflows to inf, written as a clearing price
            ("topology", "power_unit_price", "1e308"),
            # the value increment divides by it as a float, which overflows
            pytest.param("valuation", "saturation_losses", str(10**400),
                         id="valuation-saturation_losses-1e400"),
        ],
    )
    def test_invalid_physical_value_is_exit_two(self, tmp_path, capsys, command,
                                                section, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        extra = ["--episodes", "3"] if command == "run" else ["--horizons", "3", "--seeds", "2"]
        code = run_cli(command, "--config", str(path), "--offline",
                       "--out", str(tmp_path / "out"), *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert key in err

    def test_bad_channel_setting_lists_every_other_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[topology]\nbandwidth_hz = -1\nchannels_per_station = 0\n"
                        "[simulation]\nepisodes = 0\n")
        code = run_cli("run", "--config", str(path), "--offline",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("config error: ") for line in lines)
        for key in ("bandwidth_hz", "channels_per_station", "episodes"):
            assert sum(key in line for line in lines) == 1

    @pytest.mark.parametrize(
        "text",
        [
            # the QoS rate over the channel rate underflows to 0; one channel serves it
            "[topology]\nbandwidth_hz = 1e9\n[population]\nqos_classes_mbps = 1e-320\n",
            # every sum of channel values stays finite
            "[valuation]\nbase_value_per_mbps = 1e290\nmax_value_per_mbps = 1e290\n",
            # a UE radius underflows to 0, on the macro station
            "[topology]\nmacro_radius_m = 5e-324\n",
            # the QoS rate over the channel rate overflows; no station serves a UE
            "[topology]\nbandwidth_hz = 1e-310\nnoise_density_w_per_hz = 1e16\n",
        ],
        ids=["demand-below-one-channel", "channel-values-of-1e290", "macro-radius-5e-324",
             "demand-beyond-any-count"],
    )
    def test_extreme_valid_value_is_exit_zero(self, tmp_path, text):
        path = tmp_path / "extreme.ini"
        path.write_text(text)
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(path), "--offline", "--episodes", "3",
                       "--out", str(out))
        assert code == 0
        for name in ("rounds.jsonl", "metrics.csv", "summary.json"):
            assert "inf" not in (out / name).read_text().lower()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("timeout_ms", "-5"),
            ("timeout_ms", "0"),
            # beyond the largest timeout a socket accepts
            ("timeout_ms", "100000000000000000000"),
            ("max_retries", "-1"),
        ],
    )
    def test_invalid_llm_setting_is_exit_two_before_the_probe(
        self, tmp_path, capsys, monkeypatch, command, key, value
    ):
        def explode(self, prompt):
            raise AssertionError("a bad config reached the endpoint probe")

        monkeypatch.setattr(ChatCompletionClient, "complete", explode)
        path = tmp_path / "bad.ini"
        path.write_text("[population]\nllm = 1\n"
                        f"[llm]\nbase_url = http://127.0.0.1:9\n{key} = {value}\n")
        extra = ["--episodes", "3"] if command == "run" else ["--horizons", "3", "--seeds", "2"]
        out = tmp_path / "out"
        code = run_cli(command, "--config", str(path), "--out", str(out), *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("topology", "mbs_power_watts", "nan"),
            ("topology", "macro_radius_m", "nan"),
            ("topology", "bandwidth_hz", "inf"),
            ("population", "budget", "nan"),
            ("population", "budget", "inf"),
            ("population", "qos_classes_mbps", "1.0, nan, 4.0"),
            ("auction", "entrance_fee", "inf"),
            ("auction", "entrance_fee", "-inf"),
        ],
    )
    def test_non_finite_number_is_exit_two(self, tmp_path, capsys, section, key, value):
        # nan and inf parse as floats; unchecked, they crash the demand model
        # or write bare NaN tokens into rounds.jsonl
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(path), "--offline", "--episodes", "3",
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: bad value {value!r} for {key!r} in [{section}]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("run", ["--episodes", "3"]), ("sweep", ["--horizons", "3", "--seeds", "2"])],
    )
    def test_negative_seed_is_exit_two(self, tmp_path, capsys, command, extra):
        # random.Random(-1) would silently replay seed 1
        out = tmp_path / "out"
        code = run_cli(command, "--preset", "scenario1", "--offline", "--seed", "-1",
                       "--out", str(out), *extra)
        assert code == 2
        assert capsys.readouterr().err == "config error: seed must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("run", ["--episodes", "3"]), ("sweep", ["--horizons", "3", "--seeds", "2"])],
    )
    def test_out_naming_a_file_is_exit_two_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, extra
    ):
        def explode(self):
            raise AssertionError("a run was played")

        monkeypatch.setattr(SimulationRun, "execute", explode)
        out = tmp_path / "taken"
        out.write_text("a file\n")
        code = run_cli(command, "--preset", "scenario1", "--offline", "--out", str(out), *extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot make --out directory: ")
        assert str(out) in captured.err
        assert len(captured.err.splitlines()) == 1
        assert out.read_text() == "a file\n"

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            run_cli()


class TestSweepCommand:
    def test_grid_rows_and_columns(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("sweep", "--preset", "scenario1", "--offline",
                       "--horizons", "2,3", "--seeds", "2", "--out", str(out))
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        header = rows[0]
        assert header[:2] == ["episodes", "seed"]
        assert "llm_gross_utility" in header
        assert "myopic_bid_precision" in header
        assert [row[0] for row in rows[1:]] == ["2", "2", "3", "3"]
        assert [row[1] for row in rows[1:]] == ["0", "1", "0", "1"]
        foresight_gross = header.index("foresight_gross_utility")
        llm_gross = header.index("llm_gross_utility")
        for row in rows[1:]:
            # No foresight-labeled users in this preset; llm cells are filled.
            assert row[foresight_gross] == ""
            assert row[llm_gross] != ""

    def test_comparison_block_per_horizon_without_an_agent(self, tmp_path, capsys):
        # an empty [population] is all myopic: a table, but nothing to compare
        path = tmp_path / "myopic.ini"
        path.write_text("[population]\n")
        out = tmp_path / "out"
        code = run_cli("sweep", "--config", str(path), "--offline",
                       "--horizons", "2,3", "--seeds", "2", "--out", str(out))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith(("strategy", "myopic"))] == [
            f"{path}: episodes=2, seeds=2",
            f"{path}: episodes=3, seeds=2",
            f"wrote {out / 'sweep.csv'} (4 rows)",
        ]
        assert len(lines) == 7

    def test_sweep_is_deterministic(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            run_cli("sweep", "--preset", "scenario2", "--offline",
                    "--horizons", "2", "--seeds", "2", "--out", str(out))
        assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()

    def test_bad_horizons_are_exit_two(self, tmp_path, capsys):
        assert run_cli("sweep", "--preset", "scenario1", "--offline",
                       "--horizons", "0,5", "--out", str(tmp_path / "o")) == 2
        assert run_cli("sweep", "--preset", "scenario1", "--offline",
                       "--horizons", "a,b", "--out", str(tmp_path / "o")) == 2
        assert run_cli("sweep", "--preset", "scenario1", "--offline",
                       "--seeds", "0", "--out", str(tmp_path / "o")) == 2
        capsys.readouterr()

    def test_repeated_horizon_is_exit_two_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("sweep", "--preset", "scenario1", "--offline",
                       "--horizons", "3,3", "--seeds", "2", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "config error: horizons must be distinct" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_parallel_sweep_matches_serial(self, tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            code = run_cli("sweep", "--preset", "scenario1", "--offline",
                           "--horizons", "3,5", "--seeds", "3", "--jobs", jobs,
                           "--out", str(outs[jobs]))
            assert code == 0
        assert (outs["1"] / "sweep.csv").read_bytes() == (outs["2"] / "sweep.csv").read_bytes()

    def test_invalid_config_exits_before_any_cell_runs(self, tmp_path, capsys, monkeypatch):
        def explode(self):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(SimulationRun, "execute", explode)
        path = tmp_path / "bad.ini"
        path.write_text("[population]\nnum_ues = 10\nmyopic = 3\ngreedy = 1\n")
        out = tmp_path / "out"
        code = run_cli("sweep", "--config", str(path), "--offline",
                       "--horizons", "2,3", "--seeds", "2", "--out", str(out))
        assert code == 2
        assert "strategy counts" in capsys.readouterr().err
        assert not out.exists()
