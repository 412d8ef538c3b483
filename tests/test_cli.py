from __future__ import annotations

import collections
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import multiprocessing
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hetmarket import cli
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
    AbstentionRecord,
    RoundLog,
    SimulationRun,
    StationRoundRecord,
    UeMetrics,
    UeRoundRecord,
    run_simulation,
    spawn_run_seeds,
)
from hetmarket.llm_agent import ChatCompletionClient
from hetmarket.scenario import load_scenario_file, preset
from hetmarket.strategy import ABSTAIN, BidDecision

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


def entries(folder):
    """Each entry of ``folder`` by name: a file's bytes, or None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in folder.iterdir()}


TWO_SHORT_RUNS = dataclasses.replace(preset("scenario1"), offline=True, episodes=4, runs=2)


def write_two_short_runs(path):
    """rounds.jsonl of TWO_SHORT_RUNS at ``path``, as ``run`` writes it."""
    parts = f"{path}.part"
    metrics = run_simulation(TWO_SHORT_RUNS, functools.partial(write_rounds_part, parts))
    write_rounds_jsonl(str(path), parts, TWO_SHORT_RUNS.runs)
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

    @pytest.mark.parametrize("jobs, failing", [
        pytest.param("1", "run", id="1"),
        pytest.param("2", "run", id="2", marks=forked),
        pytest.param("1", "join", id="join"),
        pytest.param("1", "directory", id="directory"),
    ])
    def test_failed_run_leaves_no_rounds_file(self, tmp_path, monkeypatch, jobs, failing):
        out = tmp_path / "out"
        out.mkdir()
        if failing == "directory":
            # refused before any run, and left as it is
            (out / "rounds.jsonl").mkdir()
            raised = contextlib.nullcontext()
        else:
            # the rounds.jsonl of an earlier command is kept, byte for byte
            (out / "rounds.jsonl").write_bytes(b'{"round": 1, "run": 0}\n')
        if failing == "run":
            played = SimulationRun.run_round

            def fail_run_2(self, round_index):
                if self.run_index == 2 and round_index == 3:
                    raise RuntimeError("round 3 of run 2 failed")
                return played(self, round_index)

            monkeypatch.setattr(SimulationRun, "run_round", fail_run_2)
            # runs 0 and 1 have written their parts when run 2 fails
            raised = pytest.raises(RuntimeError, match="run 2")
        elif failing == "join":
            copy = shutil.copyfileobj
            copied = []

            def fail_second_copy(source, target):
                copied.append(source.name)
                if len(copied) == 2:
                    raise OSError(28, "No space left on device")
                copy(source, target)

            monkeypatch.setattr(shutil, "copyfileobj", fail_second_copy)
            # part 0 holds part 1 when part 2 fails to join
            raised = pytest.raises(OSError, match="No space left")
        before = entries(out)
        with raised:
            code = run_cli("run", "--preset", "scenario1", "--offline", "--runs", "4",
                           "--episodes", "5", "--jobs", jobs, "--out", str(out))
        if failing == "directory":
            assert code == 2
        # no part, no scratch directory and no half-joined file is left
        assert entries(out) == before

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

UE_RECORDS = st.one_of(
    st.builds(
        UeRoundRecord,
        ue_id=IDS, strategy=st.sampled_from(STRATEGIES), station_id=IDS,
        per_unit_bid=FLOATS, quantity=INTS, fallback=st.booleans(),
        channels_won=INTS, per_unit_payment=FLOATS, fee_paid=FLOATS, gross_utility=FLOATS,
        budget_after=FLOATS, value_factor=FLOATS, losses_after=INTS,
    ),
    st.builds(
        AbstentionRecord,
        ue_id=IDS, strategy=st.sampled_from(STRATEGIES), fallback=st.booleans(),
        budget_after=FLOATS, value_factor=FLOATS, losses_after=INTS,
    ),
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


# one finite record of each type; the station's maps hold ids on both sides of
# 10, so the entry written last ("3") is not the first in number order
FINITE_RECORDS = (
    UeRoundRecord(
        ue_id=3, strategy="greedy", station_id=1, per_unit_bid=0.5, quantity=2,
        fallback=False, channels_won=1, per_unit_payment=0.25, fee_paid=0.1,
        gross_utility=1.5, budget_after=9.0, value_factor=0.75, losses_after=0,
    ),
    AbstentionRecord(12, "myopic", True, 2.0, 1.25, 3),
    StationRoundRecord(
        station_id=1, clearing_price=0.25, allocations={3: 1, 12: 2},
        per_unit_payments={3: 0.25, 12: 0.5}, seller_utility_terms={3: 0.05, 12: 0.1},
        fees_collected=0.2, revenue=1.45,
    ),
)


def with_one_value(record, name, x):
    """``record`` with field ``name``, or the entry of UE 3 in map ``name``, set to ``x``."""
    value = getattr(record, name)
    return dataclasses.replace(record, **{name: {**value, 3: x} if isinstance(value, dict) else x})


def holds_floats(value):
    return isinstance(value, float) or (
        isinstance(value, dict) and all(isinstance(v, float) for v in value.values())
    )


# every float a round's records are built from: each float field, and one
# value of each map of floats
FLOAT_FIELDS = [
    pytest.param(index, f.name, id=f"{type(record).__name__}.{f.name}")
    for index, record in enumerate(FINITE_RECORDS)
    for f in dataclasses.fields(record)
    if f.init and holds_floats(getattr(record, f.name))
]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("index, name", FLOAT_FIELDS)
def test_a_non_finite_value_in_any_one_field_fails(index, name, x):
    finite = RoundLog(7, FINITE_RECORDS[:2], FINITE_RECORDS[2:])
    assert json.loads(round_line(5, 1, finite))
    records = list(FINITE_RECORDS)
    records[index] = with_one_value(records[index], name, x)
    log = RoundLog(7, tuple(records[:2]), tuple(records[2:]))
    with pytest.raises(ValueError, match="^round 7 of run 5 holds a non-finite value$"):
        round_line(5, 1, log)


def test_a_ue_round_record_is_always_a_bid():
    bid = FINITE_RECORDS[0]
    assert not bid.abstained
    with pytest.raises(TypeError, match="abstained"):
        UeRoundRecord(**{f.name: getattr(bid, f.name) for f in dataclasses.fields(bid)})


def same_bits(x):
    """A float object distinct from ``x`` with its bits: equal, but not ``x``."""
    return struct.unpack("<d", struct.pack("<d", x))[0]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# finite four times in five
POOL_FLOATS = st.one_of(
    st.sampled_from([0.1, 1.0, 1e308]), FINITE, FINITE, FINITE,
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
FINITE_STATIONS = st.builds(
    StationRoundRecord,
    station_id=st.integers(0, 12), clearing_price=FINITE,
    allocations=st.dictionaries(st.integers(0, 30), st.integers(0, 4), max_size=3),
    per_unit_payments=st.dictionaries(st.integers(0, 30), FINITE, max_size=3),
    seller_utility_terms=st.dictionaries(st.integers(0, 30), FINITE, max_size=3),
    fees_collected=FINITE, revenue=FINITE,
)


@st.composite
def runs_of_rounds(draw):
    """Rounds of one run over a few UE ids.  Their floats come from a small
    pool that holds 0.0 and -0.0, each the pool's own object or a distinct one
    with its bits, so a UE's record holds the object of an earlier round, an
    equal one, or another value; 0.0 and -0.0 are equal but written apart."""
    pool = [0.0, -0.0, *draw(st.lists(POOL_FLOATS, max_size=3))]

    def pick():
        x = pool[draw(st.integers(0, len(pool) - 1))]
        return same_bits(x) if draw(st.booleans()) else x

    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True))
    logs = []
    for round_index in range(1, draw(st.integers(1, 6)) + 1):
        ues = []
        for ue_id in ids:
            strategy = draw(st.sampled_from(STRATEGIES))
            fallback = draw(st.booleans())
            losses = draw(st.integers(0, 20))
            if draw(st.booleans()):
                ues.append(AbstentionRecord(ue_id, strategy, fallback, pick(), pick(), losses))
            else:
                ues.append(UeRoundRecord(
                    ue_id=ue_id, strategy=strategy, station_id=draw(st.integers(0, 12)),
                    per_unit_bid=pick(), quantity=draw(st.integers(1, 4)),
                    fallback=fallback, channels_won=draw(st.integers(0, 4)),
                    per_unit_payment=pick(), fee_paid=pick(), gross_utility=pick(),
                    budget_after=pick(), value_factor=pick(), losses_after=losses,
                ))
        stations = draw(st.lists(FINITE_STATIONS, max_size=1))
        logs.append(RoundLog(round_index, tuple(ues), tuple(stations)))
    return logs


@contextlib.contextmanager
def kept_maps_of_writes():
    """The ``kept`` map of each ``round_line`` call the writer makes inside."""
    maps = []

    def keeping(run_index, seed, log, kept=None):
        maps.append(kept)
        return round_line(run_index, seed, log, kept)

    with mock.patch.object(cli, "round_line", keeping):
        yield maps


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(logs=runs_of_rounds())
def test_written_lines_are_json_dumps_of_the_full_records(logs):
    fields = [f.name for f in dataclasses.fields(UeRoundRecord)]
    expected = []
    for log in logs:
        for record in log.ues:
            assert [f.name for f in dataclasses.fields(record)] == fields
        expected.append(json.dumps({
            "run": 3, "seed": 9, "round": log.round_index,
            "ues": [json_object(r) for r in log.ues],
            "stations": [json_object(s) for s in log.stations],
        }, sort_keys=True))
    # the first round with no JSON form, if any, ends the run
    bad = next((i for i, line in enumerate(expected) if "NaN" in line or "Infinity" in line),
               None)
    with tempfile.TemporaryDirectory() as folder, kept_maps_of_writes() as kept_maps:
        path = os.path.join(folder, "rounds.jsonl")
        if bad is None:
            write_rounds_part(path, 3, 9, logs)
        else:
            with pytest.raises(ValueError, match=f"round {logs[bad].round_index} of run 3 "):
                write_rounds_part(path, 3, 9, logs)
        with open(f"{path}.3", encoding="utf-8") as handle:
            written = handle.read().splitlines()
    assert written == expected[:bad]
    # one map for the run, holding at most one entry per UE id
    assert all(kept is kept_maps[0] for kept in kept_maps)
    assert set(kept_maps[0]) <= {r.ue_id for log in logs for r in log.ues}


def test_kept_text_holds_one_entry_per_ue_however_long_the_run(tmp_path):
    config = dataclasses.replace(preset("scenario1"), offline=True, episodes=400, runs=1)
    with kept_maps_of_writes() as kept_maps:
        run_simulation(config, functools.partial(write_rounds_part, str(tmp_path / "r")))
    assert len(kept_maps) > 200
    assert all(kept is kept_maps[0] for kept in kept_maps)
    assert 0 < len(kept_maps[0]) <= config.population.num_ues


@pytest.mark.parametrize("name, value", [
    ("budget_after", 3.0), ("value_factor", 0.5), ("fallback", True), ("strategy", "greedy"),
])
def test_kept_abstention_text_is_made_anew_when_a_kept_field_changes(name, value):
    # the UE abstains twice with the same objects in every field but one, so
    # text kept from the first round would carry the old value into the second
    first = AbstentionRecord(4, "myopic", False, 2.0, 1.25, 1)
    second = dataclasses.replace(first, losses_after=2, **{name: value})
    kept = {}
    for round_index, record in enumerate((first, second), 1):
        log = RoundLog(round_index, (record,), ())
        expected = json.dumps({
            "run": 0, "seed": 1, "round": round_index, "ues": [json_object(record)],
            "stations": [],
        }, sort_keys=True)
        assert round_line(0, 1, log, kept) == expected


# 30 UEs with oracle competitor counts, as in the CI cross-version check
ORACLE_INI = """\
[population]
num_ues = 30
budget = 20.0
greedy = 10
foresight = 6
llm = 2
[auction]
competitor_mode = oracle
[simulation]
episodes = 60
"""

# bench/scenarios/crowd.ini: 800 UEs and 64 channels a station, so greedy
# grids are bisected and hundreds of requests meet in one auction
CROWD_INI = """\
[topology]
channels_per_station = 64
[population]
num_ues = 800
budget = 1000000.0
greedy = 400
myopic = 400
[simulation]
episodes = 20
runs = 1
jobs = 1
"""

# bench/scenarios/horizon.ini: one llm and 39 greedy UEs over 1600 rounds,
# so price histories and loss streaks grow long
HORIZON_INI = """\
[population]
num_ues = 40
budget = 600.0
llm = 1
greedy = 39
myopic = 0

[simulation]
episodes = 1600
runs = 1
jobs = 1
"""

# sha256 of the artifacts of ``run ... --offline``: for each preset at
# ``--seed 1 --runs 2 --episodes 40``, for scenario1 at full size, ``--seed 2
# --runs 20 --episodes 160`` (the size of the cli_artifacts benchmark, whose
# UE records are nearly all abstentions and whose auctions mostly have no
# request at the reserve), for ORACLE_INI at ``--seed 1 --runs 3``,
# for CROWD_INI at ``--seed 1103``, where a greedy UE's win probability
# rounds to 1.0 a grid point below the top of its grid, and for HORIZON_INI at
# ``--seed 1``.  The preset digests
# were taken before abstentions had their own record type and kept float
# text; the oracle ones while an empty price model still raised and a second
# model held the reserve prior that decides round 1 of every policy that reads
# prices; the crowd ones while the auction still sorted every unit claim; the
# horizon ones while the parts of rounds.jsonl were still joined in --out; the
# full-size ones while an abstention's kept text was its two floats alone and
# an auction with no request at the reserve was still sorted and cleared.  A
# change to how rounds are played or written that moves a byte of them fails here
PINNED_DIGESTS = {
    "scenario1": {
        "rounds.jsonl": "7f1ee368678544aa89599d379612d9c64bbf3a7dcc83d48c67a8318186826366",
        "metrics.csv": "1e3f82d5449593a405659efd6dd574b84628b79c3ace84df1986e8f11c7e7233",
        "summary.json": "f6e0252bd17d8a8c132f43e18869b4f00b56af035b1caa52f1d62d385325bfd4",
    },
    "scenario1_full": {
        "rounds.jsonl": "89a8edbbac1b9ea276d58acaca013978a8caade18ba943928733e0c418693f4d",
        "metrics.csv": "1c618419f65a0abc4adb3c933bdee28bfb4e3df7df21079a3994a123116d6390",
        "summary.json": "71b2b355b85f990c431f321b316533004c6a4070032279059ed9777a6f091167",
    },
    "scenario2": {
        "rounds.jsonl": "0fd087d4ac16af7603eb5e812eb4a72abe483c44298bebddd0c04ff41e00103c",
        "metrics.csv": "6d280112784797d9eed9a10d18ff968a54f4ee860330c7be0f42d79e438084d0",
        "summary.json": "57c6ec78fa7e9fcb3d2863b66ef053f8426549f0067727b222e42f7bf54e9263",
    },
    "oracle": {
        "rounds.jsonl": "60fc84bb688cb51c3351016f42af7fa8c1ed82fa8f9741d4d72272da0a471363",
        "metrics.csv": "f79998717f42ec4bb747c15e46b09c8613db96c1021cdf93e3b423f977eb2545",
        "summary.json": "14055747791a916523877b397aa95cb339f7225360dac4039796bd800740d513",
    },
    "crowd": {
        "rounds.jsonl": "3895373c7e077261a3e339b95c91ce65400bbe5b06a19ef99defd1ddc663a4be",
        "metrics.csv": "57988ae78bb358fb3bc7b269ce1ed6552b888aff72405ff47450192073ca6ea6",
        "summary.json": "da73e8aedb7894a1bbe08847533603d7190e7638a2b337799c4ee1708355153a",
    },
    "horizon": {
        "rounds.jsonl": "30921eab0d2b2b29ff6202283b342b7f4ae4376a632878744c3fc21e2fa37434",
        "metrics.csv": "d8adf1240845a6f3e554bf3897a35ab7b2b8022ec0557fa8875d694bcb5ff1e6",
        "summary.json": "0aea447fa2a1bca22bed0b97361ea4a3c24be96d5c1909534b889b2da8351adb",
    },
}
INLINE_INI = {
    "oracle": (ORACLE_INI, "1", "3"),
    "crowd": (CROWD_INI, "1103", "1"),
    "horizon": (HORIZON_INI, "1", "1"),
}
# the preset each other pin runs, and its flags
PRESET_RUNS = {
    "scenario1": ("scenario1", ("--seed", "1", "--runs", "2", "--episodes", "40")),
    "scenario2": ("scenario2", ("--seed", "1", "--runs", "2", "--episodes", "40")),
    "scenario1_full": ("scenario1", ("--seed", "2", "--runs", "20", "--episodes", "160")),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_seeded_artifacts_keep_their_bytes(tmp_path, name):
    out = tmp_path / name
    if name in INLINE_INI:
        text, seed, runs = INLINE_INI[name]
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        config = load_scenario_file(str(path))
        source = ("--config", str(path), "--seed", seed, "--runs", runs)
    else:
        preset_name, flags = PRESET_RUNS[name]
        config = preset(preset_name)
        source = ("--preset", preset_name, *flags)
    assert run_cli("run", *source, "--offline", "--out", str(out)) == 0
    # the run left the abstention every policy shares as it was
    assert ABSTAIN == BidDecision(station_id=None)
    # read a line at a time: the full-size rounds.jsonl is tens of MB
    bid = greedy_bid_in_round_one = saturated = greedy_short_of_fee = False
    requests = collections.Counter()
    with open(out / "rounds.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            for ue in record["ues"]:
                if not ue["abstained"]:
                    bid = True
                    requests[record["round"], ue["station_id"]] += 1
                    # a greedy UE bids in round 1, where the reserve prior is all it reads
                    greedy_bid_in_round_one |= (
                        record["round"] == 1 and ue["strategy"] == "greedy"
                    )
                    continue
                saturated |= (
                    ue["losses_after"] > config.urgency.saturation_losses[0]
                    and ue["value_factor"] == config.urgency.max_value_per_mbps[0]
                )
                greedy_short_of_fee |= (
                    ue["strategy"] == "greedy"
                    and ue["budget_after"] < config.auction.entrance_fee
                )
    assert bid and greedy_bid_in_round_one
    if name == "crowd":
        # some auction has more requests than channels
        assert max(requests.values()) > config.topology.channels_per_station
    else:
        # the run holds both kinds of abstention the writer keeps text for: a
        # saturated urgency, and a greedy UE that cannot pay the fee
        assert saturated and greedy_short_of_fee
    digests = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest()
        for file in PINNED_DIGESTS[name]
    }
    assert digests == PINNED_DIGESTS[name]


# sha256 of sweep.csv and of the stdout, its --out path written as OUT, of
# ``sweep --preset <name> --offline --seeds 4`` over each preset's horizons:
# the scenario2 ones taken before the round writer had one finiteness rule,
# the scenario1 ones while the parts of rounds.jsonl were still joined in
# --out.  A change to how sweep cells are played, averaged or printed that
# moves a byte of them fails here
PINNED_SWEEP_DIGESTS = {
    "scenario1": ("5,10,20", {
        "sweep.csv": "7b15619265ac1959d382690fdb63b28ba78496059da4eff78eb6cad9dfc873c1",
        "stdout": "30ac4362a67e5018bcd830682356c5f84bb11f4556fb1dce43dc3933349336f0",
    }),
    "scenario2": ("5,20", {
        "sweep.csv": "515ae805de24db715479adc2cb0d042d91992fd2ba6c9240f01d37db8758e5f2",
        "stdout": "4ee6a381c5af524d9a0d4d554b2c1252dddcd3d61d033cf98f492cca2b3f5b8a",
    }),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(PINNED_SWEEP_DIGESTS))
def test_seeded_sweep_keeps_its_bytes(tmp_path, capsys, name, jobs):
    horizons, pinned = PINNED_SWEEP_DIGESTS[name]
    out = tmp_path / "out"
    assert run_cli("sweep", "--preset", name, "--offline", "--horizons", horizons,
                   "--seeds", "4", "--jobs", jobs, "--out", str(out)) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    digests = {
        "sweep.csv": hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
    }
    assert digests == pinned


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
            # a negative zero passes "< 0": it was written as every bid's fee_paid,
            # and as the clearing price of every round that rejected no claim
            ("auction", "entrance_fee", "-0.0"),
            ("topology", "power_unit_price", "-0.0"),
            # the value increment divides by it as a float, which overflows
            pytest.param("valuation", "saturation_losses", str(10**400),
                         id="valuation-saturation_losses-1e400"),
            ("topology", "num_sbs", "-1"),
            pytest.param("population", "qos_classes_mbps", "",
                         id="population-qos_classes_mbps-empty"),
            ("llm", "temperature", "-5"),
            ("llm", "foresight_threshold", "-3"),
            # a share of the remaining rounds
            ("llm", "foresight_pacing", "7"),
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
        path.write_text("[topology]\nbandwidth_hz = -1\nreference_distance_m = 0\n"
                        "mbs_pathloss_exponent = 1.5\nchannels_per_station = 0\n"
                        "[simulation]\nepisodes = 0\n")
        code = run_cli("run", "--config", str(path), "--offline",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        # each refused channel value is a line of its own
        assert len(lines) == 5
        assert all(line.startswith("config error: ") for line in lines)
        for key in ("bandwidth_hz", "reference_distance_m", "mbs_pathloss_exponent",
                    "channels_per_station", "episodes"):
            assert sum(key in line for line in lines) == 1

    @pytest.mark.parametrize(
        "text, flags, expected",
        [
            ("[population]\nnum_ues = many\n", ["--horizons", "0", "--seeds", "0"],
             ["horizons must be positive integers", "seeds must be at least 1",
              "{path}: bad value 'many' for 'num_ues' in [population]"]),
            ("[population]\ncolour = red\n", ["--horizons", "5,5"],
             ["horizons must be distinct",
              "{path}: unknown key 'colour' in [population]"]),
        ],
        ids=["unreadable-value", "unknown-key"],
    )
    def test_sweep_flag_lines_come_before_the_file_lines(
        self, tmp_path, capsys, text, flags, expected
    ):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "out"
        code = run_cli("sweep", "--config", str(path), "--offline", "--out", str(out), *flags)
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"config error: {line.format(path=path)}" for line in expected]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("run", ["--episodes", "3"]), ("sweep", ["--horizons", "3", "--seeds", "2"])],
    )
    def test_unreadable_value_does_not_hide_other_keys_rules(
        self, tmp_path, capsys, command, extra
    ):
        path = tmp_path / "bad.ini"
        path.write_text("[population]\nnum_ues = many\n[topology]\nbandwidth_hz = -1\n")
        out = tmp_path / "out"
        code = run_cli(command, "--config", str(path), "--offline", "--out", str(out), *extra)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {path}: bad value 'many' for 'num_ues' in [population]",
            "config error: bandwidth_hz must be positive",
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            # the sum's line names num_ues, held at its default of 40
            "[population]\nnum_ues = many\ngreedy = 50\n",
            # a count is named in the rules as one of the strategy counts
            "[population]\nnum_ues = 10\nmyopic = 3\ngreedy = lots\n",
            # two base values for the two classes meant, not the default three
            "[population]\nqos_classes_mbps = 2, x\n[valuation]\nbase_value_per_mbps = 1, 2\n",
        ],
        ids=["num_ues", "a-count", "the-classes"],
    )
    def test_rule_lines_on_an_unreadable_key_are_left_out(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        code = run_cli("run", "--config", str(path), "--offline", "--episodes", "3",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "bad value" in lines[0]

    def test_a_flag_over_an_unreadable_key_is_checked(self, tmp_path, capsys):
        # --episodes replaces the file's unreadable value, so its rule stands
        path = tmp_path / "bad.ini"
        path.write_text("[simulation]\nepisodes = few\n")
        code = run_cli("run", "--config", str(path), "--offline", "--episodes", "0",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {path}: bad value 'few' for 'episodes' in [simulation]",
            "config error: episodes must be at least 1",
        ]

    def test_sweep_takes_no_episodes(self, tmp_path, capsys):
        # each horizon is a cell's episodes, so sweep has no --episodes to ignore
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            run_cli("sweep", "--preset", "scenario1", "--offline", "--episodes", "0",
                    "--horizons", "3", "--seeds", "1", "--out", str(out))
        assert exited.value.code == 2
        assert "unrecognized arguments: --episodes 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, extra, keys",
        [
            ("run", "[topology]\nmbs_power_watts = 0\nchannels_per_station = 0\n", [],
             # the last is the rule that small-cell power is below macro power
             {"mbs_power_watts", "channels_per_station", "sbs_power_watts"}),
            ("run", "[valuation]\nbase_value_per_mbps = 0\nmax_value_per_mbps = -1\n"
             "saturation_losses = 0\n", [],
             {"base_value_per_mbps", "max_value_per_mbps", "saturation_losses"}),
            ("run", "[topology]\nsbs_power_watts = 50\nchannels_per_station = 0\n", [],
             {"sbs_power_watts", "channels_per_station"}),
            # the file's episodes = 0 is overridden before the rules are checked
            ("run", "[topology]\nbandwidth_hz = -1\n[simulation]\nepisodes = 0\n",
             ["--episodes", "5"], {"bandwidth_hz"}),
            ("sweep", "[population]\nbudget = -1\n", ["--horizons", "0"],
             {"horizons", "budget"}),
            ("run", "[llm]\ntemperature = -5\nforesight_threshold = -3\nforesight_pacing = 7\n",
             [], {"temperature", "foresight_threshold", "foresight_pacing"}),
        ],
        ids=["station-powers-and-channels", "urgency", "small-cell-power-and-channels",
             "override-before-rules", "sweep-flags-and-config", "llm-ranges"],
    )
    def test_each_failed_rule_is_one_line_named_by_its_key(
        self, tmp_path, capsys, command, text, extra, keys
    ):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "out"
        code = run_cli(command, "--config", str(path), "--offline", "--out", str(out), *extra)
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        named = [re.match(r"config error: (\w+) ", line).group(1) for line in lines]
        assert len(named) == len(keys)
        assert set(named) == keys
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("num_ues = 3\n[population]\n",
             ["line 1: 'num_ues = 3' comes before any [section]"]),
            ("[population]\nnum_ues = 3\nthis is bad\nalso bad\n",
             ["line 3: 'this is bad' is not a key = value line",
              "line 4: 'also bad' is not a key = value line"]),
            ("[population]\nnum_ues = 3\n[simulation]\nepisodes = 2\n[population]\n",
             ["line 5: section [population] appears again"]),
            ("[population]\nnum_ues = 3\nllm = 1\nNUM_UES = 4\n",
             ["line 4: key 'num_ues' appears again in [population]"]),
        ],
        ids=["no-section-header", "two-unparsable-lines", "repeated-section",
             "repeated-key"],
    )
    def test_ini_syntax_error_is_one_line_per_problem(self, tmp_path, text, expected):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "hetmarket", "run", "--config", str(path), "--offline",
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"config error: {path}: {problem}" for problem in expected
        ]

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

    @pytest.mark.parametrize(
        "command, names, extra",
        [
            ("run", ["rounds.jsonl"], ["--episodes", "3"]),
            ("run", ["metrics.csv"], ["--episodes", "3"]),
            ("run", ["summary.json"], ["--episodes", "3", "--format", "json"]),
            ("run", ["rounds.jsonl", "metrics.csv", "summary.json"], ["--episodes", "3"]),
            ("sweep", ["sweep.csv"], ["--horizons", "3", "--seeds", "2"]),
        ],
    )
    def test_directory_at_an_artifact_name_is_exit_two_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, names, extra
    ):
        def explode(self):
            raise AssertionError("a run was played")

        monkeypatch.setattr(SimulationRun, "execute", explode)
        out = tmp_path / "out"
        out.mkdir()
        for name in names:
            (out / name).mkdir()
        (out / "notes.txt").write_text("an earlier file\n")
        before = entries(out)
        code = run_cli(command, "--preset", "scenario1", "--offline", "--out", str(out), *extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # one line per directory, in the order the command writes the files
        assert captured.err.splitlines() == [
            f"config error: cannot write {out / name}: it is a directory" for name in names
        ]
        assert entries(out) == before

    def test_a_directory_at_a_name_the_format_skips_is_left_alone(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "metrics.csv").mkdir()
        code = run_cli("run", "--preset", "scenario1", "--offline", "--episodes", "3",
                       "--format", "json", "--out", str(out))
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.csv", "rounds.jsonl", "summary.json",
        ]
        assert (out / "metrics.csv").is_dir()

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
