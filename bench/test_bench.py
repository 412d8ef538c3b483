"""Tests of the benchmark itself: every output check can fail, traced counts
repeat, and parallel runs match serial ones.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from host import QUIET_SNIPPET_S, HostSpeed  # noqa: E402
from hetmarket import cli  # noqa: E402
from stub import StubEndpoint  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_RUNS, SMALL_EPISODES = 2, 30


def call_cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def scenario(name: str) -> str:
    return os.path.join(HERE, "scenarios", f"{name}.ini")


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A small offline cli_artifacts output with its scenario facts."""
    out = str(tmp_path_factory.mktemp("clean"))
    call_cli("run", "--config", scenario("cli_artifacts"), "--offline", "--seed", "5",
             "--runs", str(SMALL_RUNS), "--episodes", str(SMALL_EPISODES), "--out", out)
    facts = dataclasses.replace(
        checks.scenario_facts(scenario("cli_artifacts"), offline=True),
        runs=SMALL_RUNS, episodes=SMALL_EPISODES,
    )
    return out, facts


@pytest.fixture
def corrupt(clean, tmp_path):
    """A fresh copy of the clean artifacts and helpers to damage it."""
    src, facts = clean
    out = str(tmp_path / "copy")
    shutil.copytree(src, out)

    def edit_rounds(change):
        path = os.path.join(out, "rounds.jsonl")
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        records = change(records)
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)

    return out, facts, edit_rounds


def first_winner(records):
    """(record, station, UE record) of the first unit sold in the log."""
    for rec in records:
        for st in rec["stations"]:
            for uid in st["allocations"]:
                return rec, st, rec["ues"][int(uid)]
    raise AssertionError("nothing was sold")


def test_clean_artifacts_pass_every_check(clean):
    out, facts = clean
    records, problems = checks.check_artifacts(out, facts)
    assert problems == []
    assert checks.ue_rounds(records) == SMALL_RUNS * SMALL_EPISODES * facts.num_ues


def test_altered_payment_fails_auction_and_money_checks(corrupt):
    out, facts, edit_rounds = corrupt

    def change(records):
        _, st, _ = first_winner(records)
        uid = next(iter(st["per_unit_payments"]))
        st["per_unit_payments"][uid] += 0.01
        return records

    edit_rounds(change)
    records = checks.read_rounds(out)
    assert any("payments" in p for p in checks.check_auctions(records, facts))
    assert any("disagrees" in p for p in checks.check_money(records, facts))


@pytest.mark.parametrize("field", ["allocations", "clearing_price"])
def test_altered_outcome_fails_auction_check(corrupt, field):
    out, facts, edit_rounds = corrupt

    def change(records):
        _, st, _ = first_winner(records)
        if field == "allocations":
            uid = next(iter(st["allocations"]))
            st["allocations"][uid] += 1
        else:
            st["clearing_price"] += 0.5
        return records

    edit_rounds(change)
    assert checks.check_auctions(checks.read_rounds(out), facts)


def test_lowered_winning_bid_fails_auction_check(corrupt):
    out, facts, edit_rounds = corrupt

    def change(records):
        _, st, ue = first_winner(records)
        ue["per_unit_bid"] = facts.reserves[st["station_id"]]
        return records

    edit_rounds(change)
    assert checks.check_auctions(checks.read_rounds(out), facts)


def test_dropped_round_fails_money_and_metrics_checks(corrupt):
    out, facts, edit_rounds = corrupt
    edit_rounds(lambda records: records[:5] + records[6:])
    records = checks.read_rounds(out)
    assert any("rounds are not" in p for p in checks.check_money(records, facts))
    assert checks.check_metrics(records, out)


def test_broken_budget_chain_fails_money_check(corrupt):
    out, facts, edit_rounds = corrupt

    def change(records):
        records[3]["ues"][7]["budget_after"] -= 1.0
        return records

    edit_rounds(change)
    assert any("budget" in p for p in checks.check_money(checks.read_rounds(out), facts))


def test_negative_budget_fails_money_check(corrupt):
    out, facts, edit_rounds = corrupt

    def change(records):
        for rec in records:
            if rec["run"] == 0:
                rec["ues"][0]["budget_after"] = -1.0
        return records

    edit_rounds(change)
    problems = checks.check_money(checks.read_rounds(out), facts)
    assert any("negative" in p for p in problems)


def test_revenue_not_matching_spend_fails_money_check(corrupt):
    out, facts, edit_rounds = corrupt

    def change(records):
        records[2]["stations"][1]["revenue"] += 0.3
        return records

    edit_rounds(change)
    assert any("revenue" in p for p in checks.check_money(checks.read_rounds(out), facts))


def test_altered_metrics_row_fails_metrics_check(corrupt):
    out, facts, _ = corrupt
    path = os.path.join(out, "metrics.csv")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("payments_paid")
    rows[4][column] = str(float(rows[4][column]) + 0.25)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    assert checks.check_metrics(checks.read_rounds(out), out)


def test_altered_summary_fails_summary_check(corrupt):
    out, facts, _ = corrupt
    path = os.path.join(out, "summary.json")
    with open(path, encoding="utf-8") as handle:
        summary = json.load(handle)
    summary["per_strategy"]["myopic"]["avg_net_utility"] += 0.001
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    assert checks.check_summary(out, facts)


def test_changed_byte_fails_identity_check(clean, corrupt):
    src, _ = clean
    out, _, edit_rounds = corrupt
    assert checks.same_artifacts(src, out)
    with open(os.path.join(out, "metrics.csv"), "a", encoding="utf-8") as handle:
        handle.write("\n")
    assert not checks.same_artifacts(src, out)


def live_scenario(tmp_path, base_url: str) -> str:
    """live_llm's scenario at a tenth of its rounds, with greedy UEs as well."""
    with open(scenario("live_llm"), encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace("[llm]\n", f"[llm]\nbase_url = {base_url}\n")
    text = text.replace("myopic = 32", "greedy = 8\nmyopic = 24")
    text = text.replace("episodes = 150", "episodes = 15")
    path = tmp_path / "live.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_live_checks_fail_on_fallback_bad_bid_and_request_count(tmp_path):
    out = str(tmp_path / "out")
    with StubEndpoint() as stub:
        config = live_scenario(tmp_path, stub.base_url)
        call_cli("run", "--config", config, "--seed", "2", "--out", out)
        requests, malformed = stub.counts()
    facts = checks.scenario_facts(config, offline=False)
    records = checks.read_rounds(out)
    assert malformed > 0
    assert checks.check_live(records, facts, requests, malformed) == []
    assert checks.check_live(records, facts, requests + 1, malformed)

    llm = [ue for rec in records for ue in rec["ues"]
           if ue["strategy"] == "llm" and not ue["abstained"]]
    llm[0]["fallback"] = True
    assert any("fell back" in p for p in checks.check_live(records, facts, requests, malformed))
    llm[0]["fallback"] = False
    llm[1]["per_unit_bid"] = 1e6
    assert checks.check_llm_bids(records, facts)


def test_llm_decisions_skip_ues_without_a_station():
    facts = checks.scenario_facts(scenario("live_llm"), offline=False)

    def llm_ue(uid, abstained, fallback=False):
        return {"ue_id": uid, "strategy": "llm", "abstained": abstained,
                "fallback": fallback, "budget_after": facts.budget}

    records = [
        {"run": 0, "round": r, "ues": [llm_ue(0, False), llm_ue(1, True), llm_ue(2, True, r == 2)]}
        for r in (1, 2)
    ]
    # UE 0 bids twice; UE 1 never bids, so it has no station; UE 2 fell back once
    assert checks.llm_decisions(records, facts) == (3, 1)


def traced_counts(tmp_path, name: str) -> dict:
    """Count-valued layer metrics of one traced call on a small live scenario."""
    out = str(tmp_path / name)
    tracer = Tracer()
    with StubEndpoint() as stub:
        config = live_scenario(tmp_path, stub.base_url)
        layers.install(tracer)
        try:
            call_cli("run", "--config", config, "--seed", "4", "--out", out)
        finally:
            tracer.uninstall()
        stub_requests = stub.counts()[0]
    values = layers.metrics(tracer, stub_requests, 0.0, 0.0)
    return {k: v for k, v in values.items() if layers.UNITS[k] in ("count", "B", "req/decision")}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = traced_counts(tmp_path, "a")
    assert first == traced_counts(tmp_path, "b")
    for name in ("strategy.win_prob_calls", "strategy.mean_calls", "auction.vcg_calls",
                 "llm_agent.live_decisions", "llm_agent.parse_failures", "cli.bytes_written"):
        assert first[name] > 0, name
    assert first["llm_agent.requests"] == first["llm_agent.stub_requests"]
    assert first["llm_agent.fallbacks"] == 0


def test_tracing_leaves_the_program_unpatched(tmp_path):
    from hetmarket import engine, strategy

    before = (engine.run_vcg, strategy.EmpiricalPriceModel.mean, cli.main)
    traced_counts(tmp_path, "c")
    assert (engine.run_vcg, strategy.EmpiricalPriceModel.mean, cli.main) == before


def test_cli_artifacts_with_two_jobs_match_one_job(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        call_cli("run", "--config", scenario("cli_artifacts"), "--offline", "--seed", "9",
                 "--runs", "20", "--episodes", "160", "--jobs", jobs, "--format", "both",
                 "--out", out)
        outs.append(out)
    assert checks.same_artifacts(*outs)


def test_host_speed_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert host.normalised_s(2.0) == pytest.approx(2.0 * QUIET_SNIPPET_S / host.snippet_s())


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
