"""Output checks computed apart from the program.

Every check reads only the artifacts a `hetmarket run` wrote (`rounds.jsonl`,
`metrics.csv`, `summary.json`) and the facts of the scenario file, and
returns a list of problems; an empty list means the artifacts hold.  None of
them imports `hetmarket`: the pricing rule, the money bookkeeping and the
metric reductions are written out again here, so that a fault in the program
cannot hide itself by being shared with its check.
"""

from __future__ import annotations

import configparser
import csv
import filecmp
import json
import math
import os
from dataclasses import dataclass

REL_TOL = 1e-9
ABS_TOL = 1e-9
ARTIFACTS = ("rounds.jsonl", "metrics.csv", "summary.json")
STRATEGY_ORDER = ("llm", "foresight", "greedy", "myopic")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@dataclass(frozen=True)
class ScenarioFacts:
    """What the checks need to know about a scenario, read from its INI file."""

    reserves: dict[int, float]
    capacity: int
    fee: float
    budget: float
    num_ues: int
    strategy_counts: dict[str, int]
    runs: int
    episodes: int
    offline: bool


def scenario_facts(path: str, offline: bool) -> ScenarioFacts:
    """Read a scenario file with the documented defaults of the INI format."""
    ini = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as handle:
        ini.read_string(handle.read())

    def get(section: str, key: str, default: str) -> str:
        return ini.get(section, key, fallback=default)

    price = float(get("topology", "power_unit_price", "0.05"))
    reserves = {0: price * float(get("topology", "mbs_power_watts", "40.0"))}
    for k in range(int(get("topology", "num_sbs", "2"))):
        reserves[k + 1] = price * float(get("topology", "sbs_power_watts", "4.0"))
    num_ues = int(get("population", "num_ues", "40"))
    counts = {s: int(get("population", s, "0")) for s in ("llm", "foresight", "greedy")}
    counts["myopic"] = int(get("population", "myopic", str(num_ues - sum(counts.values()))))
    return ScenarioFacts(
        reserves=reserves,
        capacity=int(get("topology", "channels_per_station", "4")),
        fee=float(get("auction", "entrance_fee", "0.1")),
        budget=float(get("population", "budget", "15.0")),
        num_ues=num_ues,
        strategy_counts=counts,
        runs=int(get("simulation", "runs", "1")),
        episodes=int(get("simulation", "episodes", "40")),
        offline=offline,
    )


def read_rounds(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "rounds.jsonl"), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def ue_rounds(records: list[dict]) -> int:
    """UE-rounds played: one per UE decision or abstention in one round."""
    return sum(len(r["ues"]) for r in records)


def clear(
    requests: list[tuple[int, int, float]], capacity: int, reserve: float
) -> tuple[dict[int, int], dict[int, float], float]:
    """Reference clearing of one station-round by whole requests.

    Requests below the reserve drop out.  The rest are filled in order of
    falling bid (lower bidder id first on ties) until capacity runs out, so
    the last served request may be filled in part.  The clearing price is
    the bid of the first unit left unserved, or the reserve when every unit
    was served.  A winner pays per unit the larger of the reserve and the
    value the others lose by its presence, spread over the units it won.
    """
    ranked = sorted(
        (r for r in requests if r[2] >= reserve), key=lambda r: (-r[2], r[0])
    )

    def fill(skip: int | None) -> tuple[dict[int, int], float, float | None]:
        left, alloc, value, first_unserved = capacity, {}, 0.0, None
        for bidder, quantity, bid in ranked:
            if bidder == skip:
                continue
            take = min(quantity, left)
            if take:
                alloc[bidder] = take
                value += take * bid
                left -= take
            if take < quantity and first_unserved is None:
                first_unserved = bid
        return alloc, value, first_unserved

    alloc, _, first_unserved = fill(None)
    bids = {r[0]: r[2] for r in ranked}
    payments = {}
    for bidder, won in alloc.items():
        _, value_without, _ = fill(bidder)
        others_with = sum(n * bids[b] for b, n in alloc.items() if b != bidder)
        payments[bidder] = max(reserve, (value_without - others_with) / won)
    clearing = reserve if first_unserved is None else first_unserved
    return alloc, payments, clearing


def _int_keys(mapping: dict) -> dict[int, float]:
    return {int(k): v for k, v in mapping.items()}


def check_auctions(records: list[dict], facts: ScenarioFacts) -> list[str]:
    """Re-clear every station-round from the logged bids and compare."""
    problems = []
    for rec in records:
        where = f"run {rec['run']} round {rec['round']}"
        bids_at: dict[int, list[tuple[int, int, float]]] = {s: [] for s in facts.reserves}
        bid_of = {}
        for ue in rec["ues"]:
            if not ue["abstained"]:
                bids_at.setdefault(ue["station_id"], []).append(
                    (ue["ue_id"], ue["quantity"], ue["per_unit_bid"])
                )
                bid_of[ue["ue_id"]] = ue["per_unit_bid"]
        if sorted(s["station_id"] for s in rec["stations"]) != sorted(facts.reserves):
            problems.append(f"{where}: stations logged differ from the scenario's")
            continue
        for st in rec["stations"]:
            sid = st["station_id"]
            reserve = facts.reserves[sid]
            alloc, pay, clearing = clear(bids_at[sid], facts.capacity, reserve)
            logged_alloc = _int_keys(st["allocations"])
            logged_pay = _int_keys(st["per_unit_payments"])
            logged_terms = _int_keys(st["seller_utility_terms"])
            here = f"{where} station {sid}"
            if logged_alloc != alloc:
                problems.append(f"{here}: allocations {logged_alloc} != re-cleared {alloc}")
                continue
            if set(logged_pay) != set(alloc) or any(
                not close(logged_pay[b], pay[b]) for b in alloc
            ):
                problems.append(f"{here}: payments {logged_pay} != re-cleared {pay}")
            if not close(st["clearing_price"], clearing):
                problems.append(
                    f"{here}: clearing price {st['clearing_price']} != re-cleared {clearing}"
                )
            if sum(logged_alloc.values()) > facts.capacity:
                problems.append(f"{here}: allocates more than capacity {facts.capacity}")
            for b, p in logged_pay.items():
                if not reserve - ABS_TOL <= p <= bid_of.get(b, -math.inf) + ABS_TOL:
                    problems.append(f"{here}: payment {p} of UE {b} outside [reserve, bid]")
            if set(logged_terms) != set(alloc) or any(
                not close(logged_terms[b], alloc[b] * (logged_pay.get(b, 0.0) - reserve))
                for b in alloc
            ):
                problems.append(f"{here}: seller utility terms disagree with payments")
            fees = facts.fee * len(bids_at[sid])
            if not close(st["fees_collected"], fees):
                problems.append(f"{here}: fees collected {st['fees_collected']} != {fees}")
    return problems


def check_money(records: list[dict], facts: ScenarioFacts) -> list[str]:
    """Spend equals revenue each round, budget chains hold, nothing goes negative."""
    problems = []
    budgets: dict[tuple[int, int], float] = {}
    rounds_seen: dict[int, list[int]] = {}
    for rec in records:
        where = f"run {rec['run']} round {rec['round']}"
        rounds_seen.setdefault(rec["run"], []).append(rec["round"])
        ids = [ue["ue_id"] for ue in rec["ues"]]
        if ids != list(range(facts.num_ues)):
            problems.append(f"{where}: UE records are not ids 0..{facts.num_ues - 1}")
        paid_to = {}
        for st in rec["stations"]:
            for b, n in _int_keys(st["allocations"]).items():
                paid_to[b] = (st["station_id"], n, st["per_unit_payments"][str(b)])
        spend = 0.0
        for ue in rec["ues"]:
            uid = ue["ue_id"]
            fee = 0.0 if ue["abstained"] else facts.fee
            if ue["fee_paid"] != fee:
                problems.append(f"{where}: UE {uid} paid fee {ue['fee_paid']}, expected {fee}")
            station, won, price = paid_to.get(uid, (ue["station_id"], 0, 0.0))
            if (won, station) != (ue["channels_won"], ue["station_id"]) or not close(
                price, ue["per_unit_payment"]
            ):
                problems.append(f"{where}: UE {uid} record disagrees with its station's outcome")
            cost = ue["fee_paid"] + ue["channels_won"] * ue["per_unit_payment"]
            spend += cost
            before = budgets.get((rec["run"], uid), facts.budget)
            if not close(before - cost, ue["budget_after"]):
                problems.append(
                    f"{where}: UE {uid} budget {before} - {cost} != {ue['budget_after']}"
                )
            # the tolerance lets through a known rounding fault: a payment
            # can exceed a bid of the whole budget in the last bits
            if ue["budget_after"] < -ABS_TOL:
                problems.append(f"{where}: UE {uid} budget went negative")
            budgets[(rec["run"], uid)] = ue["budget_after"]
        revenue = math.fsum(st["revenue"] for st in rec["stations"])
        if not close(spend, revenue):
            problems.append(f"{where}: UE spend {spend} != station revenue {revenue}")
    for run, rounds in rounds_seen.items():
        if rounds != list(range(1, len(rounds) + 1)):
            problems.append(f"run {run}: rounds are not 1..{len(rounds)} in order")
    if sorted(rounds_seen) != list(range(len(rounds_seen))):
        problems.append(f"runs logged are {sorted(rounds_seen)}, not 0..{len(rounds_seen) - 1}")
    return problems


def _reduce_per_ue(records: list[dict]) -> dict[tuple[int, int], dict]:
    rows: dict[tuple[int, int], dict] = {}
    rounds_in_run: dict[int, int] = {}
    for rec in records:
        rounds_in_run[rec["run"]] = rounds_in_run.get(rec["run"], 0) + 1
        for ue in rec["ues"]:
            row = rows.setdefault(
                (rec["run"], ue["ue_id"]),
                {"seed": rec["seed"], "strategy": ue["strategy"], "gross": 0.0,
                 "fees": 0.0, "payments": 0.0, "channels": 0, "bids": 0,
                 "wins": 0, "fallbacks": 0},
            )
            row["gross"] += ue["gross_utility"]
            row["fees"] += ue["fee_paid"]
            row["payments"] += ue["channels_won"] * ue["per_unit_payment"]
            row["channels"] += ue["channels_won"]
            row["bids"] += not ue["abstained"]
            row["wins"] += ue["channels_won"] > 0
            row["fallbacks"] += ue["fallback"]
    for (run, _), row in rows.items():
        row["episodes"] = rounds_in_run[run]
    return rows


def _read_metrics(out_dir: str) -> list[dict[str, str]]:
    with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_metrics(records: list[dict], out_dir: str) -> list[str]:
    """Per-UE totals reduced from rounds.jsonl equal metrics.csv row by row."""
    problems = []
    expected = _reduce_per_ue(records)
    rows = _read_metrics(out_dir)
    keys = [(int(r["run"]), int(r["ue_id"])) for r in rows]
    if keys != sorted(expected):
        return [f"metrics.csv rows {len(keys)} do not match the UE-runs in rounds.jsonl"]
    for row, key in zip(rows, keys):
        want = expected[key]
        bids = want["bids"]
        precision = "" if not bids else want["wins"] / bids
        pairs = {
            "seed": (int(row["seed"]), want["seed"]),
            "strategy": (row["strategy"], want["strategy"]),
            "episodes": (int(row["episodes"]), want["episodes"]),
            "channels_won": (int(row["channels_won"]), want["channels"]),
            "bids_placed": (int(row["bids_placed"]), bids),
            "fallbacks": (int(row["fallbacks"]), want["fallbacks"]),
        }
        bad = [name for name, (got, exp) in pairs.items() if got != exp]
        floats = {
            "gross_utility": want["gross"],
            "net_utility": want["gross"] - want["fees"],
            "fees_paid": want["fees"],
            "payments_paid": want["payments"],
        }
        bad += [name for name, exp in floats.items() if not close(float(row[name]), exp)]
        got_precision = row["bid_precision"]
        if (got_precision == "") != (precision == "") or (
            precision != "" and not close(float(got_precision), precision)
        ):
            bad.append("bid_precision")
        if bad:
            problems.append(f"metrics.csv run {key[0]} UE {key[1]}: {', '.join(bad)} disagree")
    return problems


def check_summary(out_dir: str, facts: ScenarioFacts) -> list[str]:
    """Per-strategy means of metrics.csv equal summary.json; the config echo holds."""
    problems = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    echo = {"runs": facts.runs, "episodes": facts.episodes, "offline": facts.offline,
            "num_ues": facts.num_ues, "strategy_counts": facts.strategy_counts}
    for key, want in echo.items():
        if summary.get(key) != want:
            problems.append(f"summary.json {key} {summary.get(key)!r} != {want!r}")
    rows = _read_metrics(out_dir)
    strategies = [s for s in STRATEGY_ORDER if any(r["strategy"] == s for r in rows)]
    if sorted(summary.get("per_strategy", {})) != sorted(strategies):
        return problems + ["summary.json strategies differ from metrics.csv"]
    for name in strategies:
        mine = [r for r in rows if r["strategy"] == name]
        got = summary["per_strategy"][name]

        def mean(column: str) -> float:
            return math.fsum(float(r[column]) for r in mine) / len(mine)

        precisions = [float(r["bid_precision"]) for r in mine if r["bid_precision"] != ""]
        want_precision = math.fsum(precisions) / len(precisions) if precisions else None
        bad = [
            column
            for column, field in (
                ("gross_utility", "avg_gross_utility"),
                ("net_utility", "avg_net_utility"),
                ("channels_won", "avg_channels_won"),
                ("bids_placed", "avg_bids_placed"),
            )
            if not close(got[field], mean(column))
        ]
        if got["num_ue_runs"] != len(mine):
            bad.append("num_ue_runs")
        if got["fallback_rounds"] != sum(int(r["fallbacks"]) for r in mine):
            bad.append("fallback_rounds")
        if (got["avg_bid_precision"] is None) != (want_precision is None) or (
            want_precision is not None and not close(got["avg_bid_precision"], want_precision)
        ):
            bad.append("avg_bid_precision")
        if bad:
            problems.append(f"summary.json {name}: {', '.join(bad)} disagree with metrics.csv")
    return problems


def llm_decisions(records: list[dict], facts: ScenarioFacts) -> tuple[int, int]:
    """(llm decisions sent to the endpoint, fallbacks among them).

    The engine asks a strategy for a decision only when the UE can afford the
    entrance fee at the start of the round, and the llm agent asks the
    endpoint only when the UE has a serving station.  A UE without one never
    bids, while any reply for a UE with one becomes a bid for as long as the
    budget covers a reserve, so a UE that never bids in a run had no station.
    """
    bidders = {(rec["run"], ue["ue_id"]) for rec in records for ue in rec["ues"]
               if not ue["abstained"]}
    budgets: dict[tuple[int, int], float] = {}
    queried = fallbacks = 0
    for rec in records:
        for ue in rec["ues"]:
            key = (rec["run"], ue["ue_id"])
            before = budgets.get(key, facts.budget)
            budgets[key] = ue["budget_after"]
            if ue["strategy"] == "llm" and before >= facts.fee:
                queried += key in bidders or ue["fallback"]
                fallbacks += ue["fallback"]
    return queried, fallbacks


def check_llm_bids(records: list[dict], facts: ScenarioFacts) -> list[str]:
    """Every llm bid lies in [reserve, (budget - fee) / demand]."""
    problems = []
    budgets: dict[tuple[int, int], float] = {}
    for rec in records:
        for ue in rec["ues"]:
            key = (rec["run"], ue["ue_id"])
            before = budgets.get(key, facts.budget)
            budgets[key] = ue["budget_after"]
            if ue["strategy"] != "llm" or ue["abstained"]:
                continue
            reserve = facts.reserves[ue["station_id"]]
            cap = (before - facts.fee) / ue["quantity"]
            bid = ue["per_unit_bid"]
            if not reserve - ABS_TOL <= bid <= cap + ABS_TOL:
                problems.append(
                    f"run {rec['run']} round {rec['round']}: llm UE {ue['ue_id']} bid {bid}"
                    f" outside [{reserve}, {cap}]"
                )
    return problems


def check_live(records: list[dict], facts: ScenarioFacts, stub_requests: int,
               malformed_sent: int) -> list[str]:
    """Zero fallbacks, affordable llm bids, and the stub saw exactly the requests due."""
    problems = check_llm_bids(records, facts)
    queried, fallbacks = llm_decisions(records, facts)
    if fallbacks:
        problems.append(f"{fallbacks} of {queried} llm decisions fell back")
    due = queried + malformed_sent + 1  # one reachability probe per invocation
    if stub_requests != due:
        problems.append(
            f"stub received {stub_requests} requests; expected {queried} decisions"
            f" + {malformed_sent} reminder retries + 1 probe = {due}"
        )
    return problems


def check_artifacts(out_dir: str, facts: ScenarioFacts) -> tuple[list[dict], list[str]]:
    """Run every offline check on one output directory; returns (records, problems)."""
    records = read_rounds(out_dir)
    played: dict[int, int] = {}
    for rec in records:
        played[rec["run"]] = played.get(rec["run"], 0) + 1
    problems = [] if len(played) == facts.runs else [
        f"{len(played)} runs logged, {facts.runs} expected"
    ]
    problems += [
        f"run {r} played {n} rounds of {facts.episodes}"
        for r, n in played.items()
        if n > facts.episodes
    ]
    problems += (
        check_auctions(records, facts)
        + check_money(records, facts)
        + check_metrics(records, out_dir)
        + check_summary(out_dir, facts)
    )
    return records, problems


def same_artifacts(first: str, other: str) -> bool:
    """Byte-identical artifacts in two output directories."""
    return all(
        filecmp.cmp(os.path.join(first, name), os.path.join(other, name), shallow=False)
        for name in ARTIFACTS
    )
