"""Command-line front end: run one scenario, or sweep and compare strategies
over a horizon-by-seed grid.

Exit codes: 0 on success, 2 for configuration problems, 3 when a live LLM
endpoint is required but unreachable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import logging
import math
import os
import shutil
import sys
from typing import Iterable

from .engine import (
    LLM,
    STRATEGIES,
    ConfigurationError,
    MetricsReport,
    RoundLog,
    SimulationConfig,
    StationRoundRecord,
    StrategySummary,
    UeRoundRecord,
    run_simulation,
    run_simulations,
    validate_all,
)
from .llm_agent import ChatCompletionClient, LlmError
from .scenario import PRESETS, load_scenario_file, preset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENDPOINT = 3

METRICS_COLUMNS = [
    "run",
    "seed",
    "ue_id",
    "strategy",
    "episodes",
    "gross_utility",
    "net_utility",
    "channels_won",
    "bids_placed",
    "bid_precision",
    "fees_paid",
    "payments_paid",
    "fallbacks",
]
# each column is the UeMetrics field of the same name, except ``run``
_METRICS_FIELDS = ["run_index" if c == "run" else c for c in METRICS_COLUMNS]
# sweep.csv holds ``<strategy>_<field>`` from ``StrategySummary.avg_<field>``
SWEEP_FIELDS = ("gross_utility", "net_utility", "channels_won", "bid_precision")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetmarket",
        description="Repeated sealed-bid spectrum auctions in a two-tier cellular network.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log defaulted keys and progress")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="scenario file path")
        source.add_argument("--preset", choices=PRESETS, help="built-in scenario")
        p.add_argument("--seed", type=int, help="override master seed")
        p.add_argument("--episodes", type=int, help="override rounds per run")
        p.add_argument("--jobs", type=int, help="worker processes for runs and sweep cells")
        p.add_argument(
            "--offline",
            action="store_true",
            help="replace the LLM strategy with the deterministic stand-in; no network",
        )
        p.add_argument("--out", default="out", help="output directory (default: out)")

    run_p = sub.add_parser("run", help="execute one scenario")
    add_common(run_p)
    run_p.add_argument("--runs", type=int, help="override number of runs")
    run_p.add_argument(
        "--format",
        choices=("csv", "json", "both"),
        default="both",
        help="which metrics artifacts to write (rounds.jsonl is always written)",
    )

    sweep_p = sub.add_parser(
        "sweep", help="run a horizon-by-seed grid and compare the strategies"
    )
    add_common(sweep_p)
    sweep_p.add_argument(
        "--horizons",
        default="5,10,20,40,80",
        help="comma-separated episode horizons (default: 5,10,20,40,80)",
    )
    sweep_p.add_argument(
        "--seeds", type=int, default=20, help="number of consecutive seeds (default: 20)"
    )
    return parser


def _load_config(args: argparse.Namespace) -> SimulationConfig:
    if args.preset:
        config = preset(args.preset)
    else:
        try:
            config = load_scenario_file(args.config)
        except OSError as exc:
            raise ConfigurationError([str(exc)]) from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError([f"{args.config} is not UTF-8 text: {exc}"]) from exc
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if getattr(args, "runs", None) is not None:
        overrides["runs"] = args.runs
    overrides["offline"] = bool(args.offline)
    return dataclasses.replace(config, **overrides)


def _check_endpoint(config: SimulationConfig) -> str | None:
    """Return an error message when a required live endpoint is unreachable."""
    if config.offline or config.population.strategy_counts.get(LLM, 0) < 1:
        return None
    if not config.endpoint.base_url:
        return "no LLM endpoint configured; set [llm] base_url or pass --offline"
    client = ChatCompletionClient(config.endpoint)
    try:
        client.complete("Reply with the single word: ready")
    except LlmError as exc:
        return f"LLM endpoint unreachable ({exc}); pass --offline to use the stand-in"
    finally:
        client.close()
    return None


def write_metrics_csv(path: str, metrics: MetricsReport) -> None:
    """One row per UE and run; ``csv`` writes None as an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRICS_COLUMNS)
        for m in metrics.per_ue:
            writer.writerow([getattr(m, name) for name in _METRICS_FIELDS])


def write_summary_json(path: str, config: SimulationConfig, metrics: MetricsReport) -> None:
    payload = {
        "episodes": config.episodes,
        "runs": config.runs,
        "seed": config.seed,
        "offline": config.offline,
        "num_ues": config.population.num_ues,
        "strategy_counts": {
            s: config.population.strategy_counts.get(s, 0) for s in STRATEGIES
        },
        "per_strategy": {
            name: dataclasses.asdict(summary) for name, summary in metrics.per_strategy.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _json_map(values: dict) -> str:
    """An int-keyed map as a JSON object, its keys as text sorted as text
    ("10" before "2"), as ``sort_keys`` orders str keys."""
    items = sorted(zip(map(str, values), values.values()))
    return "{" + ", ".join([f'"{k}": {v!r}' for k, v in items]) + "}"


def _ue_json(r: UeRoundRecord) -> str:
    return (
        f'{{"abstained": {"true" if r.abstained else "false"}, "budget_after": {r.budget_after!r},'
        f' "channels_won": {r.channels_won!r}, "fallback": {"true" if r.fallback else "false"},'
        f' "fee_paid": {r.fee_paid!r}, "gross_utility": {r.gross_utility!r},'
        f' "losses_after": {r.losses_after!r}, "per_unit_bid": {r.per_unit_bid!r},'
        f' "per_unit_payment": {r.per_unit_payment!r}, "quantity": {r.quantity!r},'
        f' "station_id": {"null" if r.station_id is None else repr(r.station_id)},'
        f' "strategy": "{r.strategy}", "ue_id": {r.ue_id!r},'
        f' "value_factor": {r.value_factor!r}}}'
    )


def _station_json(s: StationRoundRecord) -> str:
    return (
        f'{{"allocations": {_json_map(s.allocations)}, "clearing_price": {s.clearing_price!r},'
        f' "fees_collected": {s.fees_collected!r},'
        f' "per_unit_payments": {_json_map(s.per_unit_payments)}, "revenue": {s.revenue!r},'
        f' "seller_utility_terms": {_json_map(s.seller_utility_terms)},'
        f' "station_id": {s.station_id!r}}}'
    )


def round_line(run_index: int, seed: int, log: RoundLog) -> str:
    """One ``rounds.jsonl`` line, equal to ``json.dumps`` with ``sort_keys``
    of the round's object: its keys, their order and its number forms.

    Each record type has one template with its keys in sorted order; a float
    is written as ``repr`` writes it, which is ``json``'s form for every
    finite float, and a strategy is one of the ``STRATEGIES`` names.  A
    non-finite float has no JSON form: its ``repr`` holds "nan" or "inf",
    which no key or strategy name does, so such a line raises ``ValueError``.
    """
    line = (
        f'{{"round": {log.round_index!r}, "run": {run_index!r}, "seed": {seed!r},'
        f' "stations": [{", ".join(map(_station_json, log.stations))}],'
        f' "ues": [{", ".join(map(_ue_json, log.ues))}]}}'
    )
    if "nan" in line or "inf" in line:
        raise ValueError(f"round {log.round_index} of run {run_index} holds a non-finite value")
    return line


def write_rounds_part(path: str, run_index: int, seed: int, rounds: Iterable[RoundLog]) -> None:
    """One line per round of one run, as it is played, to ``<path>.<run_index>``."""
    with open(f"{path}.{run_index}", "w", encoding="utf-8") as handle:
        for log in rounds:
            handle.write(round_line(run_index, seed, log))
            handle.write("\n")


def write_rounds_jsonl(path: str, runs: int) -> None:
    """Join the parts of runs 0 to ``runs - 1`` into ``path``, removing them."""
    os.replace(f"{path}.0", path)
    with open(path, "ab") as joined:
        for run_index in range(1, runs):
            part = f"{path}.{run_index}"
            with open(part, "rb") as handle:
                shutil.copyfileobj(handle, joined)
            os.remove(part)


def _print_strategy_table(metrics: MetricsReport) -> None:
    for name in STRATEGIES:
        summary = metrics.per_strategy.get(name)
        if summary is None:
            continue
        precision = "n/a" if summary.avg_bid_precision is None else f"{summary.avg_bid_precision:.3f}"
        print(
            f"{name:>9}: gross={summary.avg_gross_utility:.3f}"
            f" net={summary.avg_net_utility:.3f}"
            f" channels={summary.avg_channels_won:.2f}"
            f" bids={summary.avg_bids_placed:.2f}"
            f" precision={precision}"
        )


def cmd_run(args: argparse.Namespace, config: SimulationConfig) -> None:
    path = os.path.join(args.out, "rounds.jsonl")
    try:
        metrics = run_simulation(config, functools.partial(write_rounds_part, path))
    except BaseException:
        # a failed run leaves no part of rounds.jsonl behind
        for run_index in range(config.runs):
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{path}.{run_index}")
        raise
    write_rounds_jsonl(path, config.runs)
    if args.format in ("csv", "both"):
        write_metrics_csv(os.path.join(args.out, "metrics.csv"), metrics)
    if args.format in ("json", "both"):
        write_summary_json(os.path.join(args.out, "summary.json"), config, metrics)
    _print_strategy_table(metrics)
    print(f"wrote {args.out}/")


def _sweep_cells(args: argparse.Namespace, config: SimulationConfig) -> list[SimulationConfig]:
    """One single-run config per (horizon, seed), horizons outermost."""
    try:
        horizons = [int(part) for part in args.horizons.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError([f"bad --horizons value: {exc}"]) from exc
    if not horizons or any(h < 1 for h in horizons):
        raise ConfigurationError(["horizons must be positive integers"])
    if len(set(horizons)) != len(horizons):
        raise ConfigurationError(["horizons must be distinct"])
    if args.seeds < 1:
        raise ConfigurationError(["seeds must be at least 1"])
    return [
        dataclasses.replace(config, episodes=horizon, seed=config.seed + offset, runs=1)
        for horizon in horizons
        for offset in range(args.seeds)
    ]


def cmd_sweep(args: argparse.Namespace, cells: list[SimulationConfig]) -> None:
    reports = run_simulations(cells)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["episodes", "seed"] + [f"{name}_{f}" for name in STRATEGIES for f in SWEEP_FIELDS]
        )
        for cell, report in zip(cells, reports):
            row: list[object] = [cell.episodes, cell.seed]
            for name in STRATEGIES:
                summary = report.per_strategy.get(name)
                row.extend(
                    None if summary is None else getattr(summary, f"avg_{f}")
                    for f in SWEEP_FIELDS
                )
            writer.writerow(row)
    source = args.preset or args.config
    for start in range(0, len(cells), args.seeds):
        _print_comparison(
            f"{source}: episodes={cells[start].episodes}, seeds={args.seeds}",
            [report.per_strategy for report in reports[start:start + args.seeds]],
        )
    print(f"wrote {path} ({len(cells)} rows)")


def _sign_test_p(successes: int, trials: int) -> float:
    """One-sided binomial tail: P[X >= successes] under a fair coin."""
    total = sum(math.comb(trials, k) for k in range(successes, trials + 1))
    # int / int is correctly rounded at any size; 2.0 ** trials overflows at 1024
    return total / 2**trials


def _print_comparison(title: str, seeds: list[dict[str, StrategySummary]]) -> None:
    """Each strategy's mean +- standard error over seeds of every SWEEP_FIELDS
    average, then, on channels won and on bid precision, the seeds in which
    the llm summary beats, trails and ties each rival's, with a sign test over
    the untied seeds.  A seed where either side has no value is not counted."""
    # imported here: a cold ``run`` never needs it, and it costs ~6 ms
    import statistics

    print(title)
    print(f"{'strategy':<10}" + "".join(f"{field:>22}" for field in SWEEP_FIELDS))
    for name in sorted({name for per in seeds for name in per}):
        cells = [f"{name:<10}"]
        for field in SWEEP_FIELDS:
            averages = [getattr(per[name], f"avg_{field}") for per in seeds if name in per]
            points = [value for value in averages if value is not None]
            if not points:
                cells.append(f"{'-':>22}")
                continue
            stderr = (
                statistics.stdev(points) / math.sqrt(len(points)) if len(points) > 1 else 0.0
            )
            cells.append(f"{statistics.mean(points):>14.3f} +-{stderr:>5.3f}")
        print("".join(cells))

    rivals = {rival for per in seeds if LLM in per for rival in per} - {LLM}
    for rival in sorted(rivals):
        for metric in ("bid_precision", "channels_won"):
            pairs = [
                (getattr(per[LLM], f"avg_{metric}"), getattr(per[rival], f"avg_{metric}"))
                for per in seeds
                if LLM in per and rival in per
            ]
            pairs = [(ours, theirs) for ours, theirs in pairs if None not in (ours, theirs)]
            won = sum(ours > theirs for ours, theirs in pairs)
            lost = sum(ours < theirs for ours, theirs in pairs)
            print(
                f"agent vs {rival} on {metric}: won {won}, lost {lost},"
                f" tied {len(pairs) - won - lost} of {len(pairs)} seeds,"
                f" sign test p={_sign_test_p(won, won + lost):.4f}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        config = _load_config(args)
        cells = _sweep_cells(args, config) if args.command == "sweep" else None
        # a bad config must not reach the endpoint probe's socket
        validate_all(cells or [config])
        endpoint_problem = _check_endpoint(config)
        if endpoint_problem is not None:
            print(endpoint_problem, file=sys.stderr)
            return EXIT_ENDPOINT
        # an unusable --out stops the command before it plays any run
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError([f"cannot make --out directory: {exc}"]) from exc
        if cells is None:
            cmd_run(args, config)
        else:
            cmd_sweep(args, cells)
    except ConfigurationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
