"""Command-line front end: run one scenario, or sweep and compare strategies
over a horizon-by-seed grid.

Exit codes: 0 on success, 2 for configuration problems, 3 when a live LLM
endpoint is required but unreachable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import math
import os
import shutil
import sys
import tempfile
from typing import Iterable

from .engine import (
    LLM,
    STRATEGIES,
    AbstentionRecord,
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
        p.add_argument("--jobs", type=int, help="worker processes for runs and sweep cells")
        p.add_argument(
            "--offline",
            action="store_true",
            help="replace the LLM strategy with the deterministic stand-in; no network",
        )
        p.add_argument("--out", default="out", help="output directory (default: out)")

    run_p = sub.add_parser("run", help="execute one scenario")
    add_common(run_p)
    run_p.add_argument("--episodes", type=int, help="override rounds per run")
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
    config = preset(args.preset) if args.preset else load_scenario_file(args.config)
    # ``--episodes`` and ``--runs`` are flags of ``run`` alone
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "episodes", "jobs", "runs")
        if getattr(args, name, None) is not None
    }
    return dataclasses.replace(config, offline=bool(args.offline), **overrides)


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
    ("10" before "2"), as ``sort_keys`` orders str keys.  An empty map, as
    every map of an auction that nobody won is, is ``{}`` with no sort."""
    if not values:
        return "{}"
    items = sorted(zip(map(str, values), values.values()))
    return "{" + ", ".join([f'"{k}": {_finite_repr(v)}' for k, v in items]) + "}"


class _NonFinite(Exception):
    """A float of a round record has no JSON form."""


def _finite_repr(x: float) -> str:
    """``repr(x)``, json's form for a finite float or an int; raises
    _NonFinite for the other floats, whose ``repr`` ("nan", "inf", "-inf")
    alone holds an "n"."""
    text = repr(x)
    if "n" in text:
        raise _NonFinite
    return text


def _ue_json(r: UeRoundRecord) -> str:
    return (
        f'{{"abstained": false, "budget_after": {_finite_repr(r.budget_after)},'
        f' "channels_won": {r.channels_won!r}, "fallback": {"true" if r.fallback else "false"},'
        f' "fee_paid": {_finite_repr(r.fee_paid)},'
        f' "gross_utility": {_finite_repr(r.gross_utility)},'
        f' "losses_after": {r.losses_after!r}, "per_unit_bid": {_finite_repr(r.per_unit_bid)},'
        f' "per_unit_payment": {_finite_repr(r.per_unit_payment)}, "quantity": {r.quantity!r},'
        f' "station_id": {r.station_id!r}, "strategy": "{r.strategy}", "ue_id": {r.ue_id!r},'
        f' "value_factor": {_finite_repr(r.value_factor)}}}'
    )


def _abstention_json(r: AbstentionRecord, kept: dict[int, tuple]) -> str:
    """The template of ``_ue_json`` with the eight fixed values filled in.

    ``kept[ue_id]`` is ``(budget, value factor, fallback, strategy, head,
    tail)`` of the UE's last abstention, where ``head`` and ``tail`` are its
    whole text before and after ``losses_after``, the one field that moves
    every round.  They are reused while the record holds the same budget
    object, the same value-factor object, the same ``fallback`` and the same
    ``strategy``, as an abstaining UE's budget and a saturated value factor
    do; identity, unlike equality, also tells 0.0 from -0.0.
    """
    budget = r.budget_after
    factor = r.value_factor
    texts = kept.get(r.ue_id)
    if (texts is None or texts[0] is not budget or texts[1] is not factor
            or texts[2] is not r.fallback or texts[3] is not r.strategy):
        head = (
            f'{{"abstained": true, "budget_after": {_finite_repr(budget)}, "channels_won": 0,'
            f' "fallback": {"true" if r.fallback else "false"}, "fee_paid": 0.0,'
            f' "gross_utility": 0.0, "losses_after": '
        )
        tail = (
            f', "per_unit_bid": 0.0, "per_unit_payment": 0.0, "quantity": 0,'
            f' "station_id": null, "strategy": "{r.strategy}", "ue_id": {r.ue_id!r},'
            f' "value_factor": {_finite_repr(factor)}}}'
        )
        texts = kept[r.ue_id] = (budget, factor, r.fallback, r.strategy, head, tail)
    return f"{texts[4]}{r.losses_after!r}{texts[5]}"


def _station_json(s: StationRoundRecord) -> str:
    return (
        f'{{"allocations": {_json_map(s.allocations)},'
        f' "clearing_price": {_finite_repr(s.clearing_price)},'
        f' "fees_collected": {_finite_repr(s.fees_collected)},'
        f' "per_unit_payments": {_json_map(s.per_unit_payments)},'
        f' "revenue": {_finite_repr(s.revenue)},'
        f' "seller_utility_terms": {_json_map(s.seller_utility_terms)},'
        f' "station_id": {s.station_id!r}}}'
    )


def round_line(
    run_index: int, seed: int, log: RoundLog, kept: dict[int, tuple] | None = None
) -> str:
    """One ``rounds.jsonl`` line, equal to ``json.dumps`` with ``sort_keys``
    of the round's object: its keys, their order and its number forms.

    Each record type has one template with its keys in sorted order, and a
    strategy is one of the ``STRATEGIES`` names.  Every float is written by
    ``_finite_repr``, as ``repr``, json's form for a finite float; a
    non-finite float has no JSON form, so a round that holds one raises
    ``ValueError``.  ``kept`` holds the abstentions' line texts of earlier
    rounds of the same run, one entry per UE id (see ``_abstention_json``).
    """
    if kept is None:
        kept = {}
    try:
        ues = [
            _abstention_json(r, kept) if type(r) is AbstentionRecord else _ue_json(r)
            for r in log.ues
        ]
        stations = [_station_json(s) for s in log.stations]
    except _NonFinite:
        raise ValueError(
            f"round {log.round_index} of run {run_index} holds a non-finite value"
        ) from None
    return (
        f'{{"round": {log.round_index!r}, "run": {run_index!r}, "seed": {seed!r},'
        f' "stations": [{", ".join(stations)}], "ues": [{", ".join(ues)}]}}'
    )


def write_rounds_part(path: str, run_index: int, seed: int, rounds: Iterable[RoundLog]) -> None:
    """One line per round of one run, as it is played, to ``<path>.<run_index>``."""
    kept: dict[int, tuple] = {}
    with open(f"{path}.{run_index}", "w", encoding="utf-8") as handle:
        for log in rounds:
            handle.write(round_line(run_index, seed, log, kept))
            handle.write("\n")


def write_rounds_jsonl(path: str, parts: str, runs: int) -> None:
    """Join the parts ``<parts>.0`` to ``<parts>.<runs - 1>`` into ``path``:
    the others are appended to part 0, which then replaces ``path`` in one
    step.  Removing the parts is left to the directory that holds them."""
    with open(f"{parts}.0", "ab") as joined:
        for run_index in range(1, runs):
            with open(f"{parts}.{run_index}", "rb") as handle:
                shutil.copyfileobj(handle, joined)
    os.replace(f"{parts}.0", path)


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
    # the parts are written and joined in a scratch directory whose removal
    # takes every part with it, whether the command succeeds or fails
    with tempfile.TemporaryDirectory(prefix="rounds.jsonl.", dir=args.out) as scratch:
        parts = os.path.join(scratch, "rounds.jsonl")
        metrics = run_simulation(config, functools.partial(write_rounds_part, parts))
        write_rounds_jsonl(os.path.join(args.out, "rounds.jsonl"), parts, config.runs)
    written = _artifacts(args)
    if "metrics.csv" in written:
        write_metrics_csv(os.path.join(args.out, "metrics.csv"), metrics)
    if "summary.json" in written:
        write_summary_json(os.path.join(args.out, "summary.json"), config, metrics)
    _print_strategy_table(metrics)
    print(f"wrote {args.out}/")


def _sweep_horizons(args: argparse.Namespace) -> tuple[list[int], list[str]]:
    """The horizons of ``--horizons``, and every problem of ``--horizons`` and
    ``--seeds``; read from the flags alone, before any scenario file."""
    problems = [] if args.seeds >= 1 else ["seeds must be at least 1"]
    try:
        horizons = [int(part) for part in args.horizons.split(",") if part.strip()]
    except ValueError as exc:
        return [], [f"bad --horizons value: {exc}", *problems]
    if not horizons or any(h < 1 for h in horizons):
        problems.insert(0, "horizons must be positive integers")
    elif len(set(horizons)) != len(horizons):
        problems.insert(0, "horizons must be distinct")
    return horizons, problems


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


def _artifacts(args: argparse.Namespace) -> list[str]:
    """The names of the files the command, with its ``--format``, writes in ``--out``."""
    if args.command == "sweep":
        return ["sweep.csv"]
    names = ["rounds.jsonl"]
    if args.format in ("csv", "both"):
        names.append("metrics.csv")
    if args.format in ("json", "both"):
        names.append("summary.json")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        horizons, problems = _sweep_horizons(args) if args.command == "sweep" else ([], [])
        try:
            config = _load_config(args)
        except ConfigurationError as exc:
            # a file that cannot be read does not hide the flags' problems
            raise ConfigurationError([*problems, *exc.problems]) from None
        # one single-run config per (horizon, seed), horizons outermost
        cells = [] if problems else [
            dataclasses.replace(config, episodes=horizon, seed=config.seed + offset, runs=1)
            for horizon in horizons
            for offset in range(args.seeds)
        ]
        # a bad config must not reach the endpoint probe's socket; with bad
        # flags there are no cells, and the config itself is checked
        validate_all(cells or [config], problems)
        # nor must an --out that checks which write nothing show unusable: a
        # file at its name, or a directory at an artifact's
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ConfigurationError(
                [f"cannot make --out directory: {args.out} exists and is not a directory"]
            )
        paths = [os.path.join(args.out, name) for name in _artifacts(args)]
        taken = [f"cannot write {path}: it is a directory" for path in paths if os.path.isdir(path)]
        if taken:
            raise ConfigurationError(taken)
        endpoint_problem = _check_endpoint(config)
        if endpoint_problem is not None:
            print(endpoint_problem, file=sys.stderr)
            return EXIT_ENDPOINT
        # an --out that cannot be made stops the command before it plays any run
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError([f"cannot make --out directory: {exc}"]) from exc
        if args.command == "run":
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
