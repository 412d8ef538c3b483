"""Compare the agent strategies head to head over a block of seeds.

Runs a preset at a fixed horizon for many seeds, prints a per-strategy
summary table (mean and standard error for utility, channel access, and
bid precision), and reports per-seed win counts of the endpoint-driven
agent against the myopic and greedy field with a binomial sign test.

The seeds run as one batch, on ``--jobs`` worker processes like
``hetmarket run``; the output does not depend on the job count.

Usage:
    python3 scripts/strategy_comparison.py --preset scenario1 --seeds 20
    python3 scripts/strategy_comparison.py --preset scenario2 --episodes 10 --jobs 2
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics

from hetmarket.engine import LLM, run_simulations
from hetmarket.scenario import PRESETS, preset

FIELDS = ("gross_utility", "net_utility", "channels_won", "bid_precision")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="scenario1", choices=PRESETS)
    parser.add_argument("--episodes", type=int, default=40)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for the seeds")
    return parser.parse_args()


def sign_test_p(successes: int, trials: int) -> float:
    """One-sided binomial tail: P[X >= successes] under a fair coin."""
    total = sum(math.comb(trials, k) for k in range(successes, trials + 1))
    return total / 2.0 ** trials


def main() -> None:
    args = parse_args()
    base = preset(args.preset)

    per_strategy: dict[str, dict[str, list[float]]] = {}
    agent_wins: dict[str, dict[str, int]] = {}

    configs = [
        dataclasses.replace(base, episodes=args.episodes, seed=seed, jobs=args.jobs)
        for seed in range(args.seeds)
    ]
    for report in run_simulations(configs):
        metrics = report.metrics.per_ue
        agent = next((m for m in metrics if m.strategy == LLM), None)

        for strategy in sorted({m.strategy for m in metrics}):
            group = [m for m in metrics if m.strategy == strategy]
            bucket = per_strategy.setdefault(
                strategy, {field: [] for field in FIELDS}
            )
            for field in FIELDS:
                samples = [
                    getattr(m, field) for m in group
                    if getattr(m, field) is not None
                ]
                if samples:
                    bucket[field].append(statistics.mean(samples))

            if agent is None or strategy == LLM or not group:
                continue
            wins = agent_wins.setdefault(
                strategy, {"channels_won": 0, "bid_precision": 0}
            )
            rival_access = statistics.mean(m.channels_won for m in group)
            if agent.channels_won > rival_access:
                wins["channels_won"] += 1
            rival_precision = [
                m.bid_precision for m in group if m.bid_precision is not None
            ]
            if (
                agent.bid_precision is not None
                and rival_precision
                and agent.bid_precision > statistics.mean(rival_precision)
            ):
                wins["bid_precision"] += 1

    print(f"{args.preset}: episodes={args.episodes}, seeds={args.seeds}")
    header = f"{'strategy':<10}" + "".join(f"{field:>22}" for field in FIELDS)
    print(header)
    for strategy in sorted(per_strategy):
        cells = [f"{strategy:<10}"]
        for field in FIELDS:
            points = per_strategy[strategy][field]
            if not points:
                cells.append(f"{'-':>22}")
                continue
            mean = statistics.mean(points)
            stderr = (
                statistics.stdev(points) / math.sqrt(len(points))
                if len(points) > 1 else 0.0
            )
            cells.append(f"{mean:>14.3f} +-{stderr:>5.3f}")
        print("".join(cells))

    for rival in sorted(agent_wins):
        for metric, wins in sorted(agent_wins[rival].items()):
            p = sign_test_p(wins, args.seeds)
            print(
                f"agent vs {rival} on {metric}: "
                f"{wins}/{args.seeds} seeds, sign test p={p:.4f}"
            )


if __name__ == "__main__":
    main()
