"""Benchmark of the hetmarket command line, one workload per process.

    python3 bench/run.py --workload horizon --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It imports `hetmarket` from the
checkout's `src/`, parses the workload's scenario file (the cold set-up),
then calls `hetmarket.cli.main([...])` in-process again and again, each time
into a fresh `--out` directory, until `--seconds` have passed and at least
two calls were made.  It checks every call's artifacts (see checks.py) and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every end-to-end time is wall time rescaled to a quiet host's speed, which
is sampled while the timed interval runs (see host.py); the raw wall times
are among the per-layer metrics.  With `--trace 0` the metrics are the
end-to-end ones.  With `--trace 1` the
same untraced calls run first, then one more call runs with the program's
functions wrapped (see layers.py), and the metrics are the per-layer split
of that call; its spans go to `bench/_out/`.  An operation is one CLI call,
plus on `live_llm` each llm decision sent to the endpoint; a call that exits
non-zero or a decision that falls back counts as failed.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from host import HostSpeed  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")
MIN_CALLS = 2
WORKLOADS = ("horizon", "crowd", "cli_artifacts", "live_llm")
# CLI arguments per workload, after `run --config <scenario> --seed <n> --out <dir>`
EXTRA_ARGS = {
    "horizon": ["--offline"],
    "crowd": ["--offline"],
    "cli_artifacts": ["--offline", "--runs", "20", "--episodes", "160", "--jobs", "1",
                      "--format", "both"],
    "live_llm": [],
}
# how much a call's wall time moves with the host-speed snippet's (see host.py);
# the cold set-up moves one to one
ELASTICITY = {"horizon": 0.73, "crowd": 0.94, "cli_artifacts": 1.05, "live_llm": 1.12}


@dataclasses.dataclass
class Call:
    """One `cli.main` call: exit code, times (see host.py), stub traffic."""

    code: int
    seconds: float
    normalised_s: float
    snippet_s: float
    requests: int = 0
    malformed: int = 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scenario_path(workload):
    return os.path.join(HERE, "scenarios", f"{workload}.ini")


def cold_setup(workload):
    """Import the program and parse the scenario; returns (cli, import_s, parse_s).

    Runs first in the process, so the import is cold.
    """
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import hetmarket.cli as cli

    imported = time.perf_counter()
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "hetmarket"):
        raise SystemExit(f"hetmarket was imported from {cli.__file__}, not from {SRC}")
    cli.load_scenario_file(scenario_path(workload))
    return cli, imported - start, time.perf_counter() - imported


def main():
    with HostSpeed() as setup_host:
        args = parse_args()
        cli, import_s, parse_s = cold_setup(args.workload)
        setup_wall_s = time.perf_counter() - _START
    setup_s = setup_host.normalised_s(setup_wall_s)

    # imported only now, so that they take no part in the cold set-up
    import contextlib
    import gc
    import io
    import json
    import resource
    import shutil
    import statistics
    import tempfile

    import checks
    import layers
    from stub import StubEndpoint
    from tracer import Tracer

    offline = "--offline" in EXTRA_ARGS[args.workload]
    facts = checks.scenario_facts(scenario_path(args.workload), offline=offline)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)

    def invoke(config, out):
        argv = ["run", "--config", config, "--seed", str(args.seed), "--out", out]
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), HostSpeed() as host:
            start = time.perf_counter()
            code = cli.main(argv + EXTRA_ARGS[args.workload])
            elapsed = time.perf_counter() - start
        normalised_s = host.normalised_s(elapsed, ELASTICITY[args.workload])
        return Call(code, elapsed, normalised_s, host.snippet_s())

    problems = []
    try:
        with contextlib.ExitStack() as stack:
            stub = None
            config = scenario_path(args.workload)
            if not offline:
                stub = stack.enter_context(StubEndpoint())
                config = os.path.join(work, "live_llm.ini")
                with open(scenario_path(args.workload), encoding="utf-8") as handle:
                    text = handle.read()
                with open(config, "w", encoding="utf-8") as handle:
                    handle.write(text.replace("[llm]\n", f"[llm]\nbase_url = {stub.base_url}\n"))

            def counted_call(out):
                before = stub.counts() if stub else (0, 0)
                call = invoke(config, out)
                after = stub.counts() if stub else (0, 0)
                call.requests, call.malformed = after[0] - before[0], after[1] - before[1]
                return call

            calls = []
            first = None
            start = time.perf_counter()
            while len(calls) < MIN_CALLS or time.perf_counter() - start < args.seconds:
                out = os.path.join(work, f"call{len(calls)}")
                calls.append(counted_call(out))
                if calls[-1].code != 0:
                    continue
                if first is None:
                    first = out
                    continue
                if not checks.same_artifacts(first, out):
                    problems.append(f"{out}: artifacts differ from the first call's")
                shutil.rmtree(out)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

            traced = None
            if args.trace:
                tracer = Tracer()
                layers.install(tracer)
                try:
                    out = os.path.join(work, "traced")
                    traced = counted_call(out)
                finally:
                    tracer.uninstall()
                calls.append(traced)
                if traced.code == 0 and first is not None and not checks.same_artifacts(first, out):
                    problems.append("traced call's artifacts differ from the untraced ones")

            ok_calls = [c for c in calls if c.code == 0]
            failed = len(calls) - len(ok_calls)
            attempted = len(calls)
            if first is None:
                problems.append("no call succeeded")
                records = []
            else:
                records, found = checks.check_artifacts(first, facts)
                problems += found
                artifact_mb = sum(
                    os.path.getsize(os.path.join(first, name)) for name in checks.ARTIFACTS
                ) / 1e6
            if stub is not None and records:
                queried, fallbacks = checks.llm_decisions(records, facts)
                attempted += queried * len(ok_calls)
                failed += fallbacks * len(ok_calls)
                for call in ok_calls:
                    problems += checks.check_live(records, facts, call.requests, call.malformed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [c for c in ok_calls if c is not traced]
    if args.trace and traced is not None and traced.code == 0:
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        values = layers.metrics(tracer, traced.requests, import_s, parse_s)
        values["trace.overhead_s"] = traced.seconds - statistics.median(
            c.seconds for c in untraced
        )
        values["wall.ue_rounds_per_s"] = statistics.median(
            checks.ue_rounds(records) / c.seconds for c in untraced
        )
        values["wall.setup_s"] = setup_wall_s
        values["host.snippet_us"] = 1e6 * statistics.median(c.snippet_s for c in untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
    elif not args.trace and first is not None:
        rounds = checks.ue_rounds(records)
        metrics = {
            "ue_rounds_per_s": {
                "value": statistics.median(rounds / c.normalised_s for c in untraced),
                "unit": "1/s",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "artifact_mb": {"value": artifact_mb, "unit": "MB"},
        }
    else:
        metrics = {}

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: calls "
        + " ".join(f"{c.seconds:.2f}s ({c.normalised_s:.2f}s normalised)" for c in calls)
        + f", set-up {setup_wall_s:.3f}s ({setup_s:.3f}s normalised)"
        + f", {len(problems)} problems",
        file=sys.stderr,
    )
    correct = not problems and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
