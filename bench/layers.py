"""Which program functions the traced run wraps, and the per-layer metrics.

Each metric is named `<module>.<quantity>` after the `hetmarket` module whose
functions make it.  Times are wall seconds of the traced call unless the name
ends in `_ms` or `_us`; `_self_s` is self time (children excluded) and the
other times are inclusive.  The `wall.` and `host.` metrics come from the
untraced calls (see run.py).  The README maps each metric to the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import os
import statistics

from tracer import Tracer

DECIDERS = frozenset(
    {"strategy.myopic_decide", "strategy.greedy_decide",
     "llm_agent.foresight_decide", "llm_agent.llm_decide"}
)

UNITS = {
    "strategy.win_prob_calls": "count",
    "strategy.win_prob_terms": "count",
    "strategy.win_prob_self_s": "s",
    "strategy.mean_calls": "count",
    "strategy.mean_elems": "count",
    "strategy.mean_self_s": "s",
    "strategy.cdf_self_s": "s",
    "strategy.grid_points": "count",
    "strategy.decide_s": "s",
    "auction.vcg_calls": "count",
    "auction.claims": "count",
    "auction.units_sold": "count",
    "auction.vcg_self_s": "s",
    "engine.self_s": "s",
    "engine.metrics_s": "s",
    "engine.rounds": "count",
    "cli.rounds_jsonl_s": "s",
    "cli.metrics_csv_s": "s",
    "cli.summary_json_s": "s",
    "cli.bytes_written": "B",
    "llm_agent.live_decisions": "count",
    "llm_agent.requests": "count",
    "llm_agent.request_s": "s",
    "llm_agent.request_ms_p50": "ms",
    "llm_agent.attempts_per_decision": "req/decision",
    "llm_agent.parse_failures": "count",
    "llm_agent.transport_errors": "count",
    "llm_agent.fallbacks": "count",
    "llm_agent.render_s": "s",
    "llm_agent.stub_requests": "count",
    "llm_agent.foresight_s": "s",
    "netmodel.rate_calls": "count",
    "netmodel.build_s": "s",
    "scenario.parse_s": "s",
    "import_s": "s",
    "trace.overhead_s": "s",
    "wall.ue_rounds_per_s": "1/s",
    "wall.setup_s": "s",
    "host.snippet_us": "us",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _win_prob_terms(args, kwargs, result):
    competitors = _arg(args, kwargs, 1, "competitors")
    capacity = _arg(args, kwargs, 2, "capacity")
    return {"win_prob_terms": min(capacity - 1, competitors) + 1}


def _vcg_work(args, kwargs, result):
    requests = _arg(args, kwargs, 0, "requests")
    reserve = _arg(args, kwargs, 2, "reserve")
    return {
        "claims": sum(r.quantity for r in requests if r.per_unit_bid >= reserve),
        "units_sold": sum(result.allocations.values()),
    }


def _file_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def install(tracer: Tracer) -> None:
    """Wrap the public functions behind every per-layer metric."""
    from hetmarket import auction, cli, engine, llm_agent, netmodel, scenario, strategy

    fn, method = tracer.patch_function, tracer.patch_method
    fn(cli.main, "cli.main")
    fn(cli.write_rounds_jsonl, "cli.write_rounds_jsonl", count=_file_bytes)
    fn(cli.write_metrics_csv, "cli.write_metrics_csv", count=_file_bytes)
    fn(cli.write_summary_json, "cli.write_summary_json", count=_file_bytes)
    fn(scenario.load_scenario_file, "scenario.load_scenario_file")
    fn(engine.run_simulation, "engine.run_simulation")
    fn(engine.compute_metrics, "engine.compute_metrics")
    method(engine.SimulationRun, "run_round", "engine.run_round")
    fn(netmodel.achievable_rate_bps, "netmodel.achievable_rate_bps")
    fn(netmodel.channel_demand, "netmodel.channel_demand")
    fn(auction.run_vcg, "auction.run_vcg", count=_vcg_work)
    fn(strategy.myopic_decide, "strategy.myopic_decide")
    fn(strategy.greedy_decide, "strategy.greedy_decide")
    fn(strategy.candidate_bids, "strategy.candidate_bids",
       count=lambda a, k, r: {"grid_points": len(r)})
    fn(strategy.win_probability_given_cdf, "strategy.win_probability_given_cdf",
       count=_win_prob_terms)
    method(strategy.EmpiricalPriceModel, "mean", "strategy.mean",
           count=lambda a, k, r: {"mean_elems": len(a[0])})
    method(strategy.EmpiricalPriceModel, "cdf", "strategy.cdf")
    fn(llm_agent.foresight_decide, "llm_agent.foresight_decide")
    fn(llm_agent.llm_decide, "llm_agent.llm_decide",
       count=lambda a, k, r: {"fallbacks": int(r.fallback)})
    fn(llm_agent.render_prompt, "llm_agent.render_prompt")
    fn(llm_agent.parse_reply, "llm_agent.parse_reply")
    method(llm_agent.ChatCompletionClient, "complete", "llm_agent.complete",
           keep_samples=True)


def metrics(tracer: Tracer, stub_requests: int, import_s: float,
            parse_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced call: every key of UNITS from
    `strategy.` to `import_s`; run.py adds the rest from the untraced calls."""
    t = tracer
    live = t.calls("llm_agent.llm_decide")
    requests = t.samples.get("llm_agent.complete", [])
    values = {
        "strategy.win_prob_calls": t.calls("strategy.win_probability_given_cdf"),
        "strategy.win_prob_terms": t.counters["win_prob_terms"],
        "strategy.win_prob_self_s": t.self_s("strategy.win_probability_given_cdf"),
        "strategy.mean_calls": t.calls("strategy.mean"),
        "strategy.mean_elems": t.counters["mean_elems"],
        "strategy.mean_self_s": t.self_s("strategy.mean"),
        "strategy.cdf_self_s": t.self_s("strategy.cdf"),
        "strategy.grid_points": t.counters["grid_points"],
        "strategy.decide_s": sum(t.total_s(n, outside=DECIDERS) for n in DECIDERS),
        "auction.vcg_calls": t.calls("auction.run_vcg"),
        "auction.claims": t.counters["claims"],
        "auction.units_sold": t.counters["units_sold"],
        "auction.vcg_self_s": t.self_s("auction.run_vcg"),
        "engine.self_s": t.self_s("engine.run_simulation") + t.self_s("engine.run_round"),
        "engine.metrics_s": t.total_s("engine.compute_metrics"),
        "engine.rounds": t.calls("engine.run_round"),
        "cli.rounds_jsonl_s": t.total_s("cli.write_rounds_jsonl"),
        "cli.metrics_csv_s": t.total_s("cli.write_metrics_csv"),
        "cli.summary_json_s": t.total_s("cli.write_summary_json"),
        "cli.bytes_written": t.counters["bytes_written"],
        "llm_agent.live_decisions": live,
        "llm_agent.requests": t.calls("llm_agent.complete"),
        "llm_agent.request_s": t.total_s("llm_agent.complete"),
        "llm_agent.request_ms_p50": 1000 * statistics.median(requests) if requests else 0.0,
        "llm_agent.attempts_per_decision": (
            t.calls_under("llm_agent.complete", "llm_agent.llm_decide") / live if live else 0.0
        ),
        "llm_agent.parse_failures": t.errors[("llm_agent.parse_reply", "ParseError")],
        "llm_agent.transport_errors": t.errors[("llm_agent.complete", "LlmError")],
        "llm_agent.fallbacks": t.counters["fallbacks"],
        "llm_agent.render_s": t.total_s("llm_agent.render_prompt"),
        "llm_agent.stub_requests": stub_requests,
        "llm_agent.foresight_s": t.total_s("llm_agent.foresight_decide"),
        "netmodel.rate_calls": t.calls("netmodel.achievable_rate_bps"),
        "netmodel.build_s": (
            t.total_s("netmodel.achievable_rate_bps") + t.total_s("netmodel.channel_demand")
        ),
        "scenario.parse_s": parse_s,
        "import_s": import_s,
    }
    return values
