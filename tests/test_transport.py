"""The chat-completion client against a real HTTP/1.1 server on localhost."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
import zlib
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from hetmarket import engine
from hetmarket.cli import main
from hetmarket.engine import SimulationRun, spawn_run_seeds
from hetmarket.llm_agent import (
    ChatCompletionClient,
    LlmEndpointConfig,
    LlmError,
    llm_decide,
    render_prompt,
)
from hetmarket.netmodel import MBS
from hetmarket.scenario import load_scenario_file
from hetmarket.strategy import (
    EmpiricalPriceModel,
    MarketObservation,
    StationView,
    greedy_decide,
)
from hetmarket.valuation import UrgencyState

GOOD_REPLY = 'Selected BS and bid value: BS 0, 1.50\nExplanation: "steady"'


class LocalEndpoint:
    """Threaded HTTP/1.1 endpoint that plays a script of replies.

    Each request takes the next step of ``script`` (``"ok"`` once it runs
    out): ``ok``, ``http500``, ``bad_json``, ``bad_shape``, ``null_content``
    (a JSON null for the content, as sent for a refusal), ``slow`` (replies
    after ``slow_s``) or ``drop`` (replies, then closes the connection without
    saying so).  A prompt that ``slow_if`` holds for is a ``slow`` step
    whatever the script says.  An ``ok`` reply carries ``answer(prompt)``
    after ``delay_s``.  It counts requests, connections, finished connections
    and the most requests it was ever answering at once.
    """

    def __init__(self, script=(), slow_s=1.0, delay_s=0.0,
                 answer=lambda prompt: GOOD_REPLY, slow_if=lambda prompt: False):
        self.script = list(script)
        self.requests = 0
        self.connections = 0
        self.finished = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.prompts: list[str] = []
        self.headers: list[dict[str, str]] = []
        self.paths: list[str] = []
        self._lock = threading.Condition()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with endpoint._lock:
                    endpoint.connections += 1

            def finish(self):
                super().finish()
                with endpoint._lock:
                    endpoint.finished += 1
                    endpoint._lock.notify_all()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length))
                prompt = payload["messages"][0]["content"]
                with endpoint._lock:
                    endpoint.requests += 1
                    endpoint.in_flight += 1
                    endpoint.peak_in_flight = max(endpoint.peak_in_flight, endpoint.in_flight)
                    endpoint.prompts.append(prompt)
                    endpoint.headers.append(dict(self.headers))
                    endpoint.paths.append(self.path)
                    step = endpoint.script.pop(0) if endpoint.script else "ok"
                try:
                    self.reply(step, prompt)
                finally:
                    with endpoint._lock:
                        endpoint.in_flight -= 1

            def reply(self, step, prompt):
                if slow_if(prompt):
                    step = "slow"
                time.sleep(delay_s)
                status = 200
                body = json.dumps({"choices": [{"message": {"content": answer(prompt)}}]})
                if step == "http500":
                    status, body = 500, "internal error"
                elif step == "bad_json":
                    body = "{not json"
                elif step == "bad_shape":
                    body = json.dumps({"choices": []})
                elif step == "null_content":
                    body = json.dumps({"choices": [{"message": {"content": None}}]})
                elif step == "slow":
                    time.sleep(slow_s)
                elif step == "drop":
                    self.close_connection = True
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args):
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def handle_error(self, request, client_address):
                pass  # a client that gave up on a slow reply closed the socket

        self._server = Server(("127.0.0.1", 0), Handler)
        # a short poll, so that shutdown does not wait out the default 0.5 s
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.01,), daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def wait_all_finished(self, timeout_s=5.0) -> bool:
        with self._lock:
            return self._lock.wait_for(
                lambda: self.finished == self.connections, timeout=timeout_s
            )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


@pytest.fixture
def endpoint_factory():
    started = []

    def start(*args, **kwargs):
        endpoint = LocalEndpoint(*args, **kwargs).__enter__()
        started.append(endpoint)
        return endpoint

    yield start
    for endpoint in started:
        endpoint.__exit__(None, None, None)


def client_for(endpoint, suffix="", **options):
    return ChatCompletionClient(
        LlmEndpointConfig(base_url=endpoint.base_url + suffix, model_name="m", **options)
    )


def test_ok_reply_returns_the_content(endpoint_factory):
    endpoint = endpoint_factory()
    client = client_for(endpoint)
    try:
        assert client.complete("hello") == GOOD_REPLY
    finally:
        client.close()
    assert endpoint.prompts == ["hello"]
    assert endpoint.paths == ["/chat/completions"]


def test_path_prefix_and_bearer_token(endpoint_factory, monkeypatch):
    endpoint = endpoint_factory()
    monkeypatch.setenv("TRANSPORT_TEST_KEY", "sekrit")
    with_key = client_for(endpoint, "/v1/", api_key_env_var="TRANSPORT_TEST_KEY")
    without_key = client_for(endpoint, "/v1", api_key_env_var="TRANSPORT_TEST_UNSET")
    monkeypatch.delenv("TRANSPORT_TEST_UNSET", raising=False)
    try:
        with_key.complete("a")
        without_key.complete("b")
    finally:
        with_key.close()
        without_key.close()
    assert endpoint.paths == ["/v1/chat/completions", "/v1/chat/completions"]
    assert endpoint.headers[0]["Authorization"] == "Bearer sekrit"
    assert "Authorization" not in endpoint.headers[1]


def test_http_500_raises_and_the_connection_stays_usable(endpoint_factory):
    endpoint = endpoint_factory(script=["http500"])
    client = client_for(endpoint)
    try:
        with pytest.raises(LlmError, match="HTTP 500"):
            client.complete("first")
        assert client.complete("second") == GOOD_REPLY
    finally:
        client.close()
    assert endpoint.requests == 2
    assert endpoint.connections == 1


@pytest.mark.parametrize("step", ["bad_json", "bad_shape", "null_content"])
def test_malformed_payload_raises(endpoint_factory, step):
    endpoint = endpoint_factory(script=[step])
    client = client_for(endpoint)
    try:
        with pytest.raises(LlmError, match="malformed completion payload"):
            client.complete("x")
    finally:
        client.close()


def test_late_reply_times_out_within_bounded_time(endpoint_factory):
    endpoint = endpoint_factory(script=["ok", "slow"], slow_s=2.0)
    client = client_for(endpoint, timeout_ms=200)
    try:
        client.complete("warm")
        start = time.perf_counter()
        with pytest.raises(LlmError):
            client.complete("x")
        elapsed = time.perf_counter() - start
        # the next call opens a fresh connection rather than reading the late reply
        assert client.complete("y") == GOOD_REPLY
    finally:
        client.close()
    assert elapsed < 1.5
    # a timeout on a kept-alive connection is one attempt, not resent
    assert endpoint.prompts == ["warm", "x", "y"]


def test_good_calls_share_one_connection(endpoint_factory):
    endpoint = endpoint_factory()
    client = client_for(endpoint)
    try:
        for i in range(5):
            assert client.complete(f"call {i}") == GOOD_REPLY
    finally:
        client.close()
    assert endpoint.requests == 5
    assert endpoint.connections == 1


def test_dropped_kept_alive_connection_is_resent_once(endpoint_factory):
    endpoint = endpoint_factory(script=["drop"])
    client = client_for(endpoint)
    try:
        assert client.complete("first") == GOOD_REPLY
        assert client.complete("second") == GOOD_REPLY
    finally:
        client.close()
    # the server saw each prompt once, the second on a new connection
    assert endpoint.prompts == ["first", "second"]
    assert endpoint.connections == 2


def test_refused_connection_raises():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    client = ChatCompletionClient(LlmEndpointConfig(base_url=f"http://127.0.0.1:{port}"))
    with pytest.raises(LlmError, match="request failed"):
        client.complete("x")
    client.close()


@pytest.mark.parametrize("base_url", ["http://[::1", "https://[::1", "http://[zz]"])
def test_malformed_bracketed_host_raises(base_url):
    client = ChatCompletionClient(LlmEndpointConfig(base_url=base_url))
    # an older urlsplit accepts [zz], and then the connection fails instead
    with pytest.raises(LlmError):
        client.complete("x")
    client.close()


def test_close_lets_the_server_handler_finish(endpoint_factory):
    endpoint = endpoint_factory()
    client = client_for(endpoint)
    client.complete("x")
    assert endpoint.finished == 0
    client.close()
    assert endpoint.wait_all_finished()


def observation():
    view = StationView(
        station_id=0, tier=MBS, capacity=4, reserve_price=1.0, rate_mbps=3.0,
        demand=1, price_history=EmpiricalPriceModel([1.5, 2.0]),
    )
    urgency = UrgencyState(base_value_per_mbps=1.0, max_value_per_mbps=1.0)
    return MarketObservation(
        round_index=3, rounds_total=10, budget=10.0, entrance_fee=0.1,
        urgency=urgency, stations=(view,), competitors={0: 2},
    )


@pytest.mark.parametrize(
    "script", [["http500", "bad_shape"], ["null_content", "null_content"]],
    ids=["http500-bad_shape", "null_content-twice"],
)
def test_llm_decide_falls_back_to_greedy_after_retries(endpoint_factory, script):
    endpoint = endpoint_factory(script=script)
    config = LlmEndpointConfig(base_url=endpoint.base_url, max_retries=1)
    client = ChatCompletionClient(config)
    try:
        decision = llm_decide(observation(), client)
    finally:
        client.close()
    greedy = greedy_decide(observation())
    assert decision.fallback
    assert (decision.station_id, decision.per_unit_bid) == (
        greedy.station_id, greedy.per_unit_bid,
    )
    # the same prompt both times: neither failure is a format error
    assert endpoint.requests == 2
    assert endpoint.prompts[0] == endpoint.prompts[1]


def test_probe_answered_with_null_content_is_exit_three(endpoint_factory, tmp_path, capsys):
    endpoint = endpoint_factory(script=["null_content"])
    scenario = tmp_path / "live.ini"
    scenario.write_text(
        "[population]\nnum_ues = 2\nllm = 1\ngreedy = 1\n"
        f"[llm]\nbase_url = {endpoint.base_url}\n"
    )
    code = main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "malformed completion payload" in err
    assert "Traceback" not in err
    assert endpoint.requests == 1


def test_live_cli_run_closes_every_connection(endpoint_factory, tmp_path):
    endpoint = endpoint_factory()
    scenario = tmp_path / "live.ini"
    scenario.write_text(
        "[population]\nnum_ues = 4\nqos_classes_mbps = 2.0\nllm = 2\ngreedy = 2\n"
        f"[llm]\nbase_url = {endpoint.base_url}\n"
        "[simulation]\nepisodes = 3\nruns = 2\n"
    )
    code = main(["run", "--config", str(scenario), "--seed", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    # the probe, and in each run one connection per lane that sends: each run
    # makes 4 clients, but the 2 llm UEs take 2 of the 4 lanes, so 1 + 2 * 2
    # connections, every one closed
    assert endpoint.connections == 5
    assert endpoint.wait_all_finished()


def varied_answer(prompt):
    """Bid at the first listed station, at a share of its value that the prompt sets."""
    values = [line for line in prompt.splitlines() if line.startswith("  BS ")]
    if not values:  # the endpoint probe
        return GOOD_REPLY
    station, value = values[0].split()[1].rstrip(":"), float(values[0].split()[2])
    share = 0.5 + zlib.crc32(prompt.encode("utf-8")) % 50 / 100
    return f"Selected BS and bid value: BS {station}, {value * share:.2f}"


def flaky_answer(prompt):
    """``varied_answer``, or for one prompt in three a reply with no selection line."""
    if zlib.crc32(prompt.encode("utf-8")) % 3 == 0:
        return "I would bid a fair price."
    return varied_answer(prompt)


def live_scenario(tmp_path, endpoint, runs=1, timeout_ms=10000):
    scenario = tmp_path / "lanes.ini"
    scenario.write_text(
        "[population]\nnum_ues = 9\nbudget = 30.0\nqos_classes_mbps = 2.0\n"
        "llm = 6\ngreedy = 3\n"
        f"[llm]\nbase_url = {endpoint.base_url}\ntimeout_ms = {timeout_ms}\n"
        f"[simulation]\nepisodes = 6\nruns = {runs}\n"
    )
    return scenario


def artifacts(out):
    return {name: (out / name).read_bytes()
            for name in ("rounds.jsonl", "metrics.csv", "summary.json")}


def test_lanes_overlap_requests_and_match_a_single_lane(
    endpoint_factory, tmp_path, monkeypatch
):
    runs = {}
    # switching threads often makes the lanes' memo fills interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for lanes in (1, 4):
            monkeypatch.setattr(engine, "LIVE_LANES", lanes)
            endpoint = endpoint_factory(delay_s=0.005, answer=flaky_answer)
            out = tmp_path / f"lanes{lanes}"
            code = main(["run", "--config", str(live_scenario(tmp_path, endpoint)),
                         "--seed", "3", "--out", str(out)])
            assert code == 0
            runs[lanes] = (artifacts(out), endpoint)
    finally:
        sys.setswitchinterval(interval)
    assert runs[1][0] == runs[4][0]
    rounds = [json.loads(line) for line in runs[4][0]["rounds.jsonl"].splitlines()]
    llm = [u for r in rounds for u in r["ues"] if u["strategy"] == "llm"]
    # the replies differ from UE to UE, so a decision handed to the wrong UE shows
    assert len({u["per_unit_bid"] for u in llm}) > 6
    # some decisions fell back to greedy, whose memo fills the lanes share
    assert 0 < sum(u["fallback"] for u in llm) < len(llm)
    assert runs[1][1].peak_in_flight == 1
    # 6 deciders on 4 lanes
    assert 1 < runs[4][1].peak_in_flight <= 4
    assert runs[4][1].connections == 1 + 4


def test_timed_out_prompt_falls_back_in_ue_order(endpoint_factory, tmp_path):
    slow_ue = 2
    # only this UE's first prompt times out; it is set below, before any request
    endpoint = endpoint_factory(
        delay_s=0.002, answer=varied_answer, slow_s=0.6,
        slow_if=lambda prompt: prompt == slow_prompt,
    )
    config = load_scenario_file(str(live_scenario(tmp_path, endpoint, timeout_ms=200)))
    run = SimulationRun(dataclasses.replace(config, offline=False), 0, spawn_run_seeds(3, 1)[0])
    first_prompts = [render_prompt(run.observation_for(r, 1)) for r in run.ues[:6]]
    assert len(set(first_prompts)) == 6
    slow_prompt = first_prompts[slow_ue]
    expected = greedy_decide(run.observation_for(run.ues[slow_ue], 1))
    with closing(run.execute()) as played:
        first = next(played)
    assert [r.ue_id for r in first.ues] == list(range(9))
    assert [r.fallback for r in first.ues] == [r.ue_id == slow_ue for r in first.ues]
    fell_back = first.ues[slow_ue]
    assert (fell_back.station_id, fell_back.per_unit_bid) == (
        expected.station_id, expected.per_unit_bid,
    )
    assert fell_back.quantity == run.ues[slow_ue].by_station[expected.station_id].demand
    # the first try and its one retry (max_retries = 1), each timed out
    assert endpoint.prompts.count(slow_prompt) == 2


def lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("hetmarket-lane")]


def settles(before, timeout_s=5.0):
    """Whether every thread started since ``before`` ends within the timeout."""
    deadline = time.monotonic() + timeout_s
    while set(threading.enumerate()) - before:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_lanes_end_with_the_run_even_when_one_raises(endpoint_factory, tmp_path, monkeypatch):
    endpoint = endpoint_factory(delay_s=0.002, answer=varied_answer)
    scenario = live_scenario(tmp_path, endpoint, runs=2)
    before = set(threading.enumerate())
    start = threading.active_count()
    assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "ok")]) == 0
    assert lane_threads() == []
    assert endpoint.wait_all_finished()
    assert settles(before)
    assert threading.active_count() <= start

    calls = itertools.count()
    complete = ChatCompletionClient.complete

    def breaks_on_the_tenth_call(self, prompt):
        if next(calls) == 9:
            raise ZeroDivisionError("lane broke")
        return complete(self, prompt)

    monkeypatch.setattr(ChatCompletionClient, "complete", breaks_on_the_tenth_call)
    out = tmp_path / "broken"
    with pytest.raises(ZeroDivisionError, match="lane broke"):
        main(["run", "--config", str(scenario), "--out", str(out)])
    assert list(out.glob("rounds.jsonl*")) == []
    assert lane_threads() == []
    assert endpoint.wait_all_finished()
    assert settles(before)
    assert threading.active_count() <= start


def loaded_modules(names):
    """Which of ``names`` a fresh ``import hetmarket.cli`` loads.

    A module the interpreter loaded before the import (a site ``.pth`` file
    may load ``urllib.parse``) is not counted.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys; before = set(sys.modules); import hetmarket.cli; "
        f"print(sorted({set(names)!r} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_out_third_party_packages():
    assert loaded_modules({"requests", "urllib3", "numpy"}) == "[]"


def test_cli_import_leaves_out_process_and_thread_pools():
    # a pool is imported where the first one starts: a cold import skips both
    assert loaded_modules({"multiprocessing", "concurrent.futures.thread"}) == "[]"


def test_cli_import_leaves_out_the_http_stack():
    # a client imports it where it opens its first connection
    assert loaded_modules({"http.client", "ssl", "email", "urllib.parse"}) == "[]"
