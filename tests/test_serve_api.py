"""HTTP-layer tests for the service API (repro.serve.api).

The API runs in a background event-loop thread; tests speak real
HTTP/1.1 over ``http.client`` so the hand-rolled parser, keep-alive
handling, and status/header semantics (404, 429 + Retry-After,
503 + Retry-After) are exercised end to end against live shard
processes.
"""

import asyncio
import json
import signal
import socket
import subprocess
import sys
import threading
from http.client import HTTPConnection

import pytest

from repro.core.retry import RetryPolicy
from repro.obs import MetricsRegistry
from repro.obs.events import EventLogger, read_event_log
from repro.obs.tracing import Tracer, parse_traceparent
from repro.serve import ServiceAPI, ServiceConfig, ServiceRunner
from repro.stream.engine import StreamConfig
from repro.stream.overload import OverloadConfig

from tests.test_serve_service import ROUND, interleaved, N_BLOCKS, WINDOW


class ApiHarness:
    """A live runner + API on an ephemeral port, driven from tests."""

    def __init__(self, runner: ServiceRunner, enable_profiler=False) -> None:
        self.runner = runner
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="api-loop", daemon=True
        )
        self.thread.start()
        runner.start()
        self.api = ServiceAPI(runner, port=0, enable_profiler=enable_profiler)
        asyncio.run_coroutine_threadsafe(
            self.api.start(), self.loop
        ).result(timeout=10)

    def request(self, method, path, body=None, conn=None, headers=None):
        own = conn is None
        if own:
            conn = HTTPConnection("127.0.0.1", self.api.port, timeout=30)
        try:
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers={"Content-Type": "application/json", **(headers or {})},
            )
            response = conn.getresponse()
            payload = response.read()
            headers = dict(response.getheaders())
            try:
                payload = json.loads(payload)
            except (json.JSONDecodeError, UnicodeDecodeError):
                pass
            return response.status, payload, headers
        finally:
            if own:
                conn.close()

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.api.stop(), self.loop
        ).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.runner.stop(drain=False)


def make_harness(
    tmp_path, runner_kwargs=None, enable_profiler=False, **config_overrides
) -> ApiHarness:
    defaults = dict(
        stream=StreamConfig(window_rounds=WINDOW, round_s=ROUND),
        journal_dir=tmp_path / "journals",
        n_shards=2,
        seed=11,
    )
    defaults.update(config_overrides)
    kwargs = dict(metrics=MetricsRegistry())
    kwargs.update(runner_kwargs or {})
    runner = ServiceRunner(ServiceConfig(**defaults), **kwargs)
    return ApiHarness(runner, enable_profiler=enable_profiler)


@pytest.fixture
def harness(tmp_path):
    instance = make_harness(tmp_path)
    yield instance
    instance.close()


@pytest.mark.watchdog(120)
def test_ingest_and_block_state_roundtrip(harness):
    observations = [list(t) for t in interleaved(2 * WINDOW)]
    status, report, _ = harness.request(
        "POST", "/observations", {"observations": observations}
    )
    assert status == 200
    assert report["accepted"] == len(observations)
    harness.runner.flush()
    for block_id in range(N_BLOCKS):
        status, state, _ = harness.request(
            "GET", f"/blocks/{block_id}/state"
        )
        assert status == 200
        # The HTTP payload is the runner's own snapshot, JSON-rendered.
        assert state == harness.runner.query_block(block_id)
        assert state["n_closed"] == 2
        assert state["last_report"]["label"] is not None


@pytest.mark.watchdog(120)
def test_phase_map_fleet_metrics_healthz(harness):
    observations = [list(t) for t in interleaved(2 * WINDOW)]
    harness.request("POST", "/observations", {"observations": observations})
    harness.runner.flush()

    status, phase_map, _ = harness.request("GET", "/phase-map")
    assert status == 200
    assert not phase_map["partial"]
    assert phase_map["blocks"]  # JSON object: str block ids
    for entry in phase_map["blocks"].values():
        assert entry["label"] in ("strict", "relaxed")

    status, fleet, _ = harness.request("GET", "/fleet")
    assert status == 200
    assert fleet["n_shards"] == 2
    assert all(s["healthy"] for s in fleet["shards"].values())

    status, text, headers = harness.request("GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert b"stream_observations_total" in text
    assert b"service_ingest_observations_total" in text

    status, snap, _ = harness.request("GET", "/metrics?format=json")
    assert status == 200
    assert snap["service"]["run_id"] == harness.runner.run_id

    status, health, _ = harness.request("GET", "/healthz")
    assert status == 200 and health["status"] == "ok"


@pytest.mark.watchdog(120)
def test_error_statuses(harness):
    status, body, _ = harness.request("GET", "/blocks/12345/state")
    assert status == 404 and "error" in body
    status, body, _ = harness.request("GET", "/blocks/xyz/state")
    assert status == 400
    status, body, _ = harness.request("POST", "/observations", {"nope": 1})
    assert status == 400
    status, body, _ = harness.request(
        "POST", "/observations", {"observations": [[1, 2]]}
    )
    assert status == 400
    status, body, _ = harness.request("GET", "/no/such/route")
    assert status == 404
    status, body, _ = harness.request("GET", "/observations")
    assert status == 405
    status, body, _ = harness.request("POST", "/phase-map", {})
    assert status == 405


@pytest.mark.watchdog(120)
def test_keep_alive_serves_multiple_requests(harness):
    conn = HTTPConnection("127.0.0.1", harness.api.port, timeout=30)
    try:
        for _ in range(3):
            status, health, _ = harness.request(
                "GET", "/healthz", conn=conn
            )
            assert status == 200 and health["status"] == "ok"
    finally:
        conn.close()


@pytest.mark.watchdog(120)
def test_sigterm_with_idle_keep_alive_connection_exits_cleanly(tmp_path):
    """SIGTERM while a client holds an idle keep-alive connection: the
    server closes it during drain, exits 0, and logs no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--journal-dir", str(tmp_path / "journals")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving on http://"), banner
        port = int(banner.split()[2].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
            assert sock.recv(65536) == b""  # closed by the server
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr, stderr


@pytest.mark.watchdog(120)
def test_backpressure_answers_429_with_retry_after(tmp_path):
    harness = make_harness(
        tmp_path,
        n_shards=1,
        overload=OverloadConfig(
            capacity=64, high_watermark=0.5, low_watermark=0.25
        ),
        pump_budget=1,
        retry_after_s=2.0,
    )
    try:
        burst = [[7, r * ROUND, 0.5] for r in range(60)]
        status, _, _ = harness.request(
            "POST", "/observations", {"observations": burst}
        )
        assert status == 200
        status, body, headers = harness.request(
            "POST", "/observations", {"observations": [[7, 61 * ROUND, 0.5]]}
        )
        assert status == 429
        assert headers["Retry-After"] == "2"
        assert "error" in body
        # The backpressure answer is still a first-class traced request.
        assert body["request_id"] == headers["X-Request-Id"]
        assert headers["X-Request-Id"] in headers["traceparent"]
        harness.runner.flush()
        status, _, _ = harness.request(
            "POST", "/observations", {"observations": [[7, 61 * ROUND, 0.5]]}
        )
        assert status == 200
    finally:
        harness.close()


@pytest.mark.watchdog(120)
def test_down_shard_answers_503_with_retry_after(tmp_path):
    harness = make_harness(
        tmp_path,
        respawn_backoff=RetryPolicy(base_delay_s=120.0),
    )
    try:
        observations = [list(t) for t in interleaved(WINDOW)]
        harness.request(
            "POST", "/observations", {"observations": observations}
        )
        victim = harness.runner.owner(0)
        harness.runner.kill_shard(victim)
        status, body, headers = harness.request("GET", "/blocks/0/state")
        assert status == 503
        # Retry-After is integer seconds on 503 exactly as on 429, and
        # the degraded answer still carries its request id.
        assert headers["Retry-After"] == "1"
        assert body["request_id"] == headers["X-Request-Id"]
        status, body, _ = harness.request(
            "POST", "/observations", {"observations": [[0, 999 * ROUND, 0.5]]}
        )
        assert status == 503
        status, phase_map, _ = harness.request("GET", "/phase-map")
        assert status == 200 and phase_map["partial"]
        status, health, _ = harness.request("GET", "/healthz")
        assert status == 503 and health["status"] == "degraded"
    finally:
        harness.close()


# -- observability: tracing, request ids, SLO metrics, profiler ------------

TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


@pytest.mark.watchdog(120)
def test_every_response_carries_request_id_and_traceparent(harness):
    cases = [
        ("GET", "/healthz", None, 200),
        ("GET", "/no/such/route", None, 404),
        ("POST", "/observations", {"nope": 1}, 400),
        ("GET", "/observations", None, 405),
    ]
    for method, path, body, want in cases:
        status, payload, headers = harness.request(method, path, body)
        assert status == want, path
        request_id = headers["X-Request-Id"]
        assert len(request_id) == 16
        int(request_id, 16)  # well-formed hex
        context = parse_traceparent(headers["traceparent"])
        assert context is not None and context.span_id == request_id
        if status >= 400:
            # Error payloads echo the id so a client report names the
            # exact access-log line and span.
            assert payload["request_id"] == request_id


@pytest.mark.watchdog(120)
def test_incoming_traceparent_joins_the_callers_trace(harness):
    status, _, headers = harness.request(
        "GET", "/healthz", headers={"traceparent": TRACEPARENT}
    )
    assert status == 200
    context = parse_traceparent(headers["traceparent"])
    assert context.trace_id == "ab" * 16  # the caller's trace continues
    assert context.span_id != "cd" * 8  # under a freshly minted span
    assert headers["X-Request-Id"] == context.span_id


@pytest.mark.watchdog(120)
def test_malformed_traceparent_starts_a_fresh_trace(harness):
    status, _, headers = harness.request(
        "GET", "/healthz", headers={"traceparent": "00-beef-cafe-01"}
    )
    assert status == 200
    context = parse_traceparent(headers["traceparent"])
    assert context is not None and context.trace_id != "beef"


@pytest.mark.watchdog(120)
def test_traced_ingest_produces_one_resolvable_span_tree(tmp_path):
    """The acceptance path: one POST /observations, one span tree.

    Every traced record in the event log must resolve against the
    runner tracer, and the resolved spans must chain
    http.request -> route -> shard.rpc -> engine.ingest under the
    caller's trace id — including the engine.ingest leaves, which ran
    in shard subprocesses and came home on telemetry deltas.
    """
    log_path = tmp_path / "events.jsonl"
    harness = make_harness(
        tmp_path,
        runner_kwargs=dict(
            tracer=Tracer(), events=EventLogger(sink=log_path)
        ),
    )
    try:
        observations = [list(t) for t in interleaved(WINDOW)]
        status, _, headers = harness.request(
            "POST",
            "/observations",
            {"observations": observations},
            headers={"traceparent": TRACEPARENT},
        )
        assert status == 200
        trace_id = "ab" * 16
        request_id = headers["X-Request-Id"]

        tracer = harness.runner.tracer
        by_name = {}
        for span in tracer.trace_spans(trace_id):
            by_name.setdefault(span.name, []).append(span)
        assert set(by_name) == {
            "http.request", "route", "shard.rpc", "engine.ingest"
        }

        [request_span] = by_name["http.request"]
        assert request_span.span_id == request_id
        assert request_span.parent_span_id == "cd" * 8  # caller's span
        [route_span] = by_name["route"]
        assert route_span.parent_span_id == request_id
        rpc_ids = {s.span_id for s in by_name["shard.rpc"]}
        assert len(rpc_ids) == 2  # both shards took part of the batch
        for span in by_name["shard.rpc"]:
            assert span.parent_span_id == route_span.span_id
        for span in by_name["engine.ingest"]:
            assert span.parent_span_id in rpc_ids

        records = [
            r for r in read_event_log(log_path)
            if r.get("trace_id") == trace_id
        ]
        seen = {r["event"] for r in records}
        assert {
            "http.access", "service.route", "service.shard_rpc",
            "shard.ingest",
        } <= seen
        for record in records:
            span = tracer.resolve(record["span_id"])
            assert span is not None, record["event"]
            assert span.trace_id == trace_id

        [access] = [r for r in records if r["event"] == "http.access"]
        assert access["request_id"] == request_id
        assert access["route"] == "/observations"
        assert access["status"] == 200
        assert access["duration_s"] >= 0.0
    finally:
        harness.close()


@pytest.mark.watchdog(120)
def test_per_route_latency_metrics_and_json_schema(harness):
    harness.request("GET", "/healthz")
    harness.request("GET", "/no/such/route")
    harness.request(
        "POST",
        "/observations",
        {"observations": [[0, 0.0, 0.5], [1, ROUND, 0.5]]},
    )

    status, text, _ = harness.request("GET", "/metrics")
    assert status == 200
    text = text.decode()
    assert "service_requests_total" in text
    assert 'route="/observations"' in text
    assert 'status="404"' in text  # the unmatched route was counted too
    assert "service_request_seconds_bucket" in text
    assert "service_request_seconds_count" in text
    assert "service_requests_in_flight" in text

    status, snap, _ = harness.request("GET", "/metrics?format=json")
    assert status == 200
    assert set(snap) == {"metrics", "service"}
    assert set(snap["service"]) == {"run_id", "respawns", "n_deltas"}
    metrics = snap["metrics"]
    assert set(metrics) == {"counters", "gauges", "histograms", "meters"}
    assert any(
        key.startswith("service_request_seconds")
        for key in metrics["histograms"]
    )
    assert any(
        key.startswith("service_requests_total")
        for key in metrics["counters"]
    )
    assert "service_requests_in_flight" in metrics["gauges"]


@pytest.mark.watchdog(120)
def test_debug_profile_endpoint(tmp_path):
    harness = make_harness(tmp_path, enable_profiler=True)
    try:
        status, text, headers = harness.request(
            "GET", "/debug/profile?seconds=0.2"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        for line in text.decode().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack and int(count) >= 1
        status, _, _ = harness.request("GET", "/debug/profile?seconds=nope")
        assert status == 400
        status, _, _ = harness.request("GET", "/debug/profile?seconds=-1")
        assert status == 400
    finally:
        harness.close()


@pytest.mark.watchdog(120)
def test_debug_profile_is_404_unless_enabled(harness):
    status, body, headers = harness.request(
        "GET", "/debug/profile?seconds=1"
    )
    assert status == 404
    assert body["request_id"] == headers["X-Request-Id"]


@pytest.mark.watchdog(60)
def test_slo_alerts_fire_from_request_metrics(tmp_path):
    """Injected slow/faulted traffic trips the default service SLOs."""
    from repro.obs.alerts import AlertEngine, default_service_rules

    registry = MetricsRegistry()
    runner = ServiceRunner(
        ServiceConfig(
            stream=StreamConfig(window_rounds=WINDOW, round_s=ROUND),
            journal_dir=tmp_path / "journals",
            n_shards=2,
            seed=11,
        ),
        metrics=registry,
    )
    runner.alerts = AlertEngine(
        default_service_rules(max_request_p99_s=0.25, max_error_ratio=0.1),
        metrics=registry,
    )
    # Injected slow requests: the whole distribution sits above the
    # p99 threshold, so the derived gauge breaches every cycle.
    hist = registry.histogram(
        "service_request_seconds", buckets=(0.1, 0.5),
        route="/observations",
    )
    ok = registry.counter(
        "service_requests_total",
        route="/observations", method="POST", status="200",
    )
    for _ in range(50):
        hist.observe(0.4)
        ok.inc()
    for _ in range(3):
        runner._evaluate_alerts()  # for_cycles=3 hysteresis
    assert "service-request-p99" in runner.alerts.firing()

    # Injected shard faults: a sustained 5xx plateau drives the
    # per-cycle burn-rate meter over its budget.
    bad = registry.counter(
        "service_requests_total",
        route="/observations", method="POST", status="503",
    )
    for _ in range(3):
        bad.inc(100)
        runner._evaluate_alerts()
    assert "service-error-ratio" in runner.alerts.firing()
