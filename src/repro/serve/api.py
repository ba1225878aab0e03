"""Stdlib-asyncio HTTP front-end for the sharded diurnal service.

No third-party web framework is available (or needed): the protocol
surface is a handful of small JSON/text endpoints, served by
:func:`asyncio.start_server` with a hand-rolled HTTP/1.1 request
parser.  Keep-alive is supported; bodies are bounded; every runner
call (a blocking pipe RPC to a shard process) is pushed onto the
default executor so the event loop never stalls behind a shard.

Endpoints:

* ``POST /observations`` — body ``{"observations": [[block_id,
  time_s, value], ...]}``.  200 with the admission report when every
  observation was accepted; **429 + Retry-After** when a shard's
  admission queue asserted backpressure (the report says which); 503 +
  Retry-After only when an observation's *entire* replica chain is out
  of the ring (with ``replication`` R, that takes R simultaneous
  deaths).  A 200 that landed on fewer than R replicas carries
  ``X-Write-Degraded: 1`` — accepted, durable on the live replicas,
  and owed to the dead one via hinted handoff.
* ``GET /blocks/{key}/state`` — the freshest live snapshot of one
  block across its replica chain (watermark, closed-window verdicts,
  provisional estimate).  404 for untracked blocks, 503 + Retry-After
  only when every replica is down.  Freshness headers on every
  answer: ``X-Replication`` (chain width R), ``X-Replicas-Answered``,
  ``X-Read-Partial`` (fewer than R answered) and ``X-Read-Stale``
  (every answering replica has known-dropped hints).
* ``GET /phase-map`` — merged diurnal phase map across shards, the
  freshest replica entry winning each block; ``partial`` flags only
  the case where a block may have lost its entire chain.
* ``GET /fleet`` — ring, per-shard health/stats, respawn counts.
* ``GET /metrics`` — fleet-aggregate metrics as Prometheus text
  (``?format=json`` for the JSON snapshot).
* ``GET /metrics/history?series=…&window=…&step=…`` — windowed
  points (``{t, min, max, mean, last, count}``) from the supervision
  loop's :class:`~repro.obs.history.MetricsHistory`; ``series`` may
  repeat, ``window`` is seconds (default 600), ``step`` optionally
  re-buckets.  Without ``series`` the catalog of tracked series is
  returned.  404 when history is disabled.
* ``GET /dashboard`` — the zero-dependency ops page: server-rendered
  HTML with inline-SVG sparklines over history (ingest rate, queue
  depth, shed ratio, p99, error burn rate, per-shard health and
  replication lag), refreshed by meta-refresh — no scripts, no
  frameworks, safe to leave open in a browser tab forever.
* ``GET /healthz`` — 200 when every shard is in the ring, else 503;
  both answers carry ``replication`` (configured R),
  ``replicas_syncing`` (shards mid hint-sync), and ``stale`` (sticky
  count of shards with known-dropped hints), so probes can tell
  healthy from degraded-but-serving.
* ``GET /debug/profile?seconds=N`` — opt-in (``enable_profiler``):
  sample this process for N seconds and return flamegraph-ready
  collapsed stacks as ``text/plain``.  404 when not enabled.

Every request — including errors, 404s, and malformed framing — is
observable end to end:

* **Tracing.** An incoming W3C ``traceparent`` header is honoured (a
  fresh trace is minted otherwise); the handler runs under an
  ``http.request`` span whose 16-hex span id doubles as the request
  id.  The span's context flows through
  :meth:`~repro.serve.runner.ServiceRunner.ingest` into the shard RPC,
  so one POST yields ``http.request → route → shard.rpc →
  engine.ingest`` as a single resolvable trace.  Every response echoes
  ``X-Request-Id`` and a ``traceparent`` naming the request span.
* **Metrics.** ``service_requests_total{route,method,status}``
  counters, a ``service_requests_in_flight`` gauge, and
  ``service_request_seconds{route}`` latency histograms land in the
  runner's registry (route labels are templates —
  ``/blocks/{key}/state`` — never raw paths, so cardinality stays
  bounded; unmatched paths share one ``unmatched`` label).  The
  supervision cycle folds these into the
  ``service_request_p99_seconds`` / ``service_error_ratio`` SLO
  instruments the alert rules watch.
* **Access log.** One ``http.access`` record per request in the
  structured event log, carrying method, route, status, duration, and
  the request/trace ids — greppable by the same id the client saw.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse

from repro.obs.profiler import profile_for
from repro.obs.tracing import (
    TraceContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.serve.runner import ServiceRunner, ShardDownError

__all__ = ["ServiceAPI"]

_MAX_BODY_BYTES = 32 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024
_MAX_PROFILE_SECONDS = 30.0

# Latency buckets tuned for a local-pipe service: sub-ms cache hits
# through multi-second profile grabs.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _HTTPError(Exception):
    """Terminate request handling with a specific status."""

    def __init__(
        self, status: int, message: str, retry_after_s=None, headers=None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s
        self.headers = headers or {}


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _route_label(segments: list[str]) -> str:
    """The bounded-cardinality route template for a path."""
    if segments == ["observations"]:
        return "/observations"
    if len(segments) == 3 and segments[0] == "blocks" \
            and segments[2] == "state":
        return "/blocks/{key}/state"
    if segments == ["phase-map"]:
        return "/phase-map"
    if segments == ["fleet"]:
        return "/fleet"
    if segments == ["metrics"]:
        return "/metrics"
    if segments == ["metrics", "history"]:
        return "/metrics/history"
    if segments == ["dashboard"]:
        return "/dashboard"
    if segments == ["healthz"]:
        return "/healthz"
    if segments == ["debug", "profile"]:
        return "/debug/profile"
    return "unmatched"


class ServiceAPI:
    """Bind a :class:`~repro.serve.runner.ServiceRunner` to HTTP.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` (the test and smoke paths rely on this).
    ``enable_profiler`` arms ``GET /debug/profile`` — off by default
    because a sampler anyone can start from the network is an
    operator's decision, not a library's.
    """

    def __init__(
        self,
        runner: ServiceRunner,
        host: str = "127.0.0.1",
        port: int = 8000,
        enable_profiler: bool = False,
    ) -> None:
        self.runner = runner
        self.host = host
        self.port = port
        self.enable_profiler = enable_profiler
        self._server: asyncio.AbstractServer | None = None
        self._in_flight = runner.metrics.gauge("service_requests_in_flight")
        # Open connections' handler tasks, and the writers whose
        # handler is waiting for the next request (idle).
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.runner.events.info(
            "service.api_listening", host=self.host, port=self.port
        )

    async def stop(self) -> None:
        """Stop listening, then close every keep-alive connection.

        Idle connections are closed at once, so their handlers see a
        clean EOF instead of being cancelled at loop teardown; a busy
        one finishes its in-flight request, answers it with
        ``Connection: close``, and exits.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        for writer in list(self._idle):
            writer.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await self._read_request(reader)
                except _HTTPError as error:
                    # Malformed framing: answer once (with a request id,
                    # like every other response), then close — the byte
                    # stream cannot be trusted past this point.
                    response = self._framing_error_response(error)
                    self._write_response(writer, *response, keep_alive=False)
                    await writer.drain()
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                method, path, query, headers, body = request
                status, payload, content_type, extra = await self._process(
                    method, path, query, headers, body
                )
                keep_alive = not self._closing and (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                self._write_response(
                    writer, status, payload, content_type, extra,
                    keep_alive=keep_alive,
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _process(self, method, path, query, headers, body):
        """Handle one parsed request with full observability.

        Always returns a response tuple; every path through here — 200,
        typed ``_HTTPError``, or an unexpected exception — stamps the
        request id and traceparent headers, counts into the per-route
        metrics, and writes one access-log record.
        """
        runner = self.runner
        incoming = parse_traceparent(headers.get("traceparent"))
        trace_id = incoming.trace_id if incoming is not None else \
            new_trace_id()
        request_id = new_span_id()
        context = TraceContext(trace_id=trace_id, span_id=request_id)
        segments = [s for s in path.split("/") if s]
        route = _route_label(segments)
        span = runner.tracer.begin(
            "http.request",
            parent_context=incoming,
            trace_id=trace_id,
            span_id=request_id,
            method=method,
            route=route,
        )
        self._in_flight.inc()
        t0 = time.perf_counter()
        try:
            status, payload, content_type, extra = await self._dispatch(
                method, segments, query, body, context
            )
        except _HTTPError as error:
            status = error.status
            payload = _json_bytes(
                {"error": error.message, "request_id": request_id}
            )
            content_type = "application/json"
            extra = dict(error.headers)
            if error.retry_after_s is not None:
                extra["Retry-After"] = _retry_after(error.retry_after_s)
        except Exception as error:  # pragma: no cover - safety net
            status = 500
            payload = _json_bytes(
                {
                    "error": f"{type(error).__name__}: {error}",
                    "request_id": request_id,
                }
            )
            content_type = "application/json"
            extra = {}
        finally:
            self._in_flight.dec()
        duration_s = time.perf_counter() - t0
        if span is not None:
            span.attrs["status"] = status
            runner.tracer.end(span)
        self._observe(route, method, status, duration_s)
        runner.events.info(
            "http.access",
            method=method,
            path=path,
            route=route,
            status=status,
            duration_s=duration_s,
            n_bytes=len(payload),
            request_id=request_id,
            trace_id=trace_id,
            span_id=request_id,
        )
        extra.setdefault("X-Request-Id", request_id)
        extra.setdefault("traceparent", format_traceparent(context))
        return status, payload, content_type, extra

    def _framing_error_response(self, error: _HTTPError):
        """The 400/413 answer for requests that never parsed."""
        request_id = new_span_id()
        self._observe("unmatched", "?", error.status, 0.0)
        self.runner.events.info(
            "http.access",
            method="?",
            path="?",
            route="unmatched",
            status=error.status,
            duration_s=0.0,
            n_bytes=0,
            request_id=request_id,
            trace_id=new_trace_id(),
            span_id=request_id,
        )
        payload = _json_bytes(
            {"error": error.message, "request_id": request_id}
        )
        return (
            error.status,
            payload,
            "application/json",
            {"X-Request-Id": request_id},
        )

    def _observe(self, route, method, status, duration_s) -> None:
        metrics = self.runner.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "service_requests_total",
            route=route, method=method, status=str(status),
        ).inc()
        metrics.histogram(
            "service_request_seconds", buckets=_LATENCY_BUCKETS, route=route
        ).observe(duration_s)

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise _HTTPError(413, "header block too large")
        if len(head) > _MAX_HEADER_BYTES:
            raise _HTTPError(413, "header block too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        path, _, query = target.partition("?")
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _HTTPError(413, f"body of {length} bytes exceeds limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, query, headers, body

    def _write_response(
        self, writer, status, payload, content_type, extra, keep_alive
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra.items())
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        )

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, method, segments, query, body, context):
        if segments == ["observations"]:
            if method != "POST":
                raise _HTTPError(405, "use POST /observations")
            return await self._post_observations(body, context)
        if len(segments) == 3 and segments[0] == "blocks" \
                and segments[2] == "state":
            if method != "GET":
                raise _HTTPError(405, "use GET /blocks/{key}/state")
            return await self._get_block_state(segments[1])
        path = "/" + "/".join(segments)
        if method != "GET":
            raise _HTTPError(405, f"no {method} routes at {path}")
        if segments == ["phase-map"]:
            return await self._get_json(self.runner.phase_map)
        if segments == ["fleet"]:
            return await self._get_json(self.runner.fleet_snapshot)
        if segments == ["metrics"]:
            return await self._get_metrics(query)
        if segments == ["metrics", "history"]:
            return await self._get_history(query)
        if segments == ["dashboard"]:
            return await self._get_dashboard()
        if segments == ["healthz"]:
            return self._get_healthz()
        if segments == ["debug", "profile"] and self.enable_profiler:
            return await self._get_profile(query)
        raise _HTTPError(404, f"no route for {path}")

    async def _offload(self, fn, *args):
        """Run a blocking runner call without stalling the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args
        )

    async def _post_observations(self, body: bytes, context):
        try:
            parsed = json.loads(body or b"{}")
        except json.JSONDecodeError as error:
            raise _HTTPError(400, f"invalid JSON body: {error}")
        observations = parsed.get("observations")
        if not isinstance(observations, list):
            raise _HTTPError(
                400, 'body must be {"observations": [[block_id, t, v], ...]}'
            )
        for triple in observations:
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise _HTTPError(
                    400, f"observation {triple!r} is not a [block, t, v] triple"
                )
        report = await self._offload(
            self.runner.ingest, observations, context
        )
        retry_after = self.runner.config.retry_after_s
        if report["rejected"] > 0 and report["backpressure"]:
            raise _HTTPError(
                429,
                f"admission queue full: {report['rejected']} of "
                f"{len(observations)} observations rejected",
                retry_after_s=retry_after,
            )
        if report["rejected"] > 0 and report["down"]:
            raise _HTTPError(
                503,
                f"every replica down: {report['rejected']} of "
                f"{len(observations)} observations rejected",
                retry_after_s=retry_after,
            )
        extra = {}
        if report.get("degraded"):
            # Accepted and durable, but on fewer than R replicas; the
            # missing copies ride hinted handoff.  Clients that care
            # about full redundancy can see it without parsing the body.
            extra["X-Write-Degraded"] = "1"
        return 200, _json_bytes(report), "application/json", extra

    async def _get_block_state(self, raw_key: str):
        try:
            block_id = int(raw_key)
        except ValueError:
            raise _HTTPError(400, f"block key {raw_key!r} is not an integer")
        try:
            result = await self._offload(self.runner.query_block_ex, block_id)
        except ShardDownError as error:
            raise _HTTPError(
                503, str(error),
                retry_after_s=self.runner.config.retry_after_s,
            )
        headers = {
            "X-Replication": str(result["replication"]),
            "X-Replicas-Answered": str(result["replicas_answered"]),
            "X-Read-Partial": "1" if result["partial"] else "0",
            "X-Read-Stale": "1" if result["stale"] else "0",
        }
        if result["snapshot"] is None:
            raise _HTTPError(
                404, f"block {block_id} is not tracked", headers=headers
            )
        return 200, _json_bytes(result["snapshot"]), "application/json", \
            headers

    async def _get_json(self, fn):
        payload = await self._offload(fn)
        return 200, _json_bytes(payload), "application/json", {}

    async def _get_metrics(self, query: str):
        if "format=json" in query:
            snap = await self._offload(self.runner.metrics_json)
            return 200, _json_bytes(snap), "application/json", {}
        text = await self._offload(self.runner.metrics_text)
        return (
            200,
            text.encode(),
            "text/plain; version=0.0.4; charset=utf-8",
            {},
        )

    async def _get_profile(self, query: str):
        params = urllib.parse.parse_qs(query)
        raw = params.get("seconds", ["1.0"])[-1]
        try:
            seconds = float(raw)
        except ValueError:
            raise _HTTPError(400, f"seconds={raw!r} is not a number")
        if not seconds > 0:
            raise _HTTPError(400, "seconds must be positive")
        seconds = min(seconds, _MAX_PROFILE_SECONDS)
        collapsed = await self._offload(profile_for, seconds)
        return (
            200,
            (collapsed + "\n").encode(),
            "text/plain; charset=utf-8",
            {},
        )

    async def _get_history(self, query: str):
        history = self.runner.history
        if history is None:
            raise _HTTPError(404, "history is disabled on this service")
        params = urllib.parse.parse_qs(query)
        window = _float_param(params, "window", 600.0)
        if window <= 0:
            raise _HTTPError(400, "window must be positive seconds")
        step = _float_param(params, "step", 0.0)
        if step < 0:
            raise _HTTPError(400, "step must be positive seconds")
        keys = params.get("series")
        if not keys:
            catalog = await self._offload(history.series)
            payload = {"window": window, "series": catalog}
            return 200, _json_bytes(payload), "application/json", {}
        results = []
        for key in keys:
            results.append(await self._offload(
                lambda k=key: history.range(
                    k, window, step_s=step or None
                )
            ))
        payload = {
            "window": window,
            "step": step or None,
            "series": results,
        }
        return 200, _json_bytes(payload), "application/json", {}

    async def _get_dashboard(self):
        if self.runner.history is None:
            raise _HTTPError(404, "history is disabled on this service")
        html = await self._offload(_render_dashboard, self.runner)
        return (
            200,
            html.encode(),
            "text/html; charset=utf-8",
            {},
        )

    def _get_healthz(self):
        runner = self.runner
        replication = {
            "replication": runner.config.replication,
            "replicas_syncing": int(runner._m.syncing.value),
            "stale": sum(1 for s in runner._slots if s.stale),
        }
        if runner.healthy:
            payload = {"status": "ok", **replication}
            return 200, _json_bytes(payload), "application/json", {}
        fleet = {
            str(s.shard_id): s.healthy for s in runner._slots
        }
        payload = _json_bytes(
            {"status": "degraded", "shards": fleet, **replication}
        )
        return 503, payload, "application/json", {}


def _float_param(params: dict, name: str, default: float) -> float:
    raw = params.get(name, [None])[-1]
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise _HTTPError(400, f"{name}={raw!r} is not a number")


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def _retry_after(seconds: float) -> str:
    return str(max(1, int(round(seconds))))


# -- dashboard rendering ---------------------------------------------------

_DASHBOARD_WINDOW_S = 600.0

_DASHBOARD_CSS = """\
:root { color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --status-good: #0ca30c; --status-critical: #d03b3b;
  --status-warning: #fab219;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 18px; font-weight: 600; margin: 0 0 4px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.grid { display: grid; gap: 12px;
  grid-template-columns: repeat(auto-fill, minmax(264px, 1fr)); }
.card { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px 10px; }
.card h2 { font-size: 12px; font-weight: 500; margin: 0;
  color: var(--text-secondary); }
.value { font-size: 26px; font-weight: 600; margin: 2px 0 6px; }
.unit { font-size: 13px; font-weight: 400;
  color: var(--text-secondary); }
.spark { display: block; width: 100%; height: 48px; }
.shards { margin-top: 20px; }
.chip { display: inline-flex; align-items: center; gap: 6px;
  border: 1px solid var(--border); border-radius: 999px;
  padding: 2px 10px; margin-right: 8px; font-size: 13px; }
.chip .dot { font-size: 11px; }
.chip.good .dot { color: var(--status-good); }
.chip.bad .dot { color: var(--status-critical); }
.chip.warn .dot { color: var(--status-warning); }
.foot { color: var(--muted); font-size: 12px; margin-top: 20px; }
table.lag { border-collapse: collapse; width: 100%; margin-top: 8px; }
table.lag td { padding: 2px 8px 2px 0; font-size: 13px;
  color: var(--text-secondary);
  font-variant-numeric: tabular-nums; }
"""


def _fmt_number(value) -> str:
    """A dashboard-friendly number: short, no scientific noise."""
    if value is None or value != value:
        return "—"
    value = float(value)
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _rate_points(points: list[dict]) -> list[dict]:
    """Successive-delta rate series derived from counter points."""
    out = []
    for prev, cur in zip(points, points[1:]):
        dt = cur["t"] - prev["t"]
        if dt <= 0:
            continue
        rate = max(0.0, (cur["last"] - prev["last"]) / dt)
        out.append({
            "t": cur["t"], "min": rate, "max": rate,
            "mean": rate, "last": rate, "count": 1,
        })
    return out


def _render_dashboard(runner) -> str:
    """Server-side HTML for ``GET /dashboard`` — no scripts, no deps.

    Everything is computed from the runner's ``MetricsHistory`` at
    render time; the page re-renders itself via meta-refresh.  Colors
    live in CSS custom properties (light and dark from the same
    palette); status is never color alone — each shard chip pairs its
    dot with an explicit label.
    """
    from repro.obs.export import sparkline_svg

    history = runner.history
    window = _DASHBOARD_WINDOW_S

    def pts(series: str) -> list[dict]:
        return history.range(series, window)["points"]

    ingest = _rate_points(pts("service_ingest_observations_total"))
    panels = [
        ("Ingest rate", "obs/s",
         ingest[-1]["last"] if ingest else None, ingest),
    ]
    for title, unit, series in (
        ("Queue depth", "obs", "stream_ingest_queue_depth"),
        ("Shed ratio", "", "stream_shed_ratio"),
        ("Request p99", "s", "service_request_p99_seconds"),
        ("Error burn rate", "", "service_error_ratio"),
    ):
        points = pts(series)
        panels.append(
            (title, unit, points[-1]["last"] if points else None, points)
        )

    cards = []
    for title, unit, value, points in panels:
        unit_html = f' <span class="unit">{unit}</span>' if unit else ""
        cards.append(
            f'<div class="card"><h2>{title}</h2>'
            f'<div class="value">{_fmt_number(value)}{unit_html}</div>'
            f"{sparkline_svg(points)}</div>"
        )

    chips = []
    lag_rows = []
    for slot in runner._slots:
        shard = str(slot.shard_id)
        if slot.stale:
            cls, dot, label = "warn", "&#9650;", "stale"
        elif slot.healthy:
            cls, dot, label = "good", "&#9679;", "healthy"
        else:
            cls, dot, label = "bad", "&#10005;", "down"
        chips.append(
            f'<span class="chip {cls}"><span class="dot">{dot}</span>'
            f"shard {shard} · {label}</span>"
        )
        lag = pts(f'service_shard_hint_lag{{shard="{shard}"}}')
        lag_now = lag[-1]["last"] if lag else None
        lag_rows.append(
            f"<tr><td>shard {shard}</td>"
            f"<td>lag {_fmt_number(lag_now)} obs</td>"
            f"<td>{sparkline_svg(lag, width=160, height=24)}</td></tr>"
        )

    sub = (
        f"run {runner.run_id or '—'} · "
        f"{runner.config.n_shards} shards · "
        f"replication {runner.config.replication} · "
        f"window {window:g}s"
    )
    return (
        "<!doctype html><html><head>"
        '<meta charset="utf-8">'
        '<meta http-equiv="refresh" content="5">'
        "<title>diurnal service · ops</title>"
        f"<style>{_DASHBOARD_CSS}</style></head><body>"
        "<h1>diurnal service</h1>"
        f'<p class="sub">{sub}</p>'
        f'<div class="grid">{"".join(cards)}</div>'
        '<div class="shards"><h2 class="sub">shards</h2>'
        f'{"".join(chips)}'
        f'<table class="lag">{"".join(lag_rows)}</table></div>'
        '<p class="foot">server-rendered from the in-memory telemetry '
        "history; auto-refreshes every 5s · "
        '<a href="/metrics/history">/metrics/history</a> · '
        '<a href="/metrics">/metrics</a></p>'
        "</body></html>"
    )
