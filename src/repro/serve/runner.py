"""ServiceRunner: shards, routing, supervision, drain — the service core.

The runner is everything between the HTTP layer and the shard worker
processes:

* **placement** — a seeded :class:`~repro.serve.ring.HashRing` maps
  every block id to the ``replication`` distinct shards of its replica
  chain (``lookup_chain``); entry 0 is the classic single owner.  The
  ring is fixed at start; a dead shard is marked *unhealthy* rather
  than remapped, because its state lives in its journal and moving the
  keys would strand it.  Respawn + replay + rejoin restores the same
  placement with the same state.
* **one write path** — every accepted observation fans out to all
  live shards of its chain (a chain of one at R=1), each copy carrying
  a sequence number from the *destination* shard's stream (workers
  mask seqs at or below their journal high-water, so re-sends are
  idempotent).  Copies owed to a dead replica park as **hinted
  handoff** in the first live replica of the chain; a respawned shard
  replays its journal, then anti-entropy syncs the hints (final round
  gated against concurrent writes) before it turns healthy — failover
  and rejoin are both invisible to clients.  Reads assemble a quorum
  across the chain and pick the freshest answer by applied-observation
  count, degrading explicitly (``partial``/``stale``), never silently.
* **supervision** — a daemon thread checks process liveness and
  heartbeat staleness every cycle using the
  :class:`~repro.core.supervisor.SlotSupervisor` policy: a dead or
  wedged shard is reaped, its replacement is paced by the shared
  :class:`~repro.core.retry.RetryPolicy`, recovers by journal replay
  *before* reporting ready, and only then rejoins the ring.  Alert
  rules are evaluated over the live fleet aggregate each cycle.
* **telemetry** — every shard reply carries a
  :class:`~repro.obs.distributed.TelemetryDelta`; the runner folds
  them into a :class:`~repro.obs.distributed.FleetView`, so ``GET
  /metrics`` serves one aggregate registry (shards + the runner's own
  service metrics) through the existing Prometheus/JSON exporters.
  Each supervision cycle additionally samples that aggregate into a
  bounded :class:`~repro.obs.history.MetricsHistory` (served by ``GET
  /metrics/history`` and the ``/dashboard`` sparklines, persisted
  across drain/restart), and, when incident capture is configured,
  routes alert fired/resolved transitions into an
  :class:`~repro.obs.incidents.IncidentRecorder` that freezes the
  correlated evidence — history windows, event-ring tail, per-worker
  flight recorders, trace ids — into an atomic bundle directory.
* **graceful drain** — :meth:`stop` (the SIGTERM path) first stops the
  supervision thread (so the shutdown is not "healed"), then drains
  every shard in the documented order — admission queue pumped dry,
  due windows closed, journal flushed and fsynced — writes a final
  :class:`~repro.obs.export.RunManifest` checkpoint next to the
  journals, and only then tells workers to exit.  A clean stop never
  leaves a torn journal tail.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.retry import RetryPolicy
from repro.core.supervisor import SlotSupervisor
from repro.obs.alerts import AlertEngine
from repro.obs.distributed import FleetView
from repro.obs.events import FlightRecorder, NULL_EVENT_LOG
from repro.obs.history import HistoryConfig, MetricsHistory
from repro.obs.incidents import IncidentConfig, IncidentRecorder
from repro.obs.export import RunManifest, json_snapshot, prometheus_text
from repro.obs.registry import NULL_REGISTRY, histogram_quantile
from repro.obs.tracing import NULL_TRACER
from repro.serve.ring import HashRing
from repro.serve.shard import (
    ShardClient,
    ShardConfig,
    ShardDownError,
    ShardTimeoutError,
    _shard_main,
)
from repro.stream.engine import StreamConfig
from repro.stream.journal import StreamJournal
from repro.stream.overload import OverloadConfig

__all__ = [
    "ServiceConfig",
    "ServiceRunner",
    "ShardDownError",
    "ShardTimeoutError",
]


@dataclass(frozen=True)
class ServiceConfig:
    """The always-on service's knobs.

    Attributes:
        stream: engine configuration shared by every shard (verdicts
            must not depend on placement).
        journal_dir: directory holding one write-ahead journal per
            shard (``shard-NN.journal``) plus the final manifest.
        n_shards: shard worker processes.
        replication: replicas per block (``lookup_chain`` width).  Every
            write fans out to the R distinct shards of its chain (one
            owner at R=1); R > 1 keeps serving through R−1 failures and
            catches dead replicas up via hinted handoff on rejoin.
        hint_capacity: hinted observations one surviving shard will
            hold for dead peers before marking them stale (explicit
            degradation instead of unbounded memory).
        overload: per-shard admission queue bounds and shed policy.
        ring_replicas: virtual points per shard on the hash ring.
        seed: ring placement seed (also the default overload seed).
        shard_deadline_s: heartbeat staleness past which a live-but-
            wedged shard is reaped; ``None`` disables (death is still
            detected via the process sentinel).
        heartbeat_interval_s: supervision poll period.
        stable_after_s: seconds a respawned shard must survive before
            its respawn streak resets (crash-looping shards keep
            backing off); defaults to ``4 × shard_deadline_s`` or 1 s.
        respawn_backoff: pacing for consecutive respawns of one shard.
        request_timeout_s: per-RPC answer deadline.
        max_batch: largest observation batch per ingest RPC (bigger
            router batches are chunked, keeping worker heartbeats
            fresh and pipe frames bounded).
        pump_budget: see :class:`~repro.serve.shard.ShardConfig`.
        journal_sync_every: see :class:`~repro.serve.shard.ShardConfig`.
        retry_after_s: the Retry-After hint served with 429/503.
        telemetry: instrument shards and ship deltas.
        history: time-series retention for the fleet telemetry
            (``None`` disables).  The supervision loop samples the
            fleet aggregate into a
            :class:`~repro.obs.history.MetricsHistory` (throttled by
            the config's ``sample_min_interval_s``), the API serves it
            via ``/metrics/history`` and ``/dashboard``, and drain
            persists it to ``history_path`` for the next start to
            reload.
        incidents: alert-triggered forensic capture (``None``
            disables).  Wires an
            :class:`~repro.obs.incidents.IncidentRecorder` into the
            alert engine's transitions and keeps an event-ring tail
            plus per-worker flight recorders for its bundles.
        mp_context: multiprocessing start method.
    """

    stream: StreamConfig
    journal_dir: str | Path
    n_shards: int = 2
    replication: int = 1
    hint_capacity: int = 65536
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    ring_replicas: int = 128
    seed: int = 0
    shard_deadline_s: float | None = 5.0
    heartbeat_interval_s: float = 0.05
    stable_after_s: float | None = None
    respawn_backoff: RetryPolicy = field(default_factory=RetryPolicy)
    request_timeout_s: float = 30.0
    max_batch: int = 4096
    pump_budget: int = 2048
    journal_sync_every: int | None = 256
    retry_after_s: float = 1.0
    telemetry: bool = True
    history: HistoryConfig | None = field(default_factory=HistoryConfig)
    incidents: IncidentConfig | None = None
    mp_context: str = "fork"

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if self.replication < 1:
            raise ValueError("replication must be at least 1")
        if self.replication > self.n_shards:
            raise ValueError(
                f"replication {self.replication} needs {self.replication} "
                f"distinct shards but n_shards is {self.n_shards}"
            )
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")

    @property
    def settle_s(self) -> float:
        """Healthy-streak reset horizon (see ``stable_after_s``)."""
        if self.stable_after_s is not None:
            return self.stable_after_s
        if self.shard_deadline_s is not None:
            return 4.0 * self.shard_deadline_s
        return 1.0

    def shard_config(self) -> ShardConfig:
        return ShardConfig(
            stream=self.stream,
            overload=self.overload,
            journal_sync_every=self.journal_sync_every,
            pump_budget=self.pump_budget,
            hint_capacity=self.hint_capacity,
            telemetry=self.telemetry,
        )

    def journal_path(self, shard_id: int) -> Path:
        return Path(self.journal_dir) / f"shard-{shard_id:02d}.journal"

    @property
    def history_path(self) -> Path:
        """Where drained telemetry history persists, next to the journals."""
        return Path(self.journal_dir) / "metrics-history.jsonl"


class _Slot:
    """Supervisor-side state for one shard slot."""

    __slots__ = (
        "shard_id",
        "client",
        "healthy",
        "paused",
        "stale",
        "respawns",
        "respawned_at",
        "settled",
        "lock",
    )

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.client: ShardClient | None = None
        self.healthy = False
        self.paused = False
        # Sticky: hints owed to this shard were dropped (capacity or a
        # holder died), so its copy of some blocks is permanently
        # behind until an out-of-band anti-entropy pass.  Reads served
        # *only* by stale replicas carry an explicit stale flag.
        self.stale = False
        self.respawns = 0
        self.respawned_at = 0.0
        self.settled = True
        self.lock = threading.Lock()


class _ServiceMetrics:
    """Pre-bound runner metrics (null registry by default)."""

    __slots__ = ("enabled", "ingested", "rejected_bp", "rejected_down",
                 "degraded", "hints_stored", "hints_replayed",
                 "hints_dropped", "hint_backlog", "reads_partial",
                 "reads_stale", "syncing",
                 "queries", "respawns_crashed", "respawns_hung",
                 "shards", "unhealthy", "request_p99", "error_ratio")

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.ingested = registry.counter("service_ingest_observations_total")
        self.rejected_bp = registry.counter(
            "service_ingest_rejected_total", reason="backpressure"
        )
        self.rejected_down = registry.counter(
            "service_ingest_rejected_total", reason="shard_down"
        )
        # The third leg of the write-outcome accounting: accepted, but
        # on fewer than R live replicas (the missing copies are hinted).
        self.degraded = registry.counter("service_ingest_degraded_total")
        self.hints_stored = registry.counter(
            "service_hints_total", outcome="stored"
        )
        self.hints_replayed = registry.counter(
            "service_hints_total", outcome="replayed"
        )
        self.hints_dropped = registry.counter(
            "service_hints_total", outcome="dropped"
        )
        # Replication lag, measured in observations a dead replica is
        # owed; drained back to zero by the rejoin sync.
        self.hint_backlog = registry.gauge("service_hint_backlog")
        self.reads_partial = registry.counter(
            "service_reads_degraded_total", mode="partial"
        )
        self.reads_stale = registry.counter(
            "service_reads_degraded_total", mode="stale"
        )
        self.syncing = registry.gauge("service_replicas_syncing")
        self.queries = registry.counter("service_queries_total")
        self.respawns_crashed = registry.counter(
            "service_shard_respawns_total", reason="crashed"
        )
        self.respawns_hung = registry.counter(
            "service_shard_respawns_total", reason="hung"
        )
        self.shards = registry.gauge("service_shards")
        self.unhealthy = registry.gauge("service_shards_unhealthy")
        # SLO instruments, refreshed each supervision cycle from the
        # HTTP layer's request histograms/counters (see _update_slos).
        self.request_p99 = registry.gauge("service_request_p99_seconds")
        self.error_ratio = registry.meter("service_error_ratio")


class ServiceRunner:
    """Own the shard fleet; route ingest and queries; survive deaths.

    ``metrics``/``events``/``tracer`` attach the usual registry,
    structured log, and span tracer (the HTTP layer parents a ``route``
    → ``shard.rpc`` → grafted ``engine.ingest`` chain under each
    request); ``alert_rules`` (see
    :func:`repro.obs.alerts.default_service_rules`) are evaluated over
    the live fleet aggregate every supervision cycle.  The runner is
    thread-safe: the asyncio API layer calls it from executor threads
    while the supervision thread respawns shards underneath.
    """

    def __init__(
        self,
        config: ServiceConfig,
        metrics=None,
        events=None,
        alert_rules=None,
        tracer=None,
    ) -> None:
        self.config = config
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.events = NULL_EVENT_LOG if events is None else events
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._m = _ServiceMetrics(self.metrics)
        # (errors, total) request counts at the last SLO cycle, so the
        # error-ratio meter sees per-cycle deltas, not lifetime sums.
        self._last_requests = (0.0, 0.0)
        self._alert_rules = tuple(alert_rules) if alert_rules else ()
        self.alerts: AlertEngine | None = None
        self.history: MetricsHistory | None = None
        self.incidents: IncidentRecorder | None = None
        # Incident-capture state: the service event ring (bound into
        # the logger so every record tees through it) and one flight
        # recorder per worker, fed from telemetry deltas.
        self._event_ring: FlightRecorder | None = None
        self._flights: dict[int, FlightRecorder] = {}
        self.fleet = FleetView()
        self.ring = HashRing(
            range(config.n_shards),
            replicas=config.ring_replicas,
            seed=config.seed,
        )
        self.run_id: str | None = None
        self.started_monotonic: float | None = None
        self._slots = [_Slot(i) for i in range(config.n_shards)]
        self._ctx = multiprocessing.get_context(config.mp_context)
        self._heartbeat = self._ctx.Array(
            "d", config.n_shards, lock=False
        )
        self._supervisor = SlotSupervisor(
            deadline_s=config.shard_deadline_s,
            backoff=config.respawn_backoff,
            rejoin=self._rejoin,
        )
        self._fleet_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._running = False
        self.drain_report: dict | None = None
        # Write-path state.  The ingest lock serializes seq assignment
        # *and* dispatch, so every shard sees every destination stream
        # in assignment order; the rejoin sync takes the same lock for
        # its final hint round, so a healing shard can never miss a
        # concurrent write.
        self._ingest_lock = threading.Lock()
        self._next_seq: dict[int, int] = {}
        # block id -> replica chain; the ring is fixed at start, so the
        # cache is append-only and safe to share across threads.
        self._chains: dict[int, tuple[int, ...]] = {}
        # (holder, target) -> hints parked at holder for target; the
        # runner initiates every store and ack, so this mirror is exact
        # while holders live (a reaped holder zeroes its rows and marks
        # the targets stale).
        self._hint_counts: dict[tuple[int, int], int] = {}
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> dict:
        """Spawn and recover every shard; start supervision.

        Returns per-shard ready info (journal recovery counts) — a
        restarted service reports how much state each shard replayed.
        """
        if self._running:
            raise RuntimeError("service is already running")
        self.run_id = uuid.uuid4().hex[:12]
        if self.config.incidents is not None:
            self._event_ring = FlightRecorder()
            self.events = self.events.bind(
                run_id=self.run_id, ring=self._event_ring
            )
        else:
            self.events = self.events.bind(run_id=self.run_id)
        self.alerts = (
            AlertEngine(self._alert_rules, events=self.events,
                        metrics=self.metrics)
            if self._alert_rules
            else None
        )
        self._init_history()
        if self.config.incidents is not None:
            self.incidents = IncidentRecorder(
                self.config.incidents,
                history=self.history,
                ring=self._event_ring,
                events=self.events,
            )
        Path(self.config.journal_dir).mkdir(parents=True, exist_ok=True)
        ready: dict[int, dict] = {}
        for slot in self._slots:
            slot.client = self._spawn(slot.shard_id)
            info = slot.client.wait_ready()
            slot.healthy = True
            self._supervisor.beat(slot.shard_id)
            ready[slot.shard_id] = info
            # Every destination stream resumes past its journal
            # high-water, so a restarted service never assigns a seq
            # the worker's idempotence mask would silently drop.
            self._next_seq[slot.shard_id] = int(info["last_seq"]) + 1
            self.events.info(
                "service.shard_ready",
                shard_id=slot.shard_id,
                pid=info["pid"],
                n_replayed=info["n_replayed"],
                truncated_bytes=info["truncated_bytes"],
            )
        # Ingest RPCs block on journal write-ahead + admission per
        # destination; dispatching them in parallel keeps a write's
        # cost near its slowest destination, not the sum.
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.n_shards,
            thread_name_prefix="service-fanout",
        )
        self._m.shards.set(self.config.n_shards)
        self._m.unhealthy.set(0)
        self._running = True
        self.started_monotonic = time.monotonic()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._supervise_loop,
            name="service-supervisor",
            daemon=True,
        )
        self._thread.start()
        self.events.info(
            "service.started",
            n_shards=self.config.n_shards,
            seed=self.config.seed,
            journal_dir=str(self.config.journal_dir),
        )
        return ready

    def stop(self, drain: bool = True) -> dict | None:
        """SIGTERM path: supervision off, drain, manifest, workers out.

        The ordering is the graceful-shutdown contract: (1) the
        supervision thread stops first so it cannot respawn shards the
        shutdown is retiring; (2) each shard drains — admission queue
        pumped dry, due windows closed, journal flushed and fsynced —
        and reports its final stats; (3) the final service manifest is
        written next to the journals; (4) only then do workers exit.
        """
        if not self._running:
            return self.drain_report
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        report: dict | None = None
        if drain:
            report = self.drain()
        for slot in self._slots:
            with slot.lock:
                slot.healthy = False
                if slot.client is not None:
                    slot.client.stop()
        with self._ingest_lock:
            # Every slot is down now, so a write that takes the lock
            # after this plans no sends and never touches the pool.
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        self._m.shards.set(0)
        self._running = False
        self.events.info("service.stopped", drained=drain)
        return report

    def drain(self) -> dict:
        """Drain every healthy shard; write the final manifest.

        The hint queues flush *first* — forwarded through the normal
        ingest path when the owed shard is alive, appended straight
        into its journal file when it is dead — so the final manifest
        never strands an acked observation copy in a worker's memory.
        """
        hints_flushed = self._flush_all_hints()
        shards: dict[int, dict] = {}
        for slot in self._slots:
            with slot.lock:
                if not slot.healthy or slot.client is None:
                    shards[slot.shard_id] = {"drained": False}
                    continue
                try:
                    stats = slot.client.drain()
                except (ShardDownError, ShardTimeoutError) as error:
                    slot.healthy = False
                    shards[slot.shard_id] = {
                        "drained": False, "error": str(error)
                    }
                    continue
            stats["drained"] = True
            shards[slot.shard_id] = stats
            self.events.info(
                "service.shard_drained",
                shard_id=slot.shard_id,
                depth=stats["depth"],
                journal_last_seq=stats["journal_last_seq"],
            )
        manifest = self.manifest(shards={str(k): v for k, v in shards.items()})
        manifest_path = Path(self.config.journal_dir) / "service-manifest.json"
        manifest.save(manifest_path)
        self.drain_report = {
            "shards": shards,
            "hints_flushed": hints_flushed,
            "manifest_path": str(manifest_path),
        }
        if self.history is not None:
            # Final state capture (throttle bypassed — the drained
            # figures must be the file's newest points), then persist
            # through the atomic-write idiom so the next start reloads
            # exactly this window.
            self._record_history(
                self.fleet_registry(), time.time(), force=True
            )
            history_path = self.history.save(self.config.history_path)
            self.drain_report["history_path"] = str(history_path)
        return self.drain_report

    def manifest(self, **extra) -> RunManifest:
        """Telemetry manifest over the fleet aggregate."""
        return RunManifest.capture(
            kind="service",
            registry=self.fleet_registry(),
            seed=self.config.seed,
            n_blocks=None,
            quality_gates={},
            run_id=self.run_id,
            n_shards=self.config.n_shards,
            journal_dir=str(self.config.journal_dir),
            respawns=self._supervisor.n_respawns,
            **extra,
        )

    # -- routing and ingest ------------------------------------------------

    def owner(self, block_id: int) -> int:
        """The shard id the ring assigns this block (chain entry 0)."""
        return self._chain(int(block_id))[0]

    def owners(self, block_id: int) -> tuple[int, ...]:
        """The block's replica chain: ``replication`` distinct shards."""
        return self._chain(int(block_id))

    def _chain(self, block_id: int) -> tuple[int, ...]:
        chain = self._chains.get(block_id)
        if chain is None:
            chain = tuple(
                self.ring.lookup_chain(block_id, self.config.replication)
            )
            self._chains[block_id] = chain
        return chain

    def ingest(self, observations, parent_context=None) -> dict:
        """Route ``(block_id, time_s, value)`` triples to their replicas.

        Every write takes one path: each observation goes to every live
        shard of its replica chain (one shard at R=1), each copy
        carrying a seq from its destination shard's stream.  Three
        outcomes, all explicit in the report: *accepted* (at least one
        live replica acked the copy; missing replicas are hinted and
        the write counts as ``degraded`` when fewer than R acked),
        *backpressure* (some live replica of the chain is paused — the
        whole observation is rejected so replicas never diverge; the
        HTTP layer answers 429 + Retry-After until the queue drains
        below its low watermark), and *shard_down* (no live replica
        acked it — 503 semantics).  Within a shard, arrival order is
        preserved.

        ``parent_context`` (a :class:`~repro.obs.tracing.TraceContext`,
        normally the HTTP layer's ``http.request`` span) parents a
        ``route`` span covering the whole call, with one ``shard.rpc``
        child per destination whose context rides the ingest RPC — the
        shard worker's ``engine.ingest`` span comes home via telemetry
        delta and grafts into the same trace.
        """
        route_span = self.tracer.begin(
            "route", parent_context=parent_context,
            replication=self.config.replication,
        )
        obs = list(observations)
        with self._ingest_lock:
            report = self._ingest_chains(obs, route_span)
        if route_span is not None:
            route_span.attrs.update(
                n_obs=len(obs), n_shards=len(report["shards"])
            )
        self.tracer.end(route_span)
        if route_span is not None:
            self.events.info(
                "service.route",
                trace_id=route_span.trace_id,
                span_id=route_span.span_id,
                parent_span_id=route_span.parent_span_id,
                n_obs=len(obs),
                accepted=report["accepted"],
                rejected=report["rejected"],
                hinted=report["hinted"],
            )
        return report

    def _ingest_chains(self, obs: list, route_span) -> dict:
        """Plan seqs, fan out, resolve, hint (under ``_ingest_lock``)."""
        n = len(obs)
        report = {
            "accepted": 0,
            "rejected": 0,
            "hinted": 0,
            "backpressure": False,
            "down": False,
            "degraded": False,
            "shards": {},
        }
        per_shard = report["shards"]

        def shard_entry(sid: int) -> dict:
            return per_shard.setdefault(
                sid, {"accepted": 0, "rejected": 0, "reason": None}
            )

        # Plan: one pass in arrival order, listing each observation
        # under every member of its chain.  Health is read once, so a
        # shard's copies are all sends or all hints; a chain's verdict
        # is decided once per call.
        live = [slot.healthy for slot in self._slots]
        verdicts: dict[tuple[int, ...], tuple[str, int] | None] = {}
        paused_checked: set[int] = set()
        copies: dict[int, list[int]] = {}
        unplanned: list[int] = []
        chain_of = self._chain
        n_bp = 0
        for i, triple in enumerate(obs):
            chain = chain_of(int(triple[0]))
            if chain not in verdicts:
                verdicts[chain] = self._chain_verdict(
                    chain, live, paused_checked
                )
            verdict = verdicts[chain]
            if verdict is None:
                for sid in chain:
                    copies.setdefault(sid, []).append(i)
                continue
            reason, sid = verdict
            unplanned.append(i)
            n_bp += reason == "backpressure"
            entry = shard_entry(sid)
            entry["rejected"] += 1
            entry["reason"] = reason
        n_down = len(unplanned) - n_bp

        # Seqs: a shard's copies are consecutive in its destination
        # stream, dead destinations included — their copies become
        # hints carrying the seq the journal will expect.
        plans: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for sid, idx in copies.items():
            first = self._next_seq[sid]
            self._next_seq[sid] = first + len(idx)
            plans[sid] = (
                np.asarray(idx, dtype=np.intp),
                np.arange(first, first + len(idx), dtype=np.int64),
            )
        ids = np.fromiter((t[0] for t in obs), dtype=np.int64, count=n)
        times = np.fromiter((t[1] for t in obs), dtype=np.float64, count=n)
        values = np.fromiter((t[2] for t in obs), dtype=np.float64, count=n)
        sends = {sid: plan for sid, plan in plans.items() if live[sid]}
        results = self._dispatch(sends, ids, times, values, route_span)

        # Resolve per observation: accepted iff at least one live copy
        # was acked; degraded when fewer than R were.
        n_ok = np.zeros(n, dtype=np.int64)
        for sid, res in results.items():
            n_ok[sends[sid][0][: res["acked"]]] += 1
        planned = np.ones(n, dtype=bool)
        planned[unplanned] = False
        accepted = planned & (n_ok > 0)
        n_accepted = int(accepted.sum())
        n_degraded = int((accepted & (n_ok < self.config.replication)).sum())
        n_down += n - len(unplanned) - n_accepted
        report["accepted"] = n_accepted
        report["rejected"] = n - n_accepted
        report["backpressure"] = n_bp > 0
        report["down"] = n_down > 0
        report["degraded"] = n_degraded > 0
        self._m.ingested.inc(n_accepted)
        self._m.degraded.inc(n_degraded)
        self._m.rejected_bp.inc(n_bp)
        self._m.rejected_down.inc(n_down)

        # Owed copies: the whole plan of a dead destination, and the
        # un-acked tail of a batch whose replica died mid-dispatch (the
        # worker may have journaled a prefix of it — the seq mask on
        # replay/forward makes the overlap idempotent).  Only copies of
        # accepted observations are owed: a 503 is owed to no one.
        owed: list[tuple[int, np.ndarray, np.ndarray]] = []
        for sid, (idx, seqs) in plans.items():
            res = results.get(sid)
            if res is not None and not res["failed"]:
                entry = shard_entry(sid)
                entry["accepted"] += res["acked"]
                entry["depth"] = res["depth"]
                entry["paused"] = res["paused"]
                continue
            acked = 0
            if res is not None:
                acked = res["acked"]
                entry = shard_entry(sid)
                entry["accepted"] += acked
                entry["rejected"] += len(idx) - acked
                entry["reason"] = "shard_down"
            keep = accepted[idx[acked:]]
            if keep.any():
                owed.append((sid, idx[acked:][keep], seqs[acked:][keep]))
        report["hinted"] = self._store_hints(owed, ids, times, values)
        return report

    def _chain_verdict(
        self, chain: tuple[int, ...], live: list[bool], paused_checked: set
    ) -> tuple[str, int] | None:
        """``None`` when ``chain`` can take a write, else the rejection
        reason and the shard it is booked against."""
        members = [sid for sid in chain if live[sid]]
        if not members:
            return "shard_down", chain[0]
        for sid in members:
            slot = self._slots[sid]
            if slot.paused and sid not in paused_checked:
                # Honor the shard's standing backpressure signal with
                # one stats round trip per call; the supervision cycle
                # and the next accepted batch refresh it too.
                self._refresh_paused(slot)
                paused_checked.add(sid)
            if slot.paused:
                # Rejecting the whole observation (not just the paused
                # replica's copy) keeps live replicas bit-identical;
                # hinting *through* backpressure would let a client
                # outrun the admission contract via dead shards.
                return "backpressure", sid
        return None

    def _refresh_paused(self, slot: _Slot) -> None:
        try:
            with slot.lock:
                if not slot.healthy or slot.client is None:
                    return
                stats = slot.client.stats()
            slot.paused = bool(stats["paused"])
        except (ShardDownError, ShardTimeoutError):
            slot.healthy = False

    def _dispatch(self, sends: dict, ids, times, values, route_span) -> dict:
        """Fan the planned batches out: the first destination's RPCs
        run in the calling thread, the rest on the pool, so a write
        costs about its slowest destination rather than the sum."""
        jobs = [
            (sid, ids[idx], times[idx], values[idx], seqs, route_span)
            for sid, (idx, seqs) in sends.items()
        ]
        if not jobs:
            return {}
        futures = [(job[0], self._pool.submit(self._send, *job))
                   for job in jobs[1:]]
        results = {jobs[0][0]: self._send(*jobs[0])}
        for sid, future in futures:
            results[sid] = future.result()
        return results

    def _send(
        self, shard_id: int, ids, times, values, seqs, route_span=None
    ) -> dict:
        """One destination's ingest RPCs under a ``shard.rpc`` span."""
        slot = self._slots[shard_id]
        n = len(seqs)
        rpc_span = self.tracer.begin(
            "shard.rpc", parent=route_span, shard_id=shard_id, n=n
        )
        rpc_ctx = rpc_span.context.to_dict() if rpc_span is not None else None
        acked = 0
        ack: dict | None = None
        failed = False
        try:
            with slot.lock:
                if not slot.healthy or slot.client is None:
                    raise ShardDownError(f"shard {shard_id} is down")
                for acked, ack in self._ingest_chunks(
                    slot.client, ids, times, values, seqs, rpc_ctx
                ):
                    pass
        except (ShardDownError, ShardTimeoutError):
            slot.healthy = False
            failed = True
        self.tracer.end(rpc_span, parent=route_span)
        if rpc_span is not None:
            self.events.info(
                "service.shard_rpc",
                trace_id=rpc_span.trace_id,
                span_id=rpc_span.span_id,
                parent_span_id=rpc_span.parent_span_id,
                shard_id=shard_id,
                n=n,
                accepted=acked,
            )
        if not failed and ack is not None:
            slot.paused = bool(ack["paused"])
        return {
            "acked": acked,
            "failed": failed,
            "depth": ack["depth"] if ack is not None else 0,
            "paused": slot.paused,
        }

    def _ingest_chunks(
        self, client: ShardClient, ids, times, values, seqs,
        trace_context=None,
    ):
        """Ship one destination's batch as ``max_batch``-sized ingest
        RPCs, yielding ``(n_acked, ack)`` after each — a caller that
        loses the shard mid-batch still knows the acked prefix."""
        n = len(seqs)
        for start in range(0, n, self.config.max_batch):
            end = min(start + self.config.max_batch, n)
            ack = client.ingest(
                ids[start:end], times[start:end], values[start:end],
                seqs=seqs[start:end], trace_context=trace_context,
            )
            yield end, ack

    def _store_hints(self, owed: list, ids, times, values) -> int:
        """Park copies owed to dead replicas at their chain's first
        live shard; a copy with no live holder is *dropped* and its
        target marked stale (never silently lost)."""
        if not owed:
            return 0
        # (holder, target) -> (observation rows, seqs), in seq order.
        batches: dict[tuple[int, int], tuple[list, list]] = {}
        for target, idx, seqs in owed:
            for i, seq in zip(idx.tolist(), seqs.tolist()):
                holder = next(
                    (s for s in self._chain(int(ids[i]))
                     if s != target and self._slots[s].healthy),
                    None,
                )
                if holder is None:
                    self._m.hints_dropped.inc()
                    self._slots[target].stale = True
                    continue
                rows, hint_seqs = batches.setdefault(
                    (holder, target), ([], [])
                )
                rows.append(i)
                hint_seqs.append(seq)
        stored_total = 0
        for (holder_id, target), (rows, hint_seqs) in sorted(batches.items()):
            holder = self._slots[holder_id]
            try:
                with holder.lock:
                    if not holder.healthy or holder.client is None:
                        raise ShardDownError(f"shard {holder_id} is down")
                    res = holder.client.store_hints(
                        target,
                        ids[rows].tolist(),
                        times[rows].tolist(),
                        values[rows].tolist(),
                        hint_seqs,
                    )
            except (ShardDownError, ShardTimeoutError):
                holder.healthy = False
                self._m.hints_dropped.inc(len(rows))
                self._slots[target].stale = True
                continue
            stored_total += res["stored"]
            self._m.hints_stored.inc(res["stored"])
            if res["dropped"]:
                # Holder at capacity: the tail is gone for good, the
                # target will be behind even after its rejoin sync.
                self._m.hints_dropped.inc(res["dropped"])
                self._slots[target].stale = True
                self.events.warning(
                    "service.hints_dropped",
                    holder=holder_id,
                    target=target,
                    dropped=res["dropped"],
                )
            key = (holder_id, target)
            self._hint_counts[key] = (
                self._hint_counts.get(key, 0) + res["stored"]
            )
        self._m.hint_backlog.set(sum(self._hint_counts.values()))
        return stored_total

    # -- queries -----------------------------------------------------------

    def query_block(self, block_id: int) -> dict | None:
        """The freshest live snapshot (None for untracked blocks).

        Raises :class:`ShardDownError` only when *every* replica in
        the block's chain is out of the ring — the caller serves 503 +
        Retry-After rather than a stale or empty answer.
        """
        return self.query_block_ex(block_id)["snapshot"]

    def query_block_ex(self, block_id: int) -> dict:
        """Quorum read across the block's replica chain.

        Every live replica is asked; the freshest answer wins, where
        freshness is the per-block applied-observation count (replica
        seq streams are per-shard and not comparable).  The result is
        explicit about degradation: ``partial`` when fewer than R
        replicas answered, ``stale`` when every answering replica has
        known-dropped hints (its copy may be behind forever).  A
        replica that answered ``None`` simply does not track the block
        yet — a data answer from any replica outranks it.
        """
        chain = self._chain(int(block_id))
        self._m.queries.inc()
        answers: list[tuple[int, dict | None, bool]] = []
        for shard_id in chain:
            slot = self._slots[shard_id]
            with slot.lock:
                if not slot.healthy or slot.client is None:
                    continue
                try:
                    snap = slot.client.query_block(block_id)
                except (ShardDownError, ShardTimeoutError):
                    slot.healthy = False
                    continue
            answers.append((shard_id, snap, slot.stale))
        if not answers:
            raise ShardDownError(
                f"all {len(chain)} replicas of block {block_id} "
                f"(shards {list(chain)}) are down"
            )
        # Prefer fresh (non-stale) replicas; fall back to stale ones
        # with the stale flag raised.
        fresh = [a for a in answers if not a[2]]
        candidates = fresh or answers
        best: dict | None = None
        for _, snap, _ in candidates:
            if snap is None:
                continue
            if best is None or (
                snap.get("n_observations", 0)
                > best.get("n_observations", 0)
            ):
                best = snap
        partial = len(answers) < len(chain)
        stale = not fresh
        if partial:
            self._m.reads_partial.inc()
        if stale:
            self._m.reads_stale.inc()
        return {
            "snapshot": best,
            "replication": len(chain),
            "replicas_answered": len(answers),
            "partial": partial,
            "stale": stale,
        }

    def phase_map(self) -> dict:
        """Merged diurnal phase map across healthy shards.

        Under replication a block appears on every live replica of its
        chain; the freshest entry (highest applied-observation count)
        wins the merge, so one dead shard costs nothing.  ``partial``
        is true only when enough shards are missing that some block
        may have lost its *entire* chain (``missing >= R``) — the map
        is still served (an outage monitor prefers a flagged partial
        answer over none), with the missing shards named.
        """
        self._m.queries.inc()
        blocks: dict[int, dict] = {}
        missing: list[int] = []
        for slot in self._slots:
            with slot.lock:
                if not slot.healthy or slot.client is None:
                    missing.append(slot.shard_id)
                    continue
                try:
                    shard_map = slot.client.phase_map()
                except (ShardDownError, ShardTimeoutError):
                    slot.healthy = False
                    missing.append(slot.shard_id)
                    continue
            for block_id, entry in shard_map.items():
                current = blocks.get(block_id)
                if current is None or (
                    entry.get("n_observations", 0)
                    > current.get("n_observations", 0)
                ):
                    blocks[block_id] = entry
        return {
            "blocks": blocks,
            "partial": len(missing) >= self.config.replication,
            "missing_shards": missing,
            "replication": self.config.replication,
        }

    def fleet_snapshot(self) -> dict:
        """Operational view: ring, per-shard health/stats, respawns."""
        shards = {}
        for slot in self._slots:
            entry: dict = {
                "healthy": slot.healthy,
                "respawns": slot.respawns,
                "paused": slot.paused,
                "stale": slot.stale,
            }
            with slot.lock:
                client = slot.client
                if slot.healthy and client is not None:
                    entry["pid"] = client.pid
                    try:
                        entry["stats"] = client.stats()
                    except (ShardDownError, ShardTimeoutError):
                        slot.healthy = False
                        entry["healthy"] = False
            shards[str(slot.shard_id)] = entry
        return {
            "run_id": self.run_id,
            "n_shards": self.config.n_shards,
            "replication": self.config.replication,
            "hint_backlog": sum(self._hint_counts.values()),
            "ring_replicas": self.config.ring_replicas,
            "seed": self.config.seed,
            "uptime_s": (
                time.monotonic() - self.started_monotonic
                if self.started_monotonic is not None
                else 0.0
            ),
            "respawns": self._supervisor.n_respawns,
            "alerts_firing": (
                self.alerts.firing() if self.alerts is not None else []
            ),
            "shards": shards,
        }

    def flush(self, close_partial: bool = False) -> dict:
        """Close every due window on every healthy shard (test/admin)."""
        out = {}
        for slot in self._slots:
            with slot.lock:
                if slot.healthy and slot.client is not None:
                    out[slot.shard_id] = slot.client.flush(close_partial)
        return out

    @property
    def healthy(self) -> bool:
        return self._running and all(s.healthy for s in self._slots)

    @property
    def running(self) -> bool:
        return self._running

    # -- telemetry ---------------------------------------------------------

    def fleet_registry(self):
        """Aggregate registry: every shard plus the runner's own."""
        with self._fleet_lock:
            return self.fleet.aggregate(self.metrics)

    def metrics_text(self) -> str:
        return prometheus_text(self.fleet_registry())

    def metrics_json(self) -> dict:
        snap = json_snapshot(self.fleet_registry())
        snap["service"] = {
            "run_id": self.run_id,
            "respawns": self._supervisor.n_respawns,
            "n_deltas": self.fleet.n_deltas,
        }
        return snap

    def _on_delta(self, delta) -> None:
        with self._fleet_lock:
            applied = self.fleet.apply(delta)
        if applied:
            for span_data in delta.spans:
                # Worker span trees (engine.ingest and friends) land as
                # local roots; they already carry the request trace_id
                # and name their shard.rpc parent, so trace_spans()
                # stitches them back under the HTTP request.
                self.tracer.graft(span_data)
            for record in delta.events:
                self.events.emit(record)
            if self.config.incidents is not None:
                flight = self._flights.get(delta.worker_id)
                if flight is None:
                    flight = FlightRecorder()
                    self._flights[delta.worker_id] = flight
                for record in delta.events:
                    flight.append(record)
                flight.sample(delta.metrics)

    def _init_history(self) -> None:
        """Build (or reload) the telemetry time-series store.

        A previous drain's persisted history seeds the new store, so a
        restart keeps the trend lines it was paged about; a corrupt or
        incompatible file is reported and replaced, never fatal.
        """
        if self.config.history is None:
            self.history = None
            return
        path = self.config.history_path
        if path.exists():
            try:
                self.history = MetricsHistory.load(
                    path, config=self.config.history
                )
                self.events.info(
                    "service.history_loaded",
                    path=str(path),
                    n_samples=self.history.n_samples,
                )
                return
            except (OSError, ValueError, KeyError, TypeError) as error:
                self.events.warning(
                    "service.history_load_failed",
                    path=str(path),
                    error=str(error),
                )
        self.history = MetricsHistory(self.config.history)

    def _record_history(self, registry, now: float,
                        force: bool = False) -> None:
        """One observation instant: fleet sample + derived series.

        The derived series exist nowhere in the aggregate — worker
        metrics are unlabeled sums — so the runner appends its own
        per-shard health flags and replication lag, gated on the same
        throttle decision as the registry sample (one instant, one
        timestamp, everything or nothing).
        """
        if self.history is None:
            return
        if not self.history.sample(registry, now, force=force):
            return
        try:
            counts = dict(self._hint_counts)
        except RuntimeError:
            # Lost the race with a concurrent resize; skip the lag
            # series this instant rather than stall the loop.
            counts = {}
        owed: dict[int, int] = {}
        for (_holder, target), n in counts.items():
            owed[target] = owed.get(target, 0) + n
        for slot in self._slots:
            shard = str(slot.shard_id)
            self.history.append(
                "service_shard_healthy", now,
                1.0 if slot.healthy else 0.0, labels={"shard": shard},
            )
            self.history.append(
                "service_shard_hint_lag", now,
                float(owed.get(slot.shard_id, 0)),
                labels={"shard": shard},
            )

    # -- supervision -------------------------------------------------------

    def kill_shard(self, shard_id: int) -> None:
        """Chaos hook: hard-kill one shard (no drain, no journal flush).

        The supervision loop observes the death, respawns the worker,
        replays its journal, and rejoins it to the ring — exactly the
        path a production OOM kill takes.
        """
        slot = self._slots[shard_id]
        with slot.lock:
            slot.healthy = False
            if slot.client is not None:
                slot.client.kill()
        self.events.warning("service.shard_killed", shard_id=shard_id)

    def wait_healthy(self, timeout_s: float = 30.0) -> bool:
        """Block until every shard is back in the ring (tests/smoke)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.healthy:
                return True
            time.sleep(0.02)
        return self.healthy

    def _rejoin(self, shard_id: int) -> None:
        """SlotSupervisor rejoin hook: the shard is back in the ring."""
        self.events.info("service.shard_rejoined", shard_id=shard_id)

    # -- hinted handoff ----------------------------------------------------

    def _sync_hints(self, slot: _Slot, client: ShardClient) -> dict:
        """Drain every hint owed to a respawned shard, then heal it.

        Free-running rounds forward the bulk without blocking writers;
        the final round holds ``_ingest_lock`` so nothing can slip in
        between the last peek and the shard turning healthy — writers
        see a latency blip, never an error.  Forwards go through the
        normal ingest RPC, so the seq mask drops anything the shard's
        journal already had (e.g. the journaled prefix of a half-acked
        batch that was retro-hinted).
        """
        shard_id = slot.shard_id
        self._m.syncing.set(1)
        self.events.info("service.hint_sync_started", shard_id=shard_id)
        replayed = rounds = 0
        try:
            while rounds < 64:
                rounds += 1
                n = self._forward_hints(shard_id, client)
                replayed += n
                if n == 0:
                    break
            with self._ingest_lock:
                while True:
                    n = self._forward_hints(shard_id, client)
                    replayed += n
                    if n == 0:
                        break
                with slot.lock:
                    slot.healthy = True
                    slot.paused = False
        finally:
            self._m.syncing.set(0)
        self.events.info(
            "service.hint_sync_done",
            shard_id=shard_id,
            replayed=replayed,
            rounds=rounds,
        )
        return {"replayed": replayed, "rounds": rounds}

    def _forward_hints(self, target: int, client: ShardClient) -> int:
        """One sync round: forward up to ``max_batch`` hints per holder
        through the normal (seq-masked) ingest RPC."""

        def forward(ids, times, values, seqs) -> None:
            for _ in self._ingest_chunks(client, ids, times, values, seqs):
                pass

        return self._move_hints(target, self.config.max_batch, forward)

    def _move_hints(self, target: int, max_n: int, deliver) -> int:
        """Peek every live holder's hints for ``target`` (``max_n``
        each), merge them by seq, hand the columns to ``deliver``, then
        ack — destructive only after the delivery succeeded."""
        collected: list[tuple[int, int, float, float]] = []
        acks: list[tuple[_Slot, int, int]] = []  # (holder, upto, count)
        for holder in self._slots:
            if holder.shard_id == target:
                continue
            with holder.lock:
                if not holder.healthy or holder.client is None:
                    continue
                try:
                    peek = holder.client.peek_hints(target, max_n)
                except (ShardDownError, ShardTimeoutError):
                    holder.healthy = False
                    continue
            if peek["seqs"]:
                collected.extend(
                    zip(peek["seqs"], peek["block_ids"],
                        peek["times"], peek["values"])
                )
                acks.append((holder, peek["seqs"][-1], len(peek["seqs"])))
        if not collected:
            return 0
        collected.sort()
        seqs, ids, times, values = (
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(
                zip(*collected),
                (np.int64, np.int64, np.float64, np.float64),
            )
        )
        deliver(ids, times, values, seqs)
        for holder, upto, count in acks:
            try:
                with holder.lock:
                    if not holder.healthy or holder.client is None:
                        continue
                    holder.client.ack_hints(target, upto)
            except (ShardDownError, ShardTimeoutError):
                holder.healthy = False
                continue
            key = (holder.shard_id, target)
            self._hint_counts[key] = max(
                0, self._hint_counts.get(key, 0) - count
            )
        self._m.hints_replayed.inc(len(collected))
        self._m.hint_backlog.set(sum(self._hint_counts.values()))
        return len(collected)

    def _reap_held_hints(self, shard_id: int) -> None:
        """A dying shard takes its *held* hints with it: zero the
        mirror rows and mark the owed targets stale (their catch-up
        data is gone until an out-of-band anti-entropy pass)."""
        for (holder, target), count in list(self._hint_counts.items()):
            if holder != shard_id or count == 0:
                continue
            self._m.hints_dropped.inc(count)
            self._slots[target].stale = True
            self._hint_counts[(holder, target)] = 0
            self.events.warning(
                "service.hints_lost_with_holder",
                holder=holder,
                target=target,
                dropped=count,
            )
        self._m.hint_backlog.set(sum(self._hint_counts.values()))

    def _flush_all_hints(self) -> dict[int, int]:
        """Drain-time flush: no hint survives only in worker memory.

        Live targets get their hints through the normal ingest path
        (then drain their own journals as usual); dead targets get
        them appended straight into their on-disk journal with the
        seqs the runner already assigned, so the next start's replay
        recovers them.  Runs after supervision has stopped — no
        respawn can race the direct journal append.
        """
        flushed: dict[int, int] = {}
        for slot in self._slots:
            target = slot.shard_id
            total = 0
            alive = slot.healthy and slot.client is not None
            if alive:
                while True:
                    try:
                        n = self._forward_hints(target, slot.client)
                    except (ShardDownError, ShardTimeoutError):
                        slot.healthy = False
                        alive = False
                        break
                    total += n
                    if n == 0:
                        break
            if not alive:
                total += self._append_hints_to_journal(target)
            if total:
                flushed[target] = total
                self.events.info(
                    "service.hints_flushed", shard_id=target, n=total
                )
        return flushed

    def _append_hints_to_journal(self, target: int) -> int:
        """Write a dead shard's owed hints into its journal file.

        The worker is gone, so the file is free; the journal's own
        recovery truncates any torn tail and reports the high-water,
        and only seqs past it are appended — replay on the next start
        is then exactly the uninterrupted stream.
        """

        def append(ids, times, values, seqs) -> None:
            journal = StreamJournal(
                self.config.journal_path(target), sync_every=None
            )
            try:
                keep = seqs > journal.next_seq - 1
                if keep.any():
                    journal.append_many(
                        ids[keep], times[keep], values[keep],
                        seqs=seqs[keep],
                    )
                journal.flush()
            finally:
                journal.close()

        return self._move_hints(target, self.config.hint_capacity, append)

    def _supervise_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        while not self._stop_event.wait(interval):
            for slot in self._slots:
                if self._stop_event.is_set():
                    return
                client = slot.client
                if client is None:
                    continue
                if slot.healthy:
                    self._supervisor.beat(
                        slot.shard_id, at=self._heartbeat[slot.shard_id]
                    )
                dead = not client.alive
                stale = (
                    not dead
                    and slot.healthy
                    and self._supervisor.stale(slot.shard_id)
                )
                if dead or stale or not slot.healthy:
                    # Unhealthy covers slots failed mid-RPC whose
                    # process still runs: the pipe state is torn, so
                    # reap and respawn either way.
                    self._respawn(slot, "crashed" if dead else "hung")
                elif (
                    not slot.settled
                    and time.monotonic() - slot.respawned_at
                    > self.config.settle_s
                ):
                    slot.settled = True
                    self._supervisor.mark_alive(slot.shard_id)
            self._evaluate_alerts()

    def _evaluate_alerts(self) -> None:
        """The per-cycle observe step: SLOs, history, alerts, incidents.

        One fleet aggregate is computed and shared by every consumer —
        the history sample, the alert evaluation, and any incident
        capture all describe the *same* instant, which is what lets an
        incident manifest's values be cross-checked against the
        history window it ships with.
        """
        self._update_slos()
        n_unhealthy = sum(1 for s in self._slots if not s.healthy)
        self._m.unhealthy.set(n_unhealthy)
        if (self.alerts is None and self.history is None
                and self.incidents is None):
            return
        now = time.time()
        registry = self.fleet_registry()
        self._record_history(registry, now)
        transitions = (
            self.alerts.evaluate(registry, self.history)
            if self.alerts is not None else ()
        )
        if self.incidents is not None and transitions:
            self.incidents.observe(
                transitions,
                flights=self._flights,
                registry=registry,
                now=now,
            )

    def _update_slos(self) -> None:
        """Fold request metrics into the SLO instruments, once per cycle.

        ``service_request_p99_seconds`` is the Prometheus-style quantile
        estimate over every ``service_request_seconds`` route histogram
        the HTTP layer has registered (lifetime buckets — monotone and
        cheap; the alert rule's ``for_cycles`` hysteresis supplies the
        windowing).  ``service_error_ratio`` is an EWMA meter fed the
        per-cycle 5xx/total delta — a burn rate, deliberately excluding
        429s, which are the backpressure contract working, not an error
        budget spend.
        """
        if not self._m.enabled:
            return
        hists = []
        errors = total = 0.0
        for metric in self.metrics.collect():
            if metric.name == "service_request_seconds":
                hists.append(metric)
            elif metric.name == "service_requests_total":
                total += metric.value
                if str(metric.labels.get("status", "")).startswith("5"):
                    errors += metric.value
        p99 = histogram_quantile(hists, 0.99)
        # nan = "no traffic yet"; the gauge reads 0.0 so JSON exports
        # stay strict-JSON-safe and the p99 alert cannot fire on idle.
        self._m.request_p99.set(0.0 if math.isnan(p99) else p99)
        d_errors = errors - self._last_requests[0]
        d_total = total - self._last_requests[1]
        self._last_requests = (errors, total)
        if d_total > 0:
            self._m.error_ratio.observe(d_errors / d_total)

    def _respawn(self, slot: _Slot, reason: str) -> None:
        shard_id = slot.shard_id
        (self._m.respawns_crashed if reason == "crashed"
         else self._m.respawns_hung).inc()
        self.events.warning(
            f"service.shard_{reason}",
            shard_id=shard_id,
            streak=self._supervisor.streak(shard_id) + 1,
        )
        with slot.lock:
            slot.healthy = False
            slot.paused = False
            if slot.client is not None:
                slot.client.kill()
                slot.client = None
        self._reap_held_hints(shard_id)
        self._m.unhealthy.set(sum(1 for s in self._slots if not s.healthy))
        delay = self._supervisor.respawn_delay(shard_id)
        if delay > 0:
            self.events.warning(
                "service.respawn_backoff", shard_id=shard_id, delay_s=delay
            )
            if self._stop_event.wait(delay):
                return
        client = self._spawn(shard_id)
        try:
            info = client.wait_ready()
        except (ShardDownError, ShardTimeoutError) as error:
            # The replacement died during recovery; leave the slot
            # unhealthy — the next supervision cycle tries again,
            # paced by the growing backoff streak.
            self.events.error(
                "service.shard_recovery_failed",
                shard_id=shard_id,
                error=str(error),
            )
            with slot.lock:
                slot.client = client  # dead client; alive=False re-triggers
            return
        # Anti-entropy before rejoin: journal replay restored the
        # pre-kill state; the hints parked at surviving replicas carry
        # everything accepted since (none at R=1).  The shard turns
        # healthy *inside* the sync's final write-gated round, so
        # rejoin is zero-downtime and loses nothing.
        with slot.lock:
            slot.client = client  # sync RPCs need it; still unhealthy
        try:
            sync = self._sync_hints(slot, client)
        except (ShardDownError, ShardTimeoutError) as error:
            self.events.error(
                "service.hint_sync_failed",
                shard_id=shard_id,
                error=str(error),
            )
            return  # dead/wedged client re-triggers the respawn path
        with slot.lock:
            slot.respawns += 1
            slot.respawned_at = time.monotonic()
            slot.settled = False
        self._supervisor.respawned(shard_id)
        self._m.unhealthy.set(sum(1 for s in self._slots if not s.healthy))
        self.events.info(
            "service.shard_respawned",
            shard_id=shard_id,
            reason=reason,
            pid=info["pid"],
            n_replayed=info["n_replayed"],
            hints_replayed=sync["replayed"],
        )

    def _spawn(self, shard_id: int) -> ShardClient:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._heartbeat[shard_id] = time.monotonic()
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                child_conn,
                self._heartbeat,
                shard_id,
                self.config.shard_config(),
                str(self.config.journal_path(shard_id)),
            ),
            daemon=True,
            name=f"serve-shard-{shard_id}",
        )
        process.start()
        child_conn.close()
        return ShardClient(
            shard_id,
            process,
            parent_conn,
            timeout_s=self.config.request_timeout_s,
            on_delta=self._on_delta if self.config.telemetry else None,
        )
