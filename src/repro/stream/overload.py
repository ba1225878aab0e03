"""Overload resilience for the streaming ingest path.

Outage monitors see their *worst* input exactly when the signal matters
most: a routing event or a planet-scale round generator can offer the
collector far more observations per second than it can absorb.  Before
this module the :class:`~repro.stream.engine.StreamEngine` ingested
unboundedly — a sustained burst either OOMed the process or stalled
every producer behind it.  This module makes overload a *managed*
condition with three cooperating pieces:

**Bounded ingest queue with watermark hysteresis.**  Producers submit
observations into a queue of at most ``capacity`` entries.  Crossing
``high_watermark`` asserts the backpressure signal; it stays asserted
until the queue drains back below ``low_watermark`` (hysteresis, so the
signal doesn't flap at the boundary).  Well-behaved producers — the
round generator via :func:`paced_replay`, the
:class:`~repro.core.supervisor.PoolRunner` dispatch loop via its
``backpressure`` hook — pause or slow production while the signal is up.

**Deterministic value-based shedding.**  If producers cannot slow down
(real packets keep arriving), the queue is never allowed past
``capacity``: an overflow triggers a shed episode that drops the
*lowest-value* queued observations until the queue is back at the low
watermark.  Value is scored in three tiers: mid-window samples of
long-stable blocks shed first (tier 0 — hold-fill reconstructs a flat
plateau almost perfectly), anything near a sleep/wake phase edge sheds
only after that (tier 1 — those samples pin the phase), and
observations for provisional, unknown, or already-degraded blocks shed
last (tier 2 — they are the only path to a first or recovered verdict).
Ties break by a CRC32 hash of ``(seed, block_id, round)``, so the shed
set is a pure function of the seed and the arrival/pump sequence —
bit-identical across runs, replayable in tests.

**Honest degradation.**  A shed observation simply never reaches the
ring, so the window it belonged to materializes with a gap: the
existing fill/quality machinery counts it, the classifier's quality
gate refuses heavily shed windows with the explicit
``insufficient-data`` verdict, and every affected close additionally
publishes a :class:`~repro.stream.events.ShedDegraded` event naming how
many observations the shedder took from that window.  Windows the
shedder did not touch keep exact bit-for-bit batch parity.

The controller is a drop-in engine: ``ingest``/``ingest_batch``/
``ingest_many``/``flush`` delegate straight through when the queue is
empty (the unloaded hot path is two integer increments and one branch),
so :meth:`~repro.core.pipeline.BatchResult.replay_into` and
:func:`~repro.stream.journal.replay_journal` work unchanged against it.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from repro.core.timeseries import round_index
from repro.obs.events import NULL_EVENT_LOG
from repro.obs.registry import NULL_REGISTRY
from repro.stream.events import ObservationShed, ShedDegraded, WindowClosed

__all__ = [
    "AdmissionController",
    "OverloadConfig",
    "ShedRecord",
    "paced_replay",
]


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs for the overload-resilience layer.

    Attributes:
        capacity: hard bound on queued (submitted but not yet ingested)
            observations; an overflow triggers a shed episode.
        high_watermark: queue fraction at which backpressure asserts.
        low_watermark: queue fraction below which backpressure releases
            (and the depth a shed episode drains back to).
        edge_guard_rounds: observations within this many rounds of a
            block's last sleep/wake edge are protected (tier 1).
        stable_closes: consecutive agreeing window closes before a block
            counts as long-stable (sheddable at tier 0).
        seed: tie-break seed; the shed set is a deterministic function
            of this seed and the arrival/pump sequence.
        shed_log_capacity: most recent shed decisions retained for
            inspection/replay comparison (the log is a bounded ring so a
            weeks-long soak cannot grow it without limit).
    """

    capacity: int = 4096
    high_watermark: float = 0.75
    low_watermark: float = 0.5
    edge_guard_rounds: int = 3
    stable_closes: int = 3
    seed: int = 0
    shed_log_capacity: int = 100_000

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < low_watermark < "
                "high_watermark <= 1"
            )
        if self.edge_guard_rounds < 0:
            raise ValueError("edge_guard_rounds must be non-negative")
        if self.stable_closes < 1:
            raise ValueError("stable_closes must be at least 1")
        if self.shed_log_capacity < 1:
            raise ValueError("shed_log_capacity must be positive")

    @property
    def high_depth(self) -> int:
        """Absolute queue depth at which backpressure asserts."""
        return ceil(self.high_watermark * self.capacity)

    @property
    def low_depth(self) -> int:
        """Absolute depth backpressure releases at (and sheds drain to)."""
        return floor(self.low_watermark * self.capacity)


@dataclass(frozen=True)
class ShedRecord:
    """One shed decision, exactly as replayable telemetry.

    ``seq`` is the controller-wide submission sequence number; two runs
    with the same seed and arrival/pump sequence produce identical
    record lists (the determinism tests compare them wholesale).
    """

    seq: int
    block_id: int
    round_index: int
    time_s: float
    value: float
    tier: int


class _OverloadMetrics:
    """Pre-bound overload metrics (null registry by default).

    ``stream_ingest_queue_depth`` and ``stream_shed_ratio`` are the two
    gauges :func:`repro.obs.alerts.default_pool_rules` watches.
    """

    __slots__ = ("enabled", "submitted", "serviced", "shed", "episodes",
                 "engagements", "engaged", "depth", "shed_ratio")

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.submitted = registry.counter("stream_submitted_total")
        self.serviced = registry.counter("stream_serviced_total")
        self.shed = tuple(
            registry.counter("stream_observations_shed_total", tier=str(t))
            for t in range(3)
        )
        self.episodes = registry.counter("stream_shed_episodes_total")
        self.engagements = registry.counter(
            "stream_backpressure_engagements_total"
        )
        self.engaged = registry.gauge("stream_backpressure_engaged")
        self.depth = registry.gauge("stream_ingest_queue_depth")
        self.shed_ratio = registry.gauge("stream_shed_ratio")


class _CloseWatcher:
    """Bus sink that flags window closes overlapping shed observations."""

    __slots__ = ("controller",)

    def __init__(self, controller: "AdmissionController") -> None:
        self.controller = controller

    def emit(self, event) -> None:
        if isinstance(event, WindowClosed):
            self.controller._on_close(event)


class AdmissionController:
    """Bounded, shedding, backpressure-signalling front of an engine.

    Two usage modes:

    * **decoupled** (overload-capable): producers call :meth:`submit`
      or :meth:`submit_batch`, a service loop calls :meth:`pump` with
      whatever per-cycle budget the hardware affords.  The queue
      absorbs bursts, backpressure tells producers to pause, and
      overflow sheds deterministically.
    * **drop-in** (synchronous): :meth:`ingest`/:meth:`ingest_batch`/
      :meth:`ingest_many`/:meth:`flush` mirror
      :class:`~repro.stream.engine.StreamEngine`, delegating directly
      when the queue is empty — replay helpers and journals that
      expect an engine work unchanged, at near-zero overhead while
      unloaded.

    ``metrics``/``events`` attach the usual registry/structured log;
    verdict-affecting behavior (what is shed, when) never depends on
    them.
    """

    def __init__(
        self,
        engine,
        config: OverloadConfig | None = None,
        metrics=None,
        events=None,
    ) -> None:
        self.engine = engine
        self.config = config or OverloadConfig()
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.events = NULL_EVENT_LOG if events is None else events
        self._m = _OverloadMetrics(self.metrics)
        # Queued observations as chunks of aligned columns (seqs, block
        # ids, times, values): arrays for a batch submit, lists for
        # per-observation submits; ``_head`` is how much of the first
        # chunk has been serviced.
        self._queue: deque = deque()
        self._head = 0
        self._depth = 0
        self._paused = False
        self._seq = 0
        self.n_submitted = 0
        self.n_serviced = 0
        self.n_shed = 0
        self.n_episodes = 0
        self.n_engagements = 0
        self.max_depth = 0
        self._synced_submitted = 0
        self._synced_serviced = 0
        self._high = self.config.high_depth
        self._low = self.config.low_depth
        self._shed_log: deque = deque(maxlen=self.config.shed_log_capacity)
        # block_id -> {round -> shed count}, pruned as windows close.
        self._shed_rounds: dict[int, dict[int, int]] = {}
        self._round_cap = max(
            1024, 4 * getattr(engine.config, "window_rounds", 256)
        )
        engine.bus.subscribe(_CloseWatcher(self))

    # -- producer side -----------------------------------------------------

    def submit(self, block_id: int, time_s: float, value: float) -> None:
        """Enqueue one observation (the decoupled producer API).

        Crossing the high watermark asserts backpressure; exceeding
        ``capacity`` triggers a deterministic shed episode that drains
        the queue back to the low watermark.  The queue therefore never
        holds more than ``capacity`` observations.
        """
        self._seq += 1
        self.n_submitted += 1
        queue = self._queue
        if not queue or not isinstance(queue[-1][0], list):
            queue.append(([], [], [], []))
        seqs, ids, times, values = queue[-1]
        seqs.append(self._seq)
        ids.append(block_id)
        times.append(float(time_s))
        values.append(float(value))
        self._depth += 1
        self._admitted()

    def submit_batch(self, block_ids, times, values) -> None:
        """Enqueue a batch in arrival order, exactly like one
        :meth:`submit` per observation.

        The batch goes in as slices that end where a per-observation
        submit would engage backpressure or overflow into a shed
        episode, so both happen at the same depth with the same queue.
        """
        ids = np.asarray(block_ids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if not ids.shape == times.shape == values.shape or ids.ndim != 1:
            raise ValueError(
                "block_ids, times and values must be aligned 1-d arrays"
            )
        start, m = 0, len(ids)
        while start < m:
            k = min(m - start, self.config.capacity + 1 - self._depth)
            if not self._paused:
                k = min(k, self._high - self._depth)
            k = max(k, 1)
            stop = start + k
            seqs = np.arange(self._seq + 1, self._seq + 1 + k, dtype=np.int64)
            self._queue.append(
                (seqs, ids[start:stop], times[start:stop], values[start:stop])
            )
            self._seq += k
            self.n_submitted += k
            self._depth += k
            self._admitted()
            start = stop

    def _admitted(self) -> None:
        """Depth bookkeeping after appending: engage, then shed."""
        depth = self._depth
        if depth > self.max_depth:
            self.max_depth = depth
        if depth >= self._high and not self._paused:
            self._engage(depth)
        if depth > self.config.capacity:
            self._shed_episode()

    def pump(self, budget: int | None = None) -> int:
        """Service up to ``budget`` queued observations into the engine.

        ``None`` drains everything.  The serviced prefix reaches the
        engine as one :meth:`StreamEngine.ingest_batch` call.  Releases
        backpressure when the drain brings the queue to or below the
        low watermark.  Returns the number of observations ingested.
        """
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        n = self._depth if budget is None else min(budget, self._depth)
        if n:
            self.engine.ingest_batch(*self._pop(n))
        self.n_serviced += n
        self._depth -= n
        if self._paused and self._depth <= self._low:
            self._release(self._depth)
        if n:
            self._sync()
        return n

    def _pop(self, n: int):
        """Remove the oldest ``n`` queued observations: (ids, times, values)."""
        queue = self._queue
        parts = []
        while n:
            chunk = queue[0]
            size = len(chunk[0]) - self._head
            take = min(size, n)
            lo, hi = self._head, self._head + take
            parts.append([column[lo:hi] for column in chunk[1:]])
            if take == size:
                queue.popleft()
                self._head = 0
            else:
                self._head = hi
            n -= take
        if len(parts) == 1:
            return parts[0]
        return [np.concatenate(column) for column in zip(*parts)]

    def backpressure(self) -> bool:
        """The admission signal producers honor by pausing production."""
        return self._paused

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def depth(self) -> int:
        return self._depth

    # -- drop-in engine interface ------------------------------------------

    def ingest(self, block_id: int, time_s: float, value: float) -> None:
        """Synchronous drop-in for ``StreamEngine.ingest``.

        With an empty queue this is a direct delegation (two integer
        increments and one branch of overhead — the unloaded hot path);
        with queued observations it preserves arrival order by going
        through the queue and draining it.
        """
        if self._depth:
            self.submit(block_id, time_s, value)
            self.pump()
            return
        self._seq += 1
        self.n_submitted += 1
        self.n_serviced += 1
        self.engine.ingest(block_id, time_s, value)

    def ingest_batch(self, block_ids, times, values) -> None:
        """Synchronous drop-in for ``StreamEngine.ingest_batch``."""
        if self._depth:
            self.submit_batch(block_ids, times, values)
            self.pump()
            return
        n = len(times)
        self._seq += n
        self.n_submitted += n
        self.n_serviced += n
        self.engine.ingest_batch(block_ids, times, values)

    def ingest_many(self, block_id: int, times, values) -> None:
        """Feed a batch for one block, in arrival order (drop-in)."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError("times and values must have the same shape")
        self.ingest_batch(
            np.full(times.shape, block_id, dtype=np.int64), times, values
        )

    def flush(
        self, block_id: int | None = None, close_partial: bool = False
    ) -> None:
        """Drain the queue fully, then flush the wrapped engine."""
        self.pump()
        self.engine.flush(block_id=block_id, close_partial=close_partial)
        self._sync()

    # -- inspection --------------------------------------------------------

    def shed_log(self) -> list[ShedRecord]:
        """The retained shed decisions, oldest first."""
        return list(self._shed_log)

    def shed_rounds(self, block_id: int) -> dict[int, int]:
        """Outstanding shed counts per round for one block (pre-prune)."""
        return dict(self._shed_rounds.get(block_id, {}))

    @property
    def shed_ratio(self) -> float:
        return self.n_shed / self.n_submitted if self.n_submitted else 0.0

    def stats(self) -> dict:
        """Operational snapshot (what the runbook asks operators for)."""
        return {
            "n_submitted": self.n_submitted,
            "n_serviced": self.n_serviced,
            "n_shed": self.n_shed,
            "n_episodes": self.n_episodes,
            "n_engagements": self.n_engagements,
            "shed_ratio": self.shed_ratio,
            "depth": self._depth,
            "max_depth": self.max_depth,
            "paused": self._paused,
        }

    # -- internals ---------------------------------------------------------

    def _sync(self) -> None:
        """Flush batched tallies into the registry (amortized hot path)."""
        d = self.n_submitted - self._synced_submitted
        if d:
            self._m.submitted.inc(d)
            self._synced_submitted = self.n_submitted
        d = self.n_serviced - self._synced_serviced
        if d:
            self._m.serviced.inc(d)
            self._synced_serviced = self.n_serviced
        if self._m.enabled:
            self._m.depth.set(self._depth)
            self._m.shed_ratio.set(self.shed_ratio)

    def _engage(self, depth: int) -> None:
        self._paused = True
        self.n_engagements += 1
        self._m.engagements.inc()
        self._m.engaged.set(1)
        self.events.warning(
            "stream.backpressure_engaged",
            depth=depth,
            high_depth=self._high,
        )

    def _release(self, depth: int) -> None:
        self._paused = False
        self._m.engaged.set(0)
        self.events.info(
            "stream.backpressure_released",
            depth=depth,
            low_depth=self._low,
        )

    def _score(self, entry, memo: dict) -> tuple[int, int, int]:
        """(tier, tie-break hash, round) for one queued observation.

        Lower tuples shed first.  Tier is derived from *public* engine
        state only (stable run length, last phase edge, provisional
        mean), so the score — and therefore the shed set — is a
        deterministic function of the seed and the observation history.
        """
        _, block_id, time_s, value = entry
        engine_config = self.engine.config
        r = int(
            round_index(time_s, engine_config.round_s, engine_config.start_s)
        )
        cached = memo.get(block_id)
        if cached is None:
            engine = self.engine
            if (
                not engine.tracked(block_id)
                or engine.stable_run(block_id) < self.config.stable_closes
            ):
                cached = (2, None, None)
            else:
                report = engine.last_report(block_id)
                if report is not None and not report.is_classified:
                    # Starving an already-degraded block would keep it
                    # degraded forever; its observations are the only
                    # path back to a verdict.
                    cached = (2, None, None)
                else:
                    prov = engine.provisional(block_id)
                    mean = prov.mean if prov.primed else None
                    cached = (0, engine.last_edge_round(block_id), mean)
            memo[block_id] = cached
        base_tier, edge_round, mean = cached
        tier = base_tier
        if base_tier == 0:
            if (
                edge_round is not None
                and abs(r - edge_round) <= self.config.edge_guard_rounds
            ):
                tier = 1
            elif (
                mean is not None
                and abs(value - mean) <= engine_config.edge_margin
            ):
                # Inside the midline dead band: this sample could be the
                # crossing that defines the next sleep/wake edge.
                tier = 1
        h = zlib.crc32(struct.pack("<qqq", self.config.seed, block_id, r))
        return tier, h, r

    def _shed_episode(self) -> None:
        entries = []
        for i, chunk in enumerate(self._queue):
            lo = self._head if i == 0 else 0
            columns = [
                column[lo:].tolist() if isinstance(column, np.ndarray)
                else column[lo:]
                for column in chunk
            ]
            entries.extend(zip(*columns))
        depth_before = len(entries)
        n_drop = depth_before - self._low
        memo: dict = {}
        keys = [self._score(entry, memo) for entry in entries]
        order = sorted(range(depth_before), key=keys.__getitem__)
        drop = set(order[:n_drop])
        kept = [entry for i, entry in enumerate(entries) if i not in drop]
        self._queue = deque([tuple(map(list, zip(*kept)))] if kept else [])
        self._head = 0
        self._depth = len(kept)
        tier_counts = [0, 0, 0]
        publish = self.engine.bus.publish
        for i in sorted(drop):
            seq, block_id, time_s, value = entries[i]
            tier, _, r = keys[i]
            tier_counts[tier] += 1
            self.n_shed += 1
            self._shed_log.append(
                ShedRecord(
                    seq=seq,
                    block_id=block_id,
                    round_index=r,
                    time_s=time_s,
                    value=value,
                    tier=tier,
                )
            )
            rounds = self._shed_rounds.setdefault(block_id, {})
            rounds[r] = rounds.get(r, 0) + 1
            if len(rounds) > self._round_cap:
                # A block that never closes (no ingested observations)
                # cannot prune via the close watcher; cap its footprint
                # by forgetting the oldest rounds, which could only have
                # annotated windows that are already behind us.
                for stale in sorted(rounds)[: len(rounds) - self._round_cap]:
                    del rounds[stale]
            publish(
                ObservationShed(
                    block_id=block_id,
                    round_index=r,
                    time_s=time_s,
                    value=value,
                    tier=tier,
                    depth=depth_before,
                    seq=seq,
                )
            )
            self._m.shed[tier].inc()
        self.n_episodes += 1
        self._m.episodes.inc()
        self.events.warning(
            "stream.shed",
            n_shed=n_drop,
            depth_before=depth_before,
            depth_after=self._depth,
            tier0=tier_counts[0],
            tier1=tier_counts[1],
            tier2=tier_counts[2],
        )
        self._sync()

    def _on_close(self, event: WindowClosed) -> None:
        rounds = self._shed_rounds.get(event.block_id)
        if not rounds:
            return
        start = event.window_start_round
        end = start + event.n_rounds
        n_shed = sum(
            count for r, count in rounds.items() if start <= r < end
        )
        if n_shed:
            self.engine.bus.publish(
                ShedDegraded(
                    block_id=event.block_id,
                    round_index=event.round_index,
                    time_s=event.time_s,
                    window_start_round=start,
                    n_rounds=event.n_rounds,
                    n_shed=n_shed,
                )
            )
            self.events.warning(
                "stream.shed_degraded",
                block_id=event.block_id,
                window_start_round=start,
                n_rounds=event.n_rounds,
                n_shed=n_shed,
                label=event.report.label.value,
            )
        # Rounds before the next window's start can never annotate a
        # future close; forget them (bounded-memory invariant).
        hop = getattr(self.engine.config, "hop", event.n_rounds)
        horizon = start + (event.n_rounds if event.partial else hop)
        for r in [r for r in rounds if r < horizon]:
            del rounds[r]
        if not rounds:
            del self._shed_rounds[event.block_id]


def paced_replay(
    stream,
    controller: AdmissionController,
    pump_every: int = 64,
    pump_budget: int | None = None,
) -> tuple[int, int]:
    """Feed ``(block_id, time_s, value)`` tuples, honoring backpressure.

    This is the producer half of the admission contract — the shape the
    round generator uses: submit observations, service the queue every
    ``pump_every`` submissions with ``pump_budget`` observations per
    cycle, and when the backpressure signal asserts, *stop producing*
    and drain until it releases.  A producer wired this way never
    triggers shedding: the queue stays at or below the high watermark
    (plus the in-flight batch) by construction.

    Returns ``(n_fed, n_pause_cycles)``.
    """
    if pump_every < 1:
        raise ValueError("pump_every must be positive")
    if pump_budget is not None and pump_budget < 1:
        raise ValueError("pump_budget must be positive")
    n_fed = 0
    n_pauses = 0
    since_pump = 0
    for block_id, time_s, value in stream:
        while controller.backpressure():
            n_pauses += 1
            controller.pump(pump_budget)
        controller.submit(block_id, time_s, value)
        n_fed += 1
        since_pump += 1
        if since_pump >= pump_every:
            controller.pump(pump_budget)
            since_pump = 0
    while controller.depth:
        controller.pump(pump_budget)
    return n_fed, n_pauses
