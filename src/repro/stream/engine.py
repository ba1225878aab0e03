"""The streaming diurnal engine: incremental ingestion to live verdicts.

The batch pipeline classifies a block once, after the campaign ends.
This engine consumes the same per-round observations *as they arrive*
and maintains, per block:

* a bounded :class:`~repro.stream.window.RoundWindow` ring row with
  the section 2.2 grid/duplicate/fill semantics (memory is O(window),
  not O(campaign));
* a :class:`~repro.stream.sliding_dft.SlidingDFT` row over the trailing
  window, tracking only the DC, diurnal, and harmonic bins — O(tracked
  bins) per round instead of O(n log n) per reclassification;
* a hysteresis-stable diurnal label that only transitions after
  ``label_dwell`` consecutive window closes agree, so verdicts don't
  flap at the strict/relaxed boundary;
* an :class:`~repro.stream.events.EventBus` emitting typed events:
  window closes, classification transitions, sleep/wake phase edges,
  quality degradation/restoration, and dropped late observations.

Out-of-order delivery is handled with a watermark: rounds up to
``max_round − lateness_rounds`` are frozen; observations behind the
watermark are dropped (with a :class:`~repro.stream.events.
LateObservation` event) exactly because their window may already have
closed.  **Batch parity** is the correctness anchor: every window-close
verdict is produced by materializing the ring through the same
grid-and-fill code and calling the same classifier the batch path uses,
so the streaming report is bit-identical to
:func:`repro.core.classify.classify_series` over the identical window —
:func:`batch_window_report` is the oracle tests compare against.

Every ingest goes through :meth:`StreamEngine.ingest_batch`, which
applies the common per-observation step to many blocks at once with
array operations and is bit-identical to one-at-a-time ingestion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from math import isfinite
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.obs.export import RunManifest

from repro.core.classify import (
    ClassifierConfig,
    DiurnalClass,
    DiurnalReport,
    classify_series,
)
from repro.core.spectral import (
    diurnal_bin,
    diurnal_candidates,
    harmonic_bins,
)
from repro.core.timeseries import (
    FILL_POLICIES,
    QualityReport,
    clean_observations,
    round_index,
)
from repro.obs.events import NULL_EVENT_LOG
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.probing.rounds import ROUND_SECONDS
from repro.stream.events import (
    ClassificationTransition,
    EventBus,
    LateObservation,
    PhaseEdge,
    QualityDegraded,
    QualityRestored,
    WindowClosed,
)
from repro.stream.sliding_dft import SlidingDFT
from repro.stream.window import RoundWindow, grow_rows

__all__ = [
    "ProvisionalEstimate",
    "StreamConfig",
    "StreamEngine",
    "batch_window_report",
]

_DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class StreamConfig:
    """Knobs for the streaming engine.

    Attributes:
        window_rounds: spectral window length in rounds; must span at
            least one whole day (the classifier needs a diurnal bin).
        round_s: grid period in seconds (660 in all paper datasets).
        start_s: absolute time of round 0 (the grid origin).
        hop_rounds: rounds between window closes; ``None`` means
            tumbling windows (hop = window).
        lateness_rounds: how many rounds behind the newest observation
            the watermark trails; out-of-order delivery within this
            slack is reordered correctly, anything older is dropped.
        fill_policy: gap-fill policy for window materialization (see
            :data:`repro.core.timeseries.FILL_POLICIES`).
        max_fill_gap: bound on filled gap length (``None`` fills all).
        classifier: thresholds shared with the batch classifier.
        label_dwell: consecutive closes a new label needs before the
            stable label transitions (1 disables hysteresis).
        edge_margin: half-width of the dead band around the sliding
            window mean for sleep/wake edge detection, in availability
            units.
        reseed_every: recompute the sliding DFT exactly every this many
            rounds to cancel float drift (``None``: once per window).
    """

    window_rounds: int
    round_s: float = ROUND_SECONDS
    start_s: float = 0.0
    hop_rounds: int | None = None
    lateness_rounds: int = 0
    fill_policy: str = "hold"
    max_fill_gap: int | None = None
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    label_dwell: int = 2
    edge_margin: float = 0.05
    reseed_every: int | None = None

    def __post_init__(self) -> None:
        if self.window_rounds < 4:
            raise ValueError("window_rounds must be at least 4")
        if self.round_s <= 0:
            raise ValueError("round_s must be positive")
        # Raises for windows shorter than one day, where no diurnal bin
        # exists and every close would fail.
        diurnal_bin(self.window_rounds, self.round_s)
        if self.hop is not None and not 1 <= self.hop <= self.window_rounds:
            raise ValueError(
                "hop_rounds must be in [1, window_rounds]"
            )
        if self.lateness_rounds < 0:
            raise ValueError("lateness_rounds must be non-negative")
        if self.fill_policy not in FILL_POLICIES:
            raise ValueError(
                f"unknown fill policy {self.fill_policy!r}; "
                f"expected one of {FILL_POLICIES}"
            )
        if self.label_dwell < 1:
            raise ValueError("label_dwell must be at least 1")
        if self.edge_margin < 0:
            raise ValueError("edge_margin must be non-negative")
        if self.reseed_every is not None and self.reseed_every < 1:
            raise ValueError("reseed_every must be positive")

    @property
    def hop(self) -> int:
        return (
            self.window_rounds if self.hop_rounds is None else self.hop_rounds
        )

    @classmethod
    def for_days(
        cls,
        window_days: float,
        hop_days: float | None = None,
        round_s: float = ROUND_SECONDS,
        **kwargs,
    ) -> "StreamConfig":
        """Window/hop expressed in days, rounded to whole rounds."""
        window = int(round(window_days * _DAY_SECONDS / round_s))
        hop = (
            None
            if hop_days is None
            else max(1, int(round(hop_days * _DAY_SECONDS / round_s)))
        )
        return cls(
            window_rounds=window, round_s=round_s, hop_rounds=hop, **kwargs
        )


@dataclass(frozen=True)
class ProvisionalEstimate:
    """Per-round spectral state from the sliding DFT (cheap, approximate).

    Exact verdicts only happen at window closes; between closes this is
    the O(tracked bins) view: the trailing window's mean, its 1-cycle/day
    amplitude and phase, and the strongest harmonic.  ``primed`` is False
    until the trailing window is fully covered by observed (or held)
    rounds, when the numbers are not yet meaningful.
    """

    block_id: int
    round_index: int
    time_s: float
    mean: float
    diurnal_k: int
    diurnal_amplitude: float
    diurnal_phase: float
    strongest_harmonic: float
    primed: bool

    @property
    def looks_diurnal(self) -> bool:
        """Cheap per-round indicator: diurnal energy beats every harmonic."""
        return (
            self.primed
            and self.diurnal_amplitude > 0
            and self.diurnal_amplitude > self.strongest_harmonic
        )


class _Verdict:
    """A block's close-time state: labels, hysteresis, quality, counts.

    Touched only at window closes and late drops, so it stays a plain
    object; everything the per-observation step touches lives in the
    engine's row arrays.
    """

    __slots__ = (
        "stable_label",
        "candidate",
        "candidate_count",
        "stable_run",
        "degraded",
        "last_report",
        "n_closed",
        "n_late",
    )

    def __init__(self) -> None:
        self.stable_label: DiurnalClass | None = None
        self.candidate: DiurnalClass | None = None
        self.candidate_count = 0
        self.stable_run = 0
        self.degraded = False
        self.last_report: DiurnalReport | None = None
        self.n_closed = 0
        self.n_late = 0


class _EngineMetrics:
    """Pre-bound engine metrics; one attribute load + no-op call when off.

    Bucket bounds for close latency cover the observed range: a window
    close is one materialize + one FFT classify, tens of microseconds to
    a few milliseconds.
    """

    __slots__ = ("enabled", "ingested", "late", "invalid", "frozen",
                 "reseeds", "closes", "partial_closes", "transitions",
                 "blocks", "close_seconds", "ingest_rate")

    _CLOSE_BUCKETS = (
        1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 0.1,
    )

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.ingested = registry.counter("stream_observations_total")
        self.late = registry.counter("stream_late_observations_total")
        self.invalid = registry.counter("stream_invalid_observations_total")
        self.frozen = registry.counter("stream_rounds_frozen_total")
        self.reseeds = registry.counter("stream_dft_reseeds_total")
        self.closes = registry.counter(
            "stream_window_closes_total", partial="false"
        )
        self.partial_closes = registry.counter(
            "stream_window_closes_total", partial="true"
        )
        self.transitions = registry.counter("stream_label_transitions_total")
        self.blocks = registry.gauge("stream_tracked_blocks")
        self.close_seconds = registry.histogram(
            "stream_close_seconds", buckets=self._CLOSE_BUCKETS
        )
        self.ingest_rate = registry.meter("stream_close_interval_observations")


# Runs shorter than this take the per-observation step: below it, the
# fixed cost of the array ops exceeds the per-observation work they save.
_MIN_ARRAY_RUN = 8
# ``replay`` feeds its iterable through ``ingest_batch`` in chunks this big.
_REPLAY_CHUNK = 4096
# Rows are allocated geometrically from this start.
_FIRST_ROWS = 8
# Level codes in ``_level``: no level yet, below, above the dead band.
_LOW, _NONE, _HIGH = -1, 0, 1


class StreamEngine:
    """Consume per-round observations, maintain verdicts, emit events.

    ``metrics``/``tracer``/``events`` attach a
    :class:`repro.obs.MetricsRegistry` / :class:`repro.obs.Tracer` /
    :class:`repro.obs.EventLogger`; by default the null implementations
    keep every code path allocation-free.  Instrumentation is strictly
    observational — verdicts, events, and state are bit-identical with
    or without it (``tests/test_obs_parity.py``).  The structured event
    log mirrors the typed bus events that matter operationally: late
    drops, quality degradation/restoration, label transitions, and
    (at debug level, for flight recorders) every window close.

    Block state is struct-of-arrays: block ``b`` owns row
    ``self._rows[b]`` of one row-batched :class:`RoundWindow`, one
    row-batched :class:`SlidingDFT`, the filled-value ring, and the
    watermark/max-round/close arrays, so :meth:`ingest_batch` can take
    the common per-observation step for many blocks with one set of
    array operations.
    """

    def __init__(
        self,
        config: StreamConfig,
        sinks=(),
        metrics=None,
        tracer=None,
        events=None,
    ) -> None:
        self.config = config
        self.bus = EventBus(sinks)
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.events = NULL_EVENT_LOG if events is None else events
        self._m = _EngineMetrics(self.metrics)
        self._since_close = 0
        # Hot-path event tallies are plain ints, synced to the registry
        # at close/flush boundaries — a locked counter increment per
        # observation would dominate the ingest cost (see
        # ``benchmarks/test_abl_obs_overhead.py``).  Totals are exact at
        # every observation point (after ``flush`` or a window close).
        self._pending_ingested = 0
        self._pending_late = 0
        self._pending_invalid = 0
        self._pending_frozen = 0
        self._n_invalid = 0
        n = config.window_rounds
        n_bins = n // 2 + 1
        k_d = diurnal_bin(n, config.round_s)
        self._cand = np.array(
            diurnal_candidates(n, config.round_s), dtype=np.int64
        )
        self._harmonics = harmonic_bins(
            k_d,
            n_bins,
            max_harmonic=config.classifier.max_harmonic,
            tolerance=config.classifier.harmonic_tolerance,
        )
        self._tracked = np.unique(
            np.concatenate([[0], self._cand, self._harmonics])
        )
        self._capacity = n + config.hop + config.lateness_rounds + 2
        self._reseed_every = (
            n if config.reseed_every is None else config.reseed_every
        )
        # Row state.  ``_rows`` maps block id -> row, rows handed out in
        # arrival order of first sight.
        self._rows: dict = {}
        self._verdicts: list[_Verdict] = []
        self._ring = RoundWindow(self._capacity, rows=0)
        self._dft = SlidingDFT(n, self._tracked, rows=0)
        self._filled = np.empty((0, n))
        self._last_filled = np.empty(0)
        self._max_round = np.empty(0, dtype=np.int64)
        self._watermark = np.empty(0, dtype=np.int64)
        self._next_close = np.empty(0, dtype=np.int64)
        self._n_frozen = np.empty(0, dtype=np.int64)
        self._trailing_missing = np.empty(0, dtype=np.int64)
        self._n_obs = np.empty(0, dtype=np.int64)
        self._level = np.empty(0, dtype=np.int8)
        self._last_edge = np.empty(0, dtype=np.int64)  # -1: no edge yet

    # -- ingestion ---------------------------------------------------------

    def ingest(self, block_id: int, time_s: float, value: float) -> None:
        """Process one observation (any order within the lateness slack).

        A length-1 :meth:`ingest_batch`.  Non-finite ``time_s``/``value``
        (NaN, +/-inf — a corrupt frame, a broken sensor) are dropped
        before they can poison the ring: NaN times grid to garbage
        rounds and NaN values defeat the fill/quality accounting.  Each
        drop is a structured ``stream.invalid_observation`` event and a
        ``stream_invalid_observations_total`` count, never an exception
        — invalid input is an operational condition, not a bug.
        """
        self.ingest_batch((block_id,), (time_s,), (value,))

    def ingest_batch(self, block_ids, times, values) -> None:
        """Process a mixed-block batch of observations in arrival order.

        The result — events, their order, snapshots, DFT coefficients,
        every tally — is bit-identical to feeding the observations one
        at a time.  The batch is cut into runs, a run ending only where
        a block repeats.  Within a run, the *common step* (a known
        block's next in-order round: observe it, freeze exactly one
        round, slide the DFT, test for a phase edge) is one set of
        array operations over every block it applies to.  The run is
        then walked in arrival order: the walk publishes the common
        steps' phase edges and takes the per-observation step for
        everything else (invalid, late, first sight of a block, a
        duplicate or out-of-order round, a multi-round advance, a
        window close, a reseed).  Blocks in one run are distinct, so
        the common steps commute with the walk.  A sink that reads
        engine state from inside ``emit`` may see later observations of
        the same run already applied to *other* blocks.
        """
        if isinstance(block_ids, np.ndarray):
            block_ids = block_ids.tolist()
        if len(times) == 1 and len(block_ids) == 1 and len(values) == 1:
            self._ingest_one(block_ids[0], times[0], values[0])
            return
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        m = len(block_ids)
        if not times.shape == values.shape == (m,):
            raise ValueError(
                "block_ids, times and values must be aligned 1-d sequences"
            )
        if m == 0:
            return
        valid = np.isfinite(times) & np.isfinite(values)
        all_valid = bool(valid.all())
        config = self.config
        if all_valid:
            r = round_index(times, config.round_s, config.start_s)
        else:
            r = np.zeros(m, dtype=np.int64)
            r[valid] = round_index(times[valid], config.round_s, config.start_s)
        ids_l = list(block_ids)
        rows_l, first = self._lookup(ids_l, valid, all_valid)
        rows = np.array(rows_l, dtype=np.int64)
        times_l = times.tolist()
        values_l = values.tolist()
        r_l = r.tolist()
        known = valid & ~first
        step = self._step
        for s, e in self._runs(rows, valid, all_valid):
            if e - s >= _MIN_ARRAY_RUN:
                self._run(
                    s, e, ids_l, times_l, values_l, r_l, rows_l,
                    times, values, r, rows, known,
                )
                continue
            for i in range(s, e):
                q = rows_l[i]
                if q < 0:
                    self._invalid(ids_l[i], times_l[i], values_l[i])
                else:
                    step(q, ids_l[i], r_l[i], times_l[i], values_l[i])

    def ingest_many(
        self, block_id: int, times: np.ndarray, values: np.ndarray
    ) -> None:
        """Feed a batch of observations for one block, in arrival order."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError("times and values must have the same shape")
        self.ingest_batch([block_id] * len(times), times, values)

    def replay(self, stream) -> int:
        """Consume ``(block_id, time_s, value)`` tuples from an iterable."""
        stream = iter(stream)
        n = 0
        while batch := list(islice(stream, _REPLAY_CHUNK)):
            self.ingest_batch(*zip(*batch))
            n += len(batch)
        return n

    def flush(
        self, block_id: int | None = None, close_partial: bool = False
    ) -> None:
        """Expire the lateness slack: freeze and close everything due.

        With ``close_partial`` the tail beyond the last full window is
        also classified (when it spans at least one day), exactly as the
        batch path would classify the same shorter window.
        """
        ids = [block_id] if block_id is not None else list(self._rows)
        for bid in ids:
            q = self._rows[bid]
            max_round = int(self._max_round[q])
            if max_round > self._watermark[q]:
                self._advance(q, bid, max_round)
            start = int(self._next_close[q])
            if close_partial and start <= max_round:
                self._close_window(q, bid, max_round - start + 1, partial=True)
        self._sync_counters()

    # -- accessors ---------------------------------------------------------

    def blocks(self) -> list[int]:
        return sorted(self._rows)

    def watermark(self, block_id: int) -> int:
        return int(self._watermark[self._rows[block_id]])

    def stable_label(self, block_id: int) -> DiurnalClass | None:
        """The hysteresis-smoothed label (None before the first close)."""
        return self._verdicts[self._rows[block_id]].stable_label

    def last_report(self, block_id: int) -> DiurnalReport | None:
        return self._verdicts[self._rows[block_id]].last_report

    def n_late(self, block_id: int) -> int:
        return self._verdicts[self._rows[block_id]].n_late

    @property
    def n_invalid(self) -> int:
        """Observations dropped for non-finite time/value, all blocks."""
        return self._n_invalid

    def tracked(self, block_id: int) -> bool:
        """Whether the engine has any state for this block yet."""
        return block_id in self._rows

    def stable_run(self, block_id: int) -> int:
        """Consecutive closes agreeing with the current stable label.

        0 before the first close (or right after a dissenting close);
        large values mean the block has been boringly stable for many
        windows — exactly the blocks the overload shedder can afford to
        thin out first.  Unknown blocks report 0.
        """
        q = self._rows.get(block_id)
        return 0 if q is None else self._verdicts[q].stable_run

    def last_edge_round(self, block_id: int) -> int | None:
        """The round of the block's most recent sleep/wake phase edge."""
        q = self._rows.get(block_id)
        if q is None or self._last_edge[q] < 0:
            return None
        return int(self._last_edge[q])

    def next_close_start(self, block_id: int) -> int:
        """First round of the next window this block will close."""
        q = self._rows.get(block_id)
        return 0 if q is None else int(self._next_close[q])

    def provisional(self, block_id: int) -> ProvisionalEstimate:
        """The current trailing-window spectral state (O(tracked bins))."""
        q = self._rows[block_id]
        dft = self._dft
        cand_amps = dft.amplitudes(self._cand, q)
        best = int(np.argmax(cand_amps))
        k_best = int(self._cand[best])
        strongest_harmonic = (
            float(dft.amplitudes(self._harmonics, q).max())
            if len(self._harmonics)
            else 0.0
        )
        watermark = int(self._watermark[q])
        return ProvisionalEstimate(
            block_id=block_id,
            round_index=watermark,
            time_s=self._round_time(watermark),
            mean=dft.mean(q),
            diurnal_k=k_best,
            diurnal_amplitude=float(cand_amps[best]),
            diurnal_phase=dft.phase(k_best, q),
            strongest_harmonic=strongest_harmonic,
            primed=bool(self._trailing_missing[q] == 0),
        )

    def snapshot(self, block_id: int) -> dict | None:
        """Queryable state of one block (``None`` when untracked).

        This is the read surface the serving layer exposes per block:
        the hysteresis-stable label, the last window-close report (the
        bit-identical-to-batch verdict), the cheap provisional spectral
        estimate, and the ingest bookkeeping an operator asks about
        (watermark, late/observation counts).  Values are engine-native
        objects — :func:`repro.serve.shard.snapshot_to_dict` flattens
        them for JSON transport.
        """
        q = self._rows.get(block_id)
        if q is None:
            return None
        verdict = self._verdicts[q]
        return {
            "block_id": block_id,
            "watermark": int(self._watermark[q]),
            "max_round": int(self._max_round[q]),
            "next_close_start": int(self._next_close[q]),
            "stable_label": verdict.stable_label,
            "stable_run": verdict.stable_run,
            "last_report": verdict.last_report,
            "n_closed": verdict.n_closed,
            "n_late": verdict.n_late,
            "n_observations": int(self._n_obs[q]),
            "last_edge_round": self.last_edge_round(block_id),
            "degraded": verdict.degraded,
            "provisional": self.provisional(block_id),
        }

    def phase_map(self) -> dict[int, dict]:
        """Diurnal phase per block whose last verdict is diurnal.

        The live counterpart of the paper's Fig. 14 input: for every
        block whose most recent window close was strictly or relaxed
        diurnal, the winning bin, its FFT phase (radians), amplitude,
        and the hysteresis-stable label.  Non-diurnal and unclassified
        blocks are omitted — their phase is noise by definition.
        """
        out: dict[int, dict] = {}
        for block_id, q in self._rows.items():
            verdict = self._verdicts[q]
            report = verdict.last_report
            if report is None or not report.label.is_diurnal:
                continue
            out[block_id] = {
                "label": report.label.value,
                "stable_label": (
                    verdict.stable_label.value
                    if verdict.stable_label is not None
                    else None
                ),
                "diurnal_k": report.diurnal_k,
                "phase": report.phase,
                "amplitude": report.diurnal_amplitude,
                "watermark": int(self._watermark[q]),
                # Freshness key for replicated serving: two replicas of
                # the same block compare applied-observation counts to
                # decide whose entry wins a merge.
                "n_observations": int(self._n_obs[q]),
            }
        return out

    def manifest(self, **extra) -> "RunManifest":
        """Telemetry manifest for this engine's run so far.

        Captures the quality gates, tracked-block count, stage timings
        (when a tracer is attached), and the current metric values; pass
        free-form keywords (dataset name, campaign id, ...) for the
        ``extra`` section.
        """
        from dataclasses import asdict

        from repro.obs.export import RunManifest

        self._sync_counters()
        return RunManifest.capture(
            kind="stream",
            registry=self.metrics,
            tracer=self.tracer,
            n_blocks=len(self._rows),
            quality_gates=asdict(self.config.classifier),
            window_rounds=self.config.window_rounds,
            hop_rounds=self.config.hop,
            lateness_rounds=self.config.lateness_rounds,
            fill_policy=self.config.fill_policy,
            **extra,
        )

    # -- internals ---------------------------------------------------------

    def _sync_counters(self) -> None:
        """Flush pending hot-path tallies into the metrics registry."""
        if self._pending_ingested:
            self._m.ingested.inc(self._pending_ingested)
            self._pending_ingested = 0
        if self._pending_late:
            self._m.late.inc(self._pending_late)
            self._pending_late = 0
        if self._pending_invalid:
            self._m.invalid.inc(self._pending_invalid)
            self._pending_invalid = 0
        if self._pending_frozen:
            self._m.frozen.inc(self._pending_frozen)
            self._pending_frozen = 0

    def _add_row(self, block_id) -> int:
        """Give a new block a fresh row; returns it."""
        q = len(self._verdicts)
        if q == len(self._n_obs):
            size = max(_FIRST_ROWS, 2 * q)
            self._ring.grow(size)
            self._dft.grow(size)
            self._filled = grow_rows(self._filled, size)
            for name in (
                "_last_filled", "_max_round", "_watermark", "_next_close",
                "_n_frozen", "_trailing_missing", "_n_obs", "_level",
                "_last_edge",
            ):
                setattr(self, name, grow_rows(getattr(self, name), size))
        self._ring.reset_rows(q)
        self._dft.table[q] = 0
        self._filled[q] = np.nan
        self._last_filled[q] = np.nan
        self._max_round[q] = -1
        self._watermark[q] = -1
        self._next_close[q] = 0
        self._n_frozen[q] = 0
        self._trailing_missing[q] = self.config.window_rounds
        self._n_obs[q] = 0
        self._level[q] = _NONE
        self._last_edge[q] = -1
        self._rows[block_id] = q
        self._verdicts.append(_Verdict())
        self._m.blocks.inc()
        return q

    def _row(self, block_id) -> int:
        q = self._rows.get(block_id)
        return self._add_row(block_id) if q is None else q

    def _lookup(
        self, ids: list, valid: np.ndarray, all_valid: bool
    ) -> tuple[list[int], np.ndarray]:
        """Rows for a batch (-1 where invalid) and its first sightings.

        Blocks never seen before get rows in arrival order of their
        first valid observation, exactly as per-observation ingest
        would create them.
        """
        get = self._rows.get
        rows = [get(block_id, -1) for block_id in ids]
        if not all_valid:
            rows = [q if ok else -1 for q, ok in zip(rows, valid.tolist())]
        first = np.zeros(len(ids), dtype=bool)
        if -1 in rows:
            for i in np.flatnonzero(valid).tolist():
                if rows[i] < 0:
                    q = get(ids[i])
                    if q is None:
                        q = self._add_row(ids[i])
                        first[i] = True
                    rows[i] = q
        return rows, first

    @staticmethod
    def _runs(rows: np.ndarray, valid: np.ndarray, all_valid: bool):
        """``(start, stop)`` of each run: a run ends where a block repeats."""
        m = len(rows)
        key = rows if all_valid else np.where(valid, rows, -1 - np.arange(m))
        order = np.argsort(key, kind="stable")
        repeat = key[order[1:]] == key[order[:-1]]
        if not repeat.any():
            return [(0, m)]
        prev = np.full(m, -1, dtype=np.int64)
        prev[order[1:][repeat]] = order[:-1][repeat]
        at = np.flatnonzero(prev >= 0)
        bounds = [0]
        start = 0
        for i, p in zip(at.tolist(), prev[at].tolist()):
            if p >= start:
                bounds.append(i)
                start = i
        bounds.append(m)
        return list(zip(bounds[:-1], bounds[1:]))

    def _run(
        self, s, e, ids_l, times_l, values_l, r_l, rows_l,
        times, values, r, rows, known,
    ) -> None:
        """One run of distinct blocks: array common step, then the walk."""
        config = self.config
        n = config.window_rounds
        cap = self._capacity
        ring = self._ring
        pos = s + np.flatnonzero(known[s:e])
        q = rows[pos]
        rr = r[pos]
        f = self._watermark[q] + 1
        common = (
            (rr - (config.lateness_rounds + 1) == f)
            & (rr > self._max_round[q])
            & (rr < ring.bases[q] + cap)
            & (f != self._next_close[q] + (n - 1))
        )
        n_frozen = self._n_frozen[q] + 1
        common &= n_frozen % self._reseed_every != 0
        common &= ~ring.observed[q, rr % cap]
        pos, q, rr, f = pos[common], q[common], rr[common], f[common]
        kind = np.ones(e - s, dtype=np.int8)  # 1: per-observation step
        kind[pos - s] = 0
        edges: dict[int, PhaseEdge] = {}
        if len(pos):
            ring.observe_rows(q, rr, times[pos], values[pos])
            self._n_obs[q] += 1
            self._max_round[q] = rr
            # Freeze round f (one round per block): what _freeze_round
            # does for a single row, without a reseed or a close.
            raw = ring.values[q, f % cap]
            filled = np.where(np.isnan(raw), self._last_filled[q], raw)
            self._last_filled[q] = filled
            col = f % n
            evicted = self._filled[q, col]
            self._filled[q, col] = filled
            entering_nan = np.isnan(filled)
            evicted_nan = np.isnan(evicted)
            self._dft.slide_rows(
                q,
                np.where(entering_nan, 0.0, filled),
                np.where(evicted_nan, 0.0, evicted),
            )
            missing = self._trailing_missing[q] + entering_nan - evicted_nan
            self._trailing_missing[q] = missing
            self._n_frozen[q] = n_frozen[common]
            self._watermark[q] = f
            test = (missing == 0) & ~entering_nan
            if test.any():
                edges = self._phase_edges(
                    ids_l, pos[test], q[test], f[test], filled[test]
                )
                kind[np.fromiter(edges, dtype=np.int64) - s] = 2
        # The walk, in arrival order.  Common steps between two walked
        # observations only advance the arrival-order tallies.
        done = s
        step = self._step
        for i in (s + np.flatnonzero(kind)).tolist():
            edge = edges.get(i)
            self._tally_common(i - done + (edge is not None))
            done = i + 1
            if edge is not None:
                self.bus.publish(edge)
                continue
            qi = rows_l[i]
            if qi < 0:
                self._invalid(ids_l[i], times_l[i], values_l[i])
            else:
                step(qi, ids_l[i], r_l[i], times_l[i], values_l[i])
        self._tally_common(e - done)

    def _tally_common(self, k: int) -> None:
        """Arrival-order tallies of ``k`` common steps."""
        self._since_close += k
        self._pending_ingested += k
        self._pending_frozen += k

    def _phase_edges(self, ids, pos, q, f, value) -> dict[int, PhaseEdge]:
        """:meth:`_phase_edge` for many rows; edge events keyed by position
        in the batch whose block ids are ``ids``."""
        # Column 0 is the DC bin: tracked bins are sorted and include 0.
        mean = self._dft.table[q, 0].real / self.config.window_rounds
        margin = self.config.edge_margin
        level = np.where(
            value > mean + margin,
            _HIGH,
            np.where(value < mean - margin, _LOW, _NONE),
        ).astype(np.int8)
        old = self._level[q]
        moved = level != _NONE
        self._level[q[moved]] = level[moved]
        edge = moved & (old != _NONE) & (level != old)
        self._last_edge[q[edge]] = f[edge]
        return {
            i: self._edge_event(ids[i], fi, level_i, v, mu)
            for i, fi, level_i, v, mu in zip(
                pos[edge].tolist(), f[edge].tolist(),
                level[edge].tolist(), value[edge].tolist(),
                mean[edge].tolist(),
            )
        }

    def _edge_event(
        self, block_id: int, f: int, level: int, value: float, mean: float
    ) -> PhaseEdge:
        return PhaseEdge(
            block_id=block_id,
            round_index=f,
            time_s=self._round_time(f),
            edge="wake" if level == _HIGH else "sleep",
            value=value,
            window_mean=mean,
        )

    def _ingest_one(self, block_id, time_s, value) -> None:
        time_s = float(time_s)
        value = float(value)
        if not (isfinite(time_s) and isfinite(value)):
            self._invalid(block_id, time_s, value)
            return
        config = self.config
        x = (time_s - config.start_s) / config.round_s
        # Python's round is round_index's rint (half to even) on one
        # float; far outside int64 only numpy's cast gives the same r.
        r = (
            round(x) if abs(x) < 2.0**62
            else int(round_index(time_s, config.round_s, config.start_s))
        )
        self._step(self._row(block_id), block_id, r, time_s, value)

    def _invalid(self, block_id, time_s: float, value: float) -> None:
        self._pending_invalid += 1
        self._n_invalid += 1
        self.events.warning(
            "stream.invalid_observation",
            block_id=block_id,
            time_s=repr(float(time_s)),
            value=repr(float(value)),
        )

    def _step(
        self, q: int, block_id: int, r: int, time_s: float, value: float
    ) -> None:
        """The per-observation step for one valid observation of row ``q``."""
        watermark = int(self._watermark[q])
        if r < 0 or r <= watermark:
            self._verdicts[q].n_late += 1
            self._pending_late += 1
            self.bus.publish(
                LateObservation(
                    block_id=block_id,
                    round_index=r,
                    time_s=time_s,
                    value=value,
                    lag_rounds=watermark - r,
                )
            )
            self.events.warning(
                "stream.late_drop",
                block_id=block_id,
                round_index=r,
                lag_rounds=watermark - r,
            )
            return
        lateness = self.config.lateness_rounds
        if r >= self._ring.bases[q] + self._capacity:
            # A jump ahead: freeze/close/evict everything that must
            # precede this round so the ring has room for it.
            self._advance(q, block_id, r - lateness - 1)
        self._ring.observe(r, time_s, value, q)
        self._n_obs[q] += 1
        self._pending_ingested += 1
        self._since_close += 1
        if r > self._max_round[q]:
            self._max_round[q] = r
            # The newest round itself stays open (a same-round duplicate
            # must still be able to revise it), so the watermark trails
            # one round behind the lateness slack.
            target = r - lateness - 1
            if target > self._watermark[q]:
                self._advance(q, block_id, target)

    def _round_time(self, r: int) -> float:
        return self.config.start_s + r * self.config.round_s

    def _advance(self, q: int, block_id: int, target: int) -> None:
        n = self.config.window_rounds
        close_at = int(self._next_close[q]) + n - 1
        for f in range(int(self._watermark[q]) + 1, target + 1):
            self._freeze_round(q, block_id, f)
            self._watermark[q] = f
            if f == close_at:
                self._close_window(q, block_id, n, partial=False)
                close_at = int(self._next_close[q]) + n - 1

    def _freeze_round(self, q: int, block_id: int, f: int) -> None:
        """Fix round ``f``'s held value and push it through the DFT."""
        n = self.config.window_rounds
        raw = self._ring.value_at(f, q)
        if raw != raw:
            filled = float(self._last_filled[q])
        else:
            filled = raw
            self._last_filled[q] = raw
        i = f % n
        evicted = float(self._filled[q, i])
        self._filled[q, i] = filled
        entering_nan = filled != filled
        evicted_nan = evicted != evicted
        self._dft.slide(
            0.0 if entering_nan else filled,
            0.0 if evicted_nan else evicted,
            q,
        )
        missing = int(self._trailing_missing[q]) + entering_nan - evicted_nan
        self._trailing_missing[q] = missing
        n_frozen = int(self._n_frozen[q]) + 1
        self._n_frozen[q] = n_frozen
        self._pending_frozen += 1
        if n_frozen % self._reseed_every == 0:
            order = np.arange(f - n + 1, f + 1) % n
            self._dft.reseed(
                np.nan_to_num(self._filled[q, order], nan=0.0), q
            )
            self._m.reseeds.inc()
        if missing == 0 and not entering_nan:
            self._phase_edge(q, block_id, f, filled)

    def _phase_edge(self, q: int, block_id: int, f: int, value: float) -> None:
        mean = self._dft.mean(q)
        if value > mean + self.config.edge_margin:
            level = _HIGH
        elif value < mean - self.config.edge_margin:
            level = _LOW
        else:
            return
        old = self._level[q]
        if old == _NONE:
            self._level[q] = level
            return
        if level != old:
            self._level[q] = level
            self._last_edge[q] = f
            self.bus.publish(self._edge_event(block_id, f, level, value, mean))

    def _close_window(
        self,
        q: int,
        block_id: int,
        n_rounds: int,
        partial: bool,
    ) -> None:
        if not (self._m.enabled or self.tracer.enabled):
            self._close_window_impl(q, block_id, n_rounds, partial)
            return
        with self.tracer.trace(
            "stream.close_window", block=block_id, partial=partial
        ):
            t0 = time.perf_counter()
            self._close_window_impl(q, block_id, n_rounds, partial)
            self._m.close_seconds.observe(time.perf_counter() - t0)
        self._m.ingest_rate.observe(self._since_close)
        self._since_close = 0
        self._sync_counters()

    def _close_window_impl(
        self,
        q: int,
        block_id: int,
        n_rounds: int,
        partial: bool,
    ) -> None:
        w_start = int(self._next_close[q])
        values, quality = self._ring.materialize(
            w_start,
            n_rounds,
            policy=self.config.fill_policy,
            max_gap=self.config.max_fill_gap,
            row=q,
        )
        try:
            report = classify_series(
                values, self.config.round_s, self.config.classifier,
                quality=quality,
            )
        except ValueError:
            # Only reachable on a partial close too short to classify;
            # full windows are validated at config time.
            if not partial:
                raise
            return
        end_round = w_start + n_rounds - 1
        self.bus.publish(
            WindowClosed(
                block_id=block_id,
                round_index=end_round,
                time_s=self._round_time(end_round),
                window_start_round=w_start,
                n_rounds=n_rounds,
                report=report,
                quality=quality,
                partial=partial,
            )
        )
        verdict = self._verdicts[q]
        verdict.last_report = report
        verdict.n_closed += 1
        (self._m.partial_closes if partial else self._m.closes).inc()
        self.events.debug(
            "stream.window_closed",
            block_id=block_id,
            end_round=end_round,
            n_rounds=n_rounds,
            partial=partial,
            label=report.label.value,
        )
        self._quality_events(verdict, block_id, end_round, report, quality)
        self._hysteresis(verdict, block_id, end_round, report)
        next_start = end_round + 1 if partial else w_start + self.config.hop
        self._next_close[q] = next_start
        self._ring.advance_base(next_start, q)

    def _quality_events(
        self,
        verdict: _Verdict,
        block_id: int,
        end_round: int,
        report: DiurnalReport,
        quality: QualityReport,
    ) -> None:
        degraded_now = not report.is_classified
        if degraded_now and not verdict.degraded:
            verdict.degraded = True
            if quality.n_observed == 0:
                reason = "no observations in window"
            elif not quality.usable(
                max_gap_fraction=self.config.classifier.max_gap_fraction,
                max_longest_gap=self.config.classifier.max_longest_gap,
            ):
                reason = (
                    f"quality gate: {quality.gap_fraction:.1%} missing, "
                    f"longest gap {quality.longest_gap} rounds"
                )
            else:
                reason = "filled series still contains NaN"
            self.bus.publish(
                QualityDegraded(
                    block_id=block_id,
                    round_index=end_round,
                    time_s=self._round_time(end_round),
                    quality=quality,
                    reason=reason,
                )
            )
            self.events.warning(
                "stream.quality_degraded",
                block_id=block_id,
                end_round=end_round,
                reason=reason,
            )
        elif not degraded_now and verdict.degraded:
            verdict.degraded = False
            self.bus.publish(
                QualityRestored(
                    block_id=block_id,
                    round_index=end_round,
                    time_s=self._round_time(end_round),
                    quality=quality,
                )
            )
            self.events.info(
                "stream.quality_restored",
                block_id=block_id,
                end_round=end_round,
            )

    def _hysteresis(
        self,
        verdict: _Verdict,
        block_id: int,
        end_round: int,
        report: DiurnalReport,
    ) -> None:
        label = report.label

        def publish(old: DiurnalClass | None, dwell: int) -> None:
            self._m.transitions.inc()
            self.bus.publish(
                ClassificationTransition(
                    block_id=block_id,
                    round_index=end_round,
                    time_s=self._round_time(end_round),
                    old_label=old,
                    new_label=label,
                    report=report,
                    dwell=dwell,
                )
            )
            self.events.info(
                "stream.label_transition",
                block_id=block_id,
                end_round=end_round,
                old_label=old.value if old is not None else None,
                new_label=label.value,
                dwell=dwell,
            )

        if verdict.stable_label is None:
            verdict.stable_label = label
            verdict.stable_run = 1
            publish(None, 1)
        elif label == verdict.stable_label:
            verdict.candidate = None
            verdict.candidate_count = 0
            verdict.stable_run += 1
        else:
            verdict.stable_run = 0
            if label == verdict.candidate:
                verdict.candidate_count += 1
            else:
                verdict.candidate = label
                verdict.candidate_count = 1
            if verdict.candidate_count >= self.config.label_dwell:
                old = verdict.stable_label
                verdict.stable_label = label
                verdict.stable_run = 1
                publish(old, verdict.candidate_count)
                verdict.candidate = None
                verdict.candidate_count = 0


def batch_window_report(
    times: np.ndarray,
    values: np.ndarray,
    window_start_round: int,
    n_rounds: int,
    config: StreamConfig,
) -> tuple[DiurnalReport, QualityReport]:
    """The batch-path verdict for one hop window of a raw stream.

    This is the parity oracle: select the observations that grid into
    ``[window_start_round, window_start_round + n_rounds)``, run them
    through :func:`repro.core.timeseries.clean_observations`, and
    classify.  For every window the engine closes, its report must equal
    this one field-for-field (see
    :func:`repro.core.classify.reports_equal`).
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    idx = round_index(times, config.round_s, config.start_s)
    in_window = (idx >= window_start_round) & (
        idx < window_start_round + n_rounds
    )
    window_start_s = (
        config.start_s + window_start_round * config.round_s
    )
    series, quality = clean_observations(
        times[in_window],
        values[in_window],
        config.round_s,
        window_start_s,
        n_rounds,
        policy=config.fill_policy,
        max_gap=config.max_fill_gap,
    )
    report = classify_series(
        series, config.round_s, config.classifier, quality=quality
    )
    return report, quality
