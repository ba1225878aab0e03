"""End-to-end instrumentation: counters must equal observed pipeline facts.

Every assertion here cross-checks a metric against an independently
observable quantity (sink events, stream-length deltas, runner results),
so a drifting counter is caught as an exact mismatch, not a trend.
"""

import numpy as np
import pytest

from repro.core import BatchConfig, BatchRunner
from repro.core.classify import (
    ClassifierConfig,
    DiurnalClass,
    classify_many,
    classify_series,
)
from repro.core.timeseries import clean_observations
from repro.datasets.io import iter_observation_stream
from repro.faults import FaultConfig
from repro.faults.plan import FaultPlan
from repro.net import (
    Block24,
    make_always_on,
    make_dead,
    make_diurnal,
    merge_behaviors,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    install_metrics,
    uninstall_metrics,
)
from repro.probing import RoundSchedule
from repro.stream import (
    ClassificationTransition,
    LateObservation,
    ListSink,
    StreamConfig,
    StreamEngine,
    WindowClosed,
)
from tests.test_rowpool import forced_split

ROUND = 660.0
DAY = 86400.0

SCHEDULE = RoundSchedule.for_days(3)


def diurnal_block(block_id):
    behavior = merge_behaviors(
        make_always_on(40),
        make_diurnal(80, phase_s=6 * 3600),
        make_dead(136),
    )
    return Block24(block_id, behavior)


def sparse_block(block_id):
    """Too few ever-active addresses: the prober refuses (skipped)."""
    behavior = merge_behaviors(make_always_on(5), make_dead(251))
    return Block24(block_id, behavior)


class AlwaysBroken:
    block_id = 666

    def realize(self, times, rng):
        raise RuntimeError("synthetic block failure")


def diurnal_stream(n_days, seed=0):
    rng = np.random.default_rng(seed)
    n = int(n_days * DAY / ROUND)
    times = np.arange(n) * ROUND
    values = (
        0.5
        + 0.4 * np.sin(2 * np.pi * times / DAY)
        + 0.02 * rng.standard_normal(n)
    )
    return times, values


@pytest.fixture
def installed_registry():
    """A registry wired into the module-level instruments, then unwired."""
    registry = MetricsRegistry()
    install_metrics(registry)
    try:
        yield registry
    finally:
        uninstall_metrics()


class TestStreamEngineMetrics:
    def test_counters_match_sink_events(self):
        times, values = diurnal_stream(6, seed=1)
        registry = MetricsRegistry()
        sink = ListSink()
        config = StreamConfig.for_days(2.0, label_dwell=1)
        engine = StreamEngine(config, sinks=[sink], metrics=registry)
        engine.ingest_many(0, times, values)
        engine.flush()

        snap = registry.snapshot()["counters"]
        closes = sink.of_type(WindowClosed)
        assert snap['stream_window_closes_total{partial="false"}'] == len(
            closes
        )
        assert snap["stream_observations_total"] == len(times)
        assert snap["stream_label_transitions_total"] == len(
            sink.of_type(ClassificationTransition)
        )
        assert registry.snapshot()["gauges"]["stream_tracked_blocks"] == 1
        assert snap["stream_rounds_frozen_total"] > 0
        assert snap["stream_dft_reseeds_total"] >= 1

    def test_late_counter_matches_events(self):
        times, values = diurnal_stream(3, seed=2)
        registry = MetricsRegistry()
        sink = ListSink()
        config = StreamConfig.for_days(1.0, lateness_rounds=2)
        engine = StreamEngine(config, sinks=[sink], metrics=registry)
        engine.ingest_many(0, times, values)
        # Replay the first observations far behind the watermark.
        engine.ingest(0, float(times[0]), float(values[0]))
        engine.ingest(0, float(times[1]), float(values[1]))
        engine.flush()  # counters sync at close/flush boundaries
        late = sink.of_type(LateObservation)
        assert len(late) == 2
        snap = registry.snapshot()["counters"]
        assert snap["stream_late_observations_total"] == len(late)
        assert snap["stream_observations_total"] == len(times)

    def test_partial_close_counter(self):
        # 3.5 days with a 2-day window: one full close, a 1.5-day tail
        # (long enough to classify, so the partial close succeeds).
        times, values = diurnal_stream(3.5, seed=3)
        registry = MetricsRegistry()
        config = StreamConfig.for_days(2.0, label_dwell=1)
        engine = StreamEngine(config, metrics=registry)
        engine.ingest_many(0, times, values)
        engine.flush(close_partial=True)
        snap = registry.snapshot()["counters"]
        assert snap['stream_window_closes_total{partial="true"}'] == 1

    def test_close_histogram_and_trace(self):
        times, values = diurnal_stream(4, seed=4)
        registry = MetricsRegistry()
        tracer = Tracer()
        config = StreamConfig.for_days(2.0)
        engine = StreamEngine(config, metrics=registry, tracer=tracer)
        engine.ingest_many(0, times, values)
        engine.flush()
        hist = registry.snapshot()["histograms"]["stream_close_seconds"]
        assert hist["count"] >= 1
        timings = tracer.stage_timings()
        assert timings["stream.close_window"]["count"] == hist["count"]

    def test_manifest(self):
        times, values = diurnal_stream(4, seed=5)
        registry = MetricsRegistry()
        config = StreamConfig.for_days(2.0)
        engine = StreamEngine(config, metrics=registry)
        engine.ingest_many(0, times, values)
        engine.flush()
        manifest = engine.manifest(dataset="synthetic")
        assert manifest.kind == "stream"
        assert manifest.n_blocks == 1
        assert manifest.extra["dataset"] == "synthetic"
        assert manifest.extra["window_rounds"] == config.window_rounds
        assert (
            manifest.metrics["counters"]["stream_observations_total"]
            == len(times)
        )


class TestBatchRunnerMetrics:
    def test_outcome_counters(self):
        blocks = [diurnal_block(0), sparse_block(1), AlwaysBroken()]
        registry = MetricsRegistry()
        runner = BatchRunner(BatchConfig(max_retries=1), metrics=registry)
        result = runner.run(blocks, SCHEDULE, seed=0)
        snap = registry.snapshot()["counters"]
        assert snap['batch_blocks_total{outcome="measured"}'] == 1
        assert snap['batch_blocks_total{outcome="skipped"}'] == 1
        assert snap['batch_blocks_total{outcome="failed"}'] == 1
        # Broken block: 1 first attempt + 1 retry; others 1 attempt each.
        assert snap["batch_attempts_total"] == 4
        assert snap["batch_retries_total"] == 1
        assert len(result.failures) == 1

    def test_checkpoint_counters_and_io_metrics(
        self, tmp_path, installed_registry
    ):
        path = tmp_path / "ckpt.npz"
        runner = BatchRunner(
            BatchConfig(checkpoint_path=path, checkpoint_every=1),
            metrics=installed_registry,
        )
        runner.run([diurnal_block(0), diurnal_block(1)], SCHEDULE, seed=3)
        snap = installed_registry.snapshot()
        assert snap["counters"]["batch_checkpoints_total"] == 2
        assert snap["counters"]["io_checkpoint_saves_total"] == 2
        # Flushes wrote 1 then 2 entries.
        assert snap["counters"]["io_checkpoint_entries_saved_total"] == 3
        assert snap["gauges"]["io_checkpoint_bytes"] == path.stat().st_size
        hist = snap["histograms"]["batch_checkpoint_seconds"]
        assert hist["count"] == 2

        # Resume: everything comes from the checkpoint.
        resumed_reg = MetricsRegistry()
        install_metrics(resumed_reg)
        try:
            runner2 = BatchRunner(
                BatchConfig(checkpoint_path=path, checkpoint_every=1),
                metrics=resumed_reg,
            )
            result = runner2.run(
                [diurnal_block(0), diurnal_block(1)], SCHEDULE, seed=3
            )
        finally:
            install_metrics(installed_registry)
        assert result.n_resumed == 2
        snap2 = resumed_reg.snapshot()["counters"]
        assert snap2["batch_blocks_resumed_total"] == 2
        assert snap2["io_checkpoint_loads_total"] == 1
        assert snap2["io_checkpoint_entries_loaded_total"] == 2
        assert snap2.get("batch_attempts_total", 0) == 0

    def test_manifest_attached(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        runner = BatchRunner(
            BatchConfig(faults=FaultConfig(round_drop_rate=0.05)),
            metrics=registry,
            tracer=tracer,
        )
        result = runner.run([diurnal_block(0)], SCHEDULE, seed=7)
        manifest = result.manifest
        assert manifest is not None
        assert manifest.kind == "batch"
        assert manifest.seed == 7
        assert manifest.n_blocks == 1
        assert "RoundDrop" in manifest.fault_plan
        assert manifest.quality_gates["max_gap_fraction"] == pytest.approx(
            ClassifierConfig().max_gap_fraction
        )
        assert manifest.stage_timings["batch.run"]["count"] == 1
        assert manifest.stage_timings["batch.measure_block"]["count"] == 1

    def test_manifest_without_instrumentation_is_still_attached(self):
        result = BatchRunner().run([diurnal_block(0)], SCHEDULE, seed=1)
        assert result.manifest is not None
        assert result.manifest.fault_plan == "clean (no faults)"
        assert result.manifest.metrics == {
            "counters": {}, "gauges": {}, "histograms": {}, "meters": {},
        }


class TestClassifyMetrics:
    def test_verdict_distribution(self, installed_registry):
        times, values = diurnal_stream(3, seed=8)
        report_diurnal = classify_series(values, ROUND)
        n = int(2 * DAY / ROUND)
        t = np.arange(n) * ROUND
        # 4 cycles/day: all the energy sits in a harmonic, not the
        # diurnal bin, so this is non-diurnal.
        fast = 0.5 + 0.4 * np.sin(2 * np.pi * t / (DAY / 4))
        report_fast = classify_series(fast, ROUND)
        assert report_diurnal.label is DiurnalClass.STRICT
        assert report_fast.label is DiurnalClass.NON_DIURNAL
        snap = installed_registry.snapshot()["counters"]
        by_label = {
            label.value: snap.get(
                f'classify_verdicts_total{{label="{label.value}"}}', 0
            )
            for label in DiurnalClass
        }
        assert sum(by_label.values()) == 2
        assert by_label[DiurnalClass.STRICT.value] == 1
        assert by_label[DiurnalClass.NON_DIURNAL.value] == 1
        hist = installed_registry.snapshot()["histograms"]
        assert hist['classify_fft_seconds{path="single"}']["count"] == 2

    def test_gate_trip_counted(self, installed_registry):
        n = int(2 * DAY / ROUND)
        # Only the first few rounds observed: the quality gate refuses.
        times = np.arange(3) * ROUND
        series, quality = clean_observations(
            times, np.full(3, 0.5), ROUND, 0.0, n
        )
        report = classify_series(series, ROUND, quality=quality)
        assert report.label is DiurnalClass.INSUFFICIENT
        snap = installed_registry.snapshot()["counters"]
        assert snap["classify_quality_gate_trips_total"] == 1
        assert (
            snap['classify_verdicts_total{label="insufficient-data"}'] == 1
        )

    def test_classify_many_counts_batch(self, installed_registry):
        n = int(2 * DAY / ROUND)
        t = np.arange(n) * ROUND
        diurnal = 0.5 + 0.4 * np.sin(2 * np.pi * t / DAY)
        flat = np.full(n, 0.5)
        batch = classify_many(np.vstack([diurnal, flat, flat]), ROUND)
        assert batch.n_blocks == 3
        snap = installed_registry.snapshot()
        total = sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("classify_verdicts_total")
        )
        assert total == 3
        assert (
            snap["histograms"]['classify_fft_seconds{path="batch"}']["count"]
            == 1
        )

    def test_classify_many_counts_batch_under_forced_split(self, installed_registry):
        n = int(2 * DAY / ROUND)
        t = np.arange(n) * ROUND
        diurnal = 0.5 + 0.4 * np.sin(2 * np.pi * t / DAY)
        flat = np.full(n, 0.5)
        broken = np.where(t == ROUND, np.nan, diurnal)
        # Every row is a slice of its own; the call still observes once.
        with forced_split(tile=1):
            classify_many(np.vstack([diurnal, flat, broken, flat]), ROUND)
        snap = installed_registry.snapshot()
        verdicts = [
            v
            for k, v in snap["counters"].items()
            if k.startswith("classify_verdicts_total")
        ]
        assert sum(verdicts) == 4
        assert (
            snap["counters"]['classify_verdicts_total{label="insufficient-data"}']
            == 1
        )
        assert snap["counters"]["classify_nan_refusals_total"] == 1
        assert (
            snap["histograms"]['classify_fft_seconds{path="batch"}']["count"]
            == 1
        )

    def test_timeseries_cleaning_counters(self, installed_registry):
        n = 20
        times = np.arange(n, dtype=np.float64) * ROUND
        keep = np.ones(n, dtype=bool)
        keep[5:8] = False  # a 3-round gap, filled by the hold policy
        series, quality = clean_observations(
            times[keep], np.full(keep.sum(), 0.5), ROUND, 0.0, n
        )
        snap = installed_registry.snapshot()["counters"]
        assert snap["timeseries_cleanings_total"] == 1
        assert snap["timeseries_rounds_observed_total"] == quality.n_observed
        assert snap["timeseries_rounds_filled_total"] == quality.n_filled
        assert quality.n_filled == 3

    def test_uninstall_restores_null(self):
        registry = MetricsRegistry()
        install_metrics(registry)
        uninstall_metrics()
        classify_series(np.full(int(2 * DAY / ROUND), 0.5), ROUND)
        # Binding registered the metric names, but nothing incremented
        # them after uninstall.
        counters = registry.snapshot()["counters"]
        assert all(v == 0 for v in counters.values())


class TestFaultMetrics:
    """Injected events must equal observed stream/oracle deltas exactly."""

    def test_stream_degradation_deltas(self):
        registry = MetricsRegistry()
        plan = FaultPlan(
            FaultConfig(
                round_drop_rate=0.1,
                round_duplicate_rate=0.1,
                gaps_per_day=2.0,
                seed=11,
            ),
            metrics=registry,
        )
        times, values = diurnal_stream(3, seed=12)
        out_times, _ = plan.degrade_stream(times, values, ROUND)
        snap = registry.snapshot()["counters"]
        removed = sum(
            v
            for k, v in snap.items()
            if k.startswith("faults_observations_removed_total")
        )
        added = sum(
            v
            for k, v in snap.items()
            if k.startswith("faults_observations_added_total")
        )
        assert len(times) - removed + added == len(out_times)
        assert removed > 0  # the drop/gap injectors did fire at these rates

    def test_probe_loss_counter_matches_oracle(self):
        registry = MetricsRegistry()
        plan = FaultPlan(
            FaultConfig(probe_loss_rate=0.2, seed=13), metrics=registry
        )
        schedule = RoundSchedule.for_days(1)
        oracle = diurnal_block(0).realize(
            schedule.times(), np.random.default_rng(0)
        )
        lossy = plan.wrap_oracle(oracle)
        hosts = lossy.ever_active
        for r in range(min(50, schedule.n_rounds)):
            lossy.probe_many(hosts, r)
        assert lossy.n_lost > 0
        snap = registry.snapshot()["counters"]
        key = 'faults_probe_losses_total{injector="ProbeLossInjector"}'
        assert snap[key] == lossy.n_lost

    def test_crash_counter_matches_rounds(self):
        registry = MetricsRegistry()
        plan = FaultPlan(
            FaultConfig(crashes_per_day=4.0, seed=14), metrics=registry
        )
        schedule = RoundSchedule.for_days(7)
        crashes = plan.crash_rounds(schedule)
        assert len(crashes) > 0
        snap = registry.snapshot()["counters"]
        key = 'faults_crash_restarts_total{injector="ProberCrashInjector"}'
        assert snap[key] == len(crashes)

    def test_for_block_plans_share_registry(self):
        registry = MetricsRegistry()
        plan = FaultPlan(
            FaultConfig(round_drop_rate=0.2, seed=15), metrics=registry
        )
        times, values = diurnal_stream(2, seed=16)
        for index in range(3):
            plan.for_block(index).degrade_stream(times, values, ROUND)
        snap = registry.snapshot()["counters"]
        key = 'faults_observations_removed_total{injector="RoundDropInjector"}'
        assert snap[key] > 0

    def test_counting_never_perturbs_faults(self):
        """Metrics on or off, a seeded plan degrades identically."""
        times, values = diurnal_stream(3, seed=17)
        config = FaultConfig(
            round_drop_rate=0.1, round_duplicate_rate=0.1, seed=18
        )
        t_null, v_null = FaultPlan(config).degrade_stream(
            times, values, ROUND
        )
        t_inst, v_inst = FaultPlan(
            config, metrics=MetricsRegistry()
        ).degrade_stream(times, values, ROUND)
        assert np.array_equal(t_null, t_inst)
        assert np.array_equal(v_null, v_inst)


class TestReplayMetrics:
    def test_replayed_counter(self, tmp_path, installed_registry):
        path = tmp_path / "ckpt.npz"
        runner = BatchRunner(BatchConfig(checkpoint_path=path))
        runner.run([diurnal_block(0)], SCHEDULE, seed=2)
        n = sum(1 for _ in iter_observation_stream(path))
        assert n > 0
        snap = installed_registry.snapshot()["counters"]
        assert snap["io_replayed_observations_total"] == n
