"""End-to-end tests for the sharded service core (repro.serve.runner).

The acceptance property is **query-during-ingest parity**: every
verdict the service serves — including after a shard is hard-killed
mid-stream, respawned, and recovered from its journal — must be
bit-identical to the offline batch oracle
(:func:`repro.stream.engine.batch_window_report`) over the same raw
observations.  The service layer (routing, journaling, respawn,
drain) must be verdict-invisible.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.retry import RetryPolicy
from repro.faults import crash
from repro.obs import MetricsRegistry
from repro.obs.alerts import default_service_rules
from repro.serve import ServiceConfig, ServiceRunner, ShardDownError
from repro.obs.tracing import Tracer
from repro.serve.shard import _report_to_dict
from repro.stream.engine import StreamConfig, batch_window_report
from repro.stream.journal import read_journal
from repro.stream.overload import OverloadConfig

ROUND = 3600.0  # 1-hour rounds: 24 rounds/day keeps tests to O(100) obs
DAY = 86400.0
WINDOW = 24  # tumbling one-day windows

N_BLOCKS = 8


def stream_config() -> StreamConfig:
    return StreamConfig(window_rounds=WINDOW, round_s=ROUND)


def service_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        stream=stream_config(),
        journal_dir=tmp_path / "journals",
        n_shards=2,
        seed=11,
        shard_deadline_s=10.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def block_series(block_id: int, n_rounds: int):
    """Per-block synthetic stream; shape and noise vary per block."""
    rng = np.random.default_rng(1000 + block_id)
    times = np.arange(n_rounds) * ROUND
    amplitude = 0.0 if block_id % 3 == 0 else 0.35
    values = (
        0.5
        + amplitude * np.sin(2.0 * np.pi * times / DAY + 0.3 * block_id)
        + 0.02 * rng.standard_normal(n_rounds)
    )
    return times, values


def interleaved(n_rounds: int, start_round: int = 0):
    """All blocks' observations in arrival (time) order."""
    out = []
    for block_id in range(N_BLOCKS):
        times, values = block_series(block_id, n_rounds + start_round)
        for r in range(start_round, start_round + n_rounds):
            out.append((block_id, float(times[r]), float(values[r])))
    out.sort(key=lambda triple: (triple[1], triple[0]))
    return out


def oracle_report(block_id: int, n_rounds: int, window_start: int) -> dict:
    times, values = block_series(block_id, n_rounds)
    report, _quality = batch_window_report(
        times, values, window_start, WINDOW, stream_config()
    )
    return _report_to_dict(report)


@pytest.fixture
def runner(tmp_path):
    instance = ServiceRunner(service_config(tmp_path))
    yield instance
    instance.stop(drain=False)


@pytest.mark.watchdog(120)
def test_ingest_then_query_matches_batch_oracle(runner):
    runner.start()
    report = runner.ingest(interleaved(2 * WINDOW))
    assert report["accepted"] == N_BLOCKS * 2 * WINDOW
    assert report["rejected"] == 0
    runner.flush()
    for block_id in range(N_BLOCKS):
        snapshot = runner.query_block(block_id)
        assert snapshot["shard_id"] == runner.owner(block_id)
        assert snapshot["n_closed"] == 2
        expected = oracle_report(block_id, 2 * WINDOW, WINDOW)
        assert snapshot["last_report"] == expected, block_id
        assert snapshot["stable_label"] is not None
    assert runner.query_block(10**9) is None  # untracked, not an error
    phase_map = runner.phase_map()
    assert not phase_map["partial"]
    for block_id, entry in phase_map["blocks"].items():
        expected = oracle_report(block_id, 2 * WINDOW, WINDOW)
        assert entry["label"] == expected["label"]
        assert entry["phase"] == expected["phase"]


@pytest.mark.watchdog(180)
def test_kill_respawn_replay_preserves_parity(runner):
    """The acceptance criterion: a mid-stream shard death is invisible.

    Kill a shard after 1.5 windows, let the supervisor respawn it and
    replay its journal, stream the remainder, and require verdicts
    bit-identical to the offline oracle over the full series.
    """
    runner.start()
    first = runner.ingest(interleaved(36))
    assert first["rejected"] == 0
    victim = runner.owner(0)
    runner.kill_shard(victim)
    assert runner.wait_healthy(timeout_s=60.0), "shard never rejoined"
    second = runner.ingest(interleaved(12, start_round=36))
    assert second["rejected"] == 0
    runner.flush()
    for block_id in range(N_BLOCKS):
        snapshot = runner.query_block(block_id)
        expected = oracle_report(block_id, 48, WINDOW)
        assert snapshot["last_report"] == expected, block_id
        assert snapshot["n_closed"] == 2
    fleet = runner.fleet_snapshot()
    assert fleet["respawns"] >= 1
    assert fleet["shards"][str(victim)]["respawns"] >= 1
    assert all(entry["healthy"] for entry in fleet["shards"].values())


@pytest.mark.watchdog(120)
def test_small_acked_batch_survives_sigkill(runner):
    """Write-ahead means OS-visible, not user-space-buffered.

    A batch far smaller than the stdio buffer must still be on disk
    once acked: kill the owner immediately after a 2-observation
    ingest and require the respawned shard to have replayed it.
    Regression for the settle()-before-ack ordering — without it this
    batch dies in the worker's buffer and the block vanishes.
    """
    runner.start()
    report = runner.ingest([(5, 0.0, 0.5), (5, ROUND, 0.6)])
    assert report["accepted"] == 2
    runner.kill_shard(runner.owner(5))
    assert runner.wait_healthy(timeout_s=60.0)
    snapshot = runner.query_block(5)
    assert snapshot is not None
    assert snapshot["n_observations"] == 2


def hints_dropped(runner) -> float:
    return runner.metrics.counter(
        "service_hints_total", outcome="dropped"
    ).value


@pytest.mark.watchdog(120)
def test_shard_death_mid_rpc_rejects_unacked_tail_without_stale(tmp_path):
    """R=1: a shard that dies mid-RPC costs exactly its un-acked tail.

    The second ingest chunk of whichever shard gets there first kills
    that worker after journaling.  Its acked first chunk stays
    accepted, the rest is rejected as ``shard_down``, and nothing is
    hinted: with no other chain member there is no holder, and a
    rejected observation is owed to no one — so the slot must not go
    stale and no hint may be counted as dropped.
    """
    chunk = 8
    config = service_config(tmp_path, max_batch=chunk)
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    observations = interleaved(8)  # 64 observations over both shards
    sizes = Counter(runner.owner(block_id) for block_id, _, _ in observations)
    assert len(sizes) == 2 and min(sizes.values()) > chunk
    try:
        with crash.armed(
            "serve.shard.journaled", hits=2, action="exit",
            marker=tmp_path / "crash.marker",
        ):
            runner.start()
            report = runner.ingest(observations)
        failed = [
            sid for sid, entry in report["shards"].items()
            if entry["reason"] == "shard_down"
        ]
        assert len(failed) == 1
        victim = failed[0]
        entry = report["shards"][victim]
        assert entry["accepted"] == chunk
        assert entry["rejected"] == sizes[victim] - chunk
        assert report["down"] and report["hinted"] == 0
        assert report["rejected"] == sizes[victim] - chunk
        assert report["accepted"] == len(observations) - report["rejected"]
        assert not runner.fleet_snapshot()["shards"][str(victim)]["stale"]
        assert runner.wait_healthy(timeout_s=60.0)
        fleet = runner.fleet_snapshot()
        assert not any(e["stale"] for e in fleet["shards"].values())
        assert hints_dropped(runner) == 0
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
@pytest.mark.parametrize("replication", [1, 2])
def test_route_span_covers_chain_planning(tmp_path, replication):
    """The ``route`` span opens before the first replica-chain lookup,
    so it covers the whole ingest call (planning included)."""
    tracer = Tracer()
    runner = ServiceRunner(
        service_config(tmp_path, replication=replication), tracer=tracer
    )
    lookups = []
    chain = runner._chain

    def spy(block_id):
        lookups.append(time.perf_counter())
        return chain(block_id)

    try:
        runner.start()
        runner._chain = spy
        t0 = time.perf_counter()
        runner.ingest(interleaved(2))
        t1 = time.perf_counter()
        routes = [span for span in tracer.roots if span.name == "route"]
        assert len(routes) == 1 and lookups
        route = routes[0]
        assert t0 <= route.start_s < lookups[0]
        assert lookups[-1] < route.start_s + route.duration_s <= t1
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
def test_graceful_drain_flushes_queues_and_journals(tmp_path):
    config = service_config(tmp_path)
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    runner.start()
    accepted = runner.ingest(interleaved(WINDOW))["accepted"]
    report = runner.stop(drain=True)
    assert report is not None
    total_journaled = 0
    for shard_id, shard_report in report["shards"].items():
        assert shard_report["drained"], shard_report
        assert shard_report["depth"] == 0  # queue pumped dry
        records, recovery = read_journal(config.journal_path(shard_id))
        assert recovery.truncated_bytes == 0  # fsynced, no torn tail
        assert recovery.reason == ""
        assert len(records) == shard_report["journal_last_seq"]
        total_journaled += len(records)
    assert total_journaled == accepted
    manifest = json.loads(
        (config.journal_path(0).parent / "service-manifest.json").read_text()
    )
    assert manifest["kind"] == "service"
    assert manifest["extra"]["n_shards"] == config.n_shards


@pytest.mark.watchdog(120)
def test_restart_recovers_state_from_journals(tmp_path):
    """A full service restart replays every shard's journal."""
    config = service_config(tmp_path)
    first = ServiceRunner(config)
    first.start()
    first.ingest(interleaved(2 * WINDOW))
    first.stop(drain=True)

    second = ServiceRunner(service_config(tmp_path))
    try:
        ready = second.start()
        assert sum(info["n_replayed"] for info in ready.values()) == (
            N_BLOCKS * 2 * WINDOW
        )
        second.flush()
        for block_id in range(N_BLOCKS):
            snapshot = second.query_block(block_id)
            expected = oracle_report(block_id, 2 * WINDOW, WINDOW)
            assert snapshot["last_report"] == expected, block_id
    finally:
        second.stop(drain=False)


@pytest.mark.watchdog(120)
def test_backpressure_rejects_then_releases(tmp_path):
    config = service_config(
        tmp_path,
        n_shards=1,
        overload=OverloadConfig(
            capacity=64, high_watermark=0.5, low_watermark=0.25
        ),
        pump_budget=1,  # queue drains slowly: backpressure is observable
    )
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    try:
        runner.start()
        burst = [(7, r * ROUND, 0.5) for r in range(60)]
        first = runner.ingest(burst)
        assert first["accepted"] == 60
        assert first["shards"][0]["paused"]  # queue past high watermark
        second = runner.ingest([(7, 61 * ROUND, 0.5)])
        assert second["accepted"] == 0
        assert second["rejected"] == 1
        assert second["backpressure"]
        assert second["shards"][0]["reason"] == "backpressure"
        runner.flush()  # drains the admission queue fully
        third = runner.ingest([(7, 61 * ROUND, 0.5)])
        assert third["accepted"] == 1
        assert not third["backpressure"]
        text = runner.metrics_text()
        assert "service_ingest_rejected_total" in text
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
def test_down_shard_rejects_queries_and_ingest(tmp_path):
    """While the owner is out of the ring: 503 semantics, no silence."""
    config = service_config(
        tmp_path,
        n_shards=2,
        # Park the respawn far in the future so "down" is observable.
        respawn_backoff=RetryPolicy(base_delay_s=120.0),
    )
    runner = ServiceRunner(config)
    try:
        runner.start()
        runner.ingest(interleaved(WINDOW))
        victim = runner.owner(0)
        runner.kill_shard(victim)
        assert not runner.healthy
        with pytest.raises(ShardDownError):
            runner.query_block(0)
        report = runner.ingest([(0, 100 * ROUND, 0.5)])
        assert report["down"] and report["rejected"] == 1
        phase_map = runner.phase_map()
        assert phase_map["partial"]
        assert victim in phase_map["missing_shards"]
        fleet = runner.fleet_snapshot()
        assert not fleet["shards"][str(victim)]["healthy"]
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
def test_respawn_metrics_and_alert_rules(tmp_path):
    runner = ServiceRunner(
        service_config(tmp_path),
        metrics=MetricsRegistry(),
        alert_rules=default_service_rules(max_respawns=0.5),
    )
    try:
        runner.start()
        runner.ingest(interleaved(WINDOW))
        runner.kill_shard(runner.owner(0))
        assert runner.wait_healthy(timeout_s=60.0)
        deadline = time.monotonic() + 30.0
        fired = []
        while time.monotonic() < deadline and not fired:
            fired = runner.alerts.firing()
            time.sleep(0.05)
        assert "service-respawn-storm" in fired
        text = runner.metrics_text()
        assert "service_shard_respawns_total" in text
        assert "service_ingest_observations_total" in text
    finally:
        runner.stop(drain=False)


def test_placement_is_deterministic_across_instances(tmp_path):
    a = ServiceRunner(service_config(tmp_path, n_shards=4))
    b = ServiceRunner(service_config(tmp_path, n_shards=4))
    keys = range(512)
    assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]
    spread = set(a.owner(k) for k in keys)
    assert spread == set(range(4))


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        service_config(tmp_path, n_shards=0)
    with pytest.raises(ValueError):
        service_config(tmp_path, max_batch=0)
    with pytest.raises(ValueError):
        service_config(tmp_path, shard_deadline_s=0.0)
