"""Replication tests: quorum reads, hinted handoff, failover parity.

The acceptance property for ``replication=2``: one shard hard-killed
during sustained ingest costs *zero* errors — every write of the dead
shard's keys is accepted (flagged ``degraded``, copies parked as
hinted handoff), every read answers from the surviving replica
(flagged ``partial``), and once the shard respawns, replays its
journal, and anti-entropy syncs the hints, both replicas' journals are
bit-identical and every served verdict matches the offline batch
oracle (:func:`repro.stream.engine.batch_window_report`).

Write accounting stays three-way and explicit: backpressure rejects
the whole observation (429 at the API), a fully dead chain rejects it
(503), and a partially dead chain accepts it as degraded — all three
visible in /metrics.
"""

import pytest

from repro.core.retry import RetryPolicy
from repro.faults import crash
from repro.obs import MetricsRegistry
from repro.serve import ServiceRunner, ShardDownError
from repro.stream.journal import read_journal
from repro.stream.overload import OverloadConfig

from tests.test_serve_api import make_harness
from tests.test_serve_service import (
    N_BLOCKS,
    hints_dropped,
    WINDOW,
    ROUND,
    interleaved,
    oracle_report,
    service_config,
)

PARKED = RetryPolicy(base_delay_s=120.0)  # respawn far off: death observable


def replicated_config(tmp_path, **overrides):
    defaults = dict(n_shards=2, replication=2)
    defaults.update(overrides)
    return service_config(tmp_path, **defaults)


@pytest.fixture
def runner(tmp_path):
    instance = ServiceRunner(
        replicated_config(tmp_path), metrics=MetricsRegistry()
    )
    yield instance
    instance.stop(drain=False)


@pytest.mark.watchdog(120)
def test_replicated_ingest_reads_full_quorum_and_matches_oracle(runner):
    runner.start()
    report = runner.ingest(interleaved(2 * WINDOW))
    assert report["accepted"] == N_BLOCKS * 2 * WINDOW
    assert report["rejected"] == 0
    assert not report["degraded"] and report["hinted"] == 0
    runner.flush()
    for block_id in range(N_BLOCKS):
        result = runner.query_block_ex(block_id)
        assert result["replication"] == 2
        assert result["replicas_answered"] == 2
        assert not result["partial"] and not result["stale"]
        expected = oracle_report(block_id, 2 * WINDOW, WINDOW)
        assert result["snapshot"]["last_report"] == expected, block_id
    fleet = runner.fleet_snapshot()
    assert fleet["replication"] == 2
    assert fleet["hint_backlog"] == 0


@pytest.mark.watchdog(120)
def test_degraded_writes_and_partial_reads_while_one_replica_dead(tmp_path):
    runner = ServiceRunner(
        replicated_config(tmp_path, respawn_backoff=PARKED),
        metrics=MetricsRegistry(),
    )
    try:
        runner.start()
        assert runner.ingest(interleaved(WINDOW))["rejected"] == 0
        victim = runner.owner(0)
        runner.kill_shard(victim)

        # Writes: accepted + degraded, the dead replica's copies hinted.
        more = interleaved(WINDOW, start_round=WINDOW)
        report = runner.ingest(more)
        assert report["accepted"] == len(more)
        assert report["rejected"] == 0 and not report["down"]
        assert report["degraded"]
        assert report["hinted"] >= len(more)  # retro-hints may add more
        assert runner.fleet_snapshot()["hint_backlog"] == report["hinted"]

        # Reads: the survivor answers, flagged partial, never stale.
        runner.flush()
        for block_id in range(N_BLOCKS):
            result = runner.query_block_ex(block_id)
            assert result["replicas_answered"] == 1
            assert result["partial"] and not result["stale"]
            expected = oracle_report(block_id, 2 * WINDOW, WINDOW)
            assert result["snapshot"]["last_report"] == expected, block_id
        phase_map = runner.phase_map()
        assert not phase_map["partial"]  # one dead shard < R: full map
        assert victim in phase_map["missing_shards"]

        # All three write outcomes + read degradation are in /metrics.
        text = runner.metrics_text()
        assert "service_ingest_degraded_total" in text
        assert 'service_hints_total{outcome="stored"}' in text
        assert "service_hint_backlog" in text
        assert 'service_reads_degraded_total{mode="partial"}' in text

        # Total chain loss is the only 503: kill the survivor too.
        survivor = next(s for s in runner.owners(0) if s != victim)
        runner.kill_shard(survivor)
        down = runner.ingest([(0, 100 * ROUND, 0.5)])
        assert down["rejected"] == 1 and down["down"]
        with pytest.raises(ShardDownError):
            runner.query_block(0)
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
def test_backpressure_rejects_whole_observation_under_replication(tmp_path):
    """A paused live replica rejects the *observation*, not one copy —
    replicas must never diverge through the admission controller."""
    config = replicated_config(
        tmp_path,
        overload=OverloadConfig(
            capacity=64, high_watermark=0.5, low_watermark=0.25
        ),
        pump_budget=1,
    )
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    try:
        runner.start()
        burst = [(7, r * ROUND, 0.5) for r in range(60)]
        first = runner.ingest(burst)
        assert first["accepted"] == 60
        second = runner.ingest([(7, 61 * ROUND, 0.5)])
        assert second["accepted"] == 0 and second["rejected"] == 1
        assert second["backpressure"] and not second["degraded"]
        assert second["hinted"] == 0
        runner.flush()
        third = runner.ingest([(7, 61 * ROUND, 0.5)])
        assert third["accepted"] == 1 and not third["backpressure"]
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
def test_every_replica_dying_mid_rpc_rejects_without_hints(tmp_path):
    """Both replicas die inside the same ingest RPC (the crash point
    fires once in *each* worker): every observation is rejected as
    ``shard_down``, and because a rejected observation is owed to no
    one, nothing is hinted, dropped, or marked stale."""
    runner = ServiceRunner(replicated_config(tmp_path), metrics=MetricsRegistry())
    try:
        with crash.armed("serve.shard.journaled", action="exit"):
            runner.start()
            report = runner.ingest(interleaved(2))
        assert report["accepted"] == 0
        assert report["rejected"] == N_BLOCKS * 2 and report["down"]
        assert report["hinted"] == 0 and not report["degraded"]
        assert hints_dropped(runner) == 0
        assert not any(
            entry["stale"]
            for entry in runner.fleet_snapshot()["shards"].values()
        )
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(180)
def test_kill_during_ingest_zero_errors_and_bit_identical_rejoin(tmp_path):
    """The availability acceptance criterion (R=2, one SIGKILL).

    A shard killed mid-stream must cost zero failed writes and zero
    failed reads of its keys; after respawn + journal replay + hint
    sync, both replicas' journals are bit-identical and every verdict
    matches the batch oracle over the full series.
    """
    config = replicated_config(tmp_path)
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    try:
        runner.start()
        assert runner.ingest(interleaved(36))["rejected"] == 0
        victim = runner.owner(0)
        runner.kill_shard(victim)

        # Writes land while the shard is dead: accepted, never rejected.
        during = runner.ingest(interleaved(6, start_round=36))
        assert during["rejected"] == 0 and not during["down"]
        assert during["accepted"] == N_BLOCKS * 6
        # Reads of the dead shard's keys answer from the survivor.
        assert runner.query_block(0) is not None

        assert runner.wait_healthy(timeout_s=60.0), "shard never rejoined"
        after = runner.ingest(interleaved(6, start_round=42))
        assert after["rejected"] == 0

        runner.flush()
        for block_id in range(N_BLOCKS):
            result = runner.query_block_ex(block_id)
            assert result["replicas_answered"] == 2
            assert not result["partial"] and not result["stale"]
            expected = oracle_report(block_id, 48, WINDOW)
            assert result["snapshot"]["last_report"] == expected, block_id
        fleet = runner.fleet_snapshot()
        assert fleet["hint_backlog"] == 0
        assert all(
            entry["healthy"] and not entry["stale"]
            for entry in fleet["shards"].values()
        )
    finally:
        report = runner.stop(drain=True)
    # Bit-identical replicas: after drain, both journals hold the same
    # record stream (every observation, in destination-seq order).
    assert report is not None
    journals = [
        read_journal(config.journal_path(shard_id))
        for shard_id in range(config.n_shards)
    ]
    for records, recovery in journals:
        assert recovery.truncated_bytes == 0 and recovery.reason == ""
        assert len(records) == N_BLOCKS * 48
    assert journals[0][0] == journals[1][0]


@pytest.mark.watchdog(120)
def test_drain_flushes_hints_into_dead_replica_journal(tmp_path):
    """Graceful drain must not strand hinted handoff: copies owed to a
    still-dead replica are appended straight to its journal, so a full
    service restart recovers both replicas complete."""
    config = replicated_config(tmp_path, respawn_backoff=PARKED)
    first = ServiceRunner(config, metrics=MetricsRegistry())
    first.start()
    first.ingest(interleaved(WINDOW))
    victim = first.owner(0)
    first.kill_shard(victim)
    hinted = first.ingest(interleaved(WINDOW, start_round=WINDOW))["hinted"]
    assert hinted >= N_BLOCKS * WINDOW
    report = first.stop(drain=True)
    assert report["hints_flushed"].get(victim, 0) >= N_BLOCKS * WINDOW

    # The dead replica's journal now holds the full stream, clean tail.
    records, recovery = read_journal(config.journal_path(victim))
    assert recovery.truncated_bytes == 0 and recovery.reason == ""
    assert len(records) == N_BLOCKS * 2 * WINDOW

    second = ServiceRunner(replicated_config(tmp_path))
    try:
        ready = second.start()
        assert sum(info["n_replayed"] for info in ready.values()) == (
            2 * N_BLOCKS * 2 * WINDOW  # every observation, on both replicas
        )
        second.flush()
        for block_id in range(N_BLOCKS):
            result = second.query_block_ex(block_id)
            assert result["replicas_answered"] == 2
            expected = oracle_report(block_id, 2 * WINDOW, WINDOW)
            assert result["snapshot"]["last_report"] == expected, block_id
    finally:
        second.stop(drain=False)


@pytest.mark.watchdog(120)
def test_api_exposes_freshness_and_degradation_headers(tmp_path):
    harness = make_harness(
        tmp_path,
        replication=2,
        shard_deadline_s=10.0,
        respawn_backoff=PARKED,
    )
    try:
        observations = [list(t) for t in interleaved(WINDOW)]
        status, report, headers = harness.request(
            "POST", "/observations", {"observations": observations}
        )
        assert status == 200 and "X-Write-Degraded" not in headers
        harness.runner.flush()
        status, _state, headers = harness.request("GET", "/blocks/0/state")
        assert status == 200
        assert headers["X-Replication"] == "2"
        assert headers["X-Replicas-Answered"] == "2"
        assert headers["X-Read-Partial"] == "0"
        assert headers["X-Read-Stale"] == "0"

        harness.runner.kill_shard(harness.runner.owner(0))
        status, report, headers = harness.request(
            "POST", "/observations",
            {"observations": [[0, (WINDOW + 1) * ROUND, 0.5]]},
        )
        assert status == 200 and report["degraded"]
        assert headers["X-Write-Degraded"] == "1"
        status, _state, headers = harness.request("GET", "/blocks/0/state")
        assert status == 200
        assert headers["X-Replicas-Answered"] == "1"
        assert headers["X-Read-Partial"] == "1"
    finally:
        harness.close()
