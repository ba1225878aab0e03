"""The write-ahead journal: framing, torn-tail recovery, idempotent replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import armed, corrupt_file
from repro.faults.corruption import flip_bit, truncate_tail
from repro.faults.crash import InjectedCrash
from repro.stream import (
    JournalRecord,
    StreamJournal,
    read_journal,
    replay_journal,
)


def write_records(path, n, start_seq_check=True):
    with StreamJournal(path) as journal:
        for i in range(n):
            seq = journal.append(i % 5, float(i * 660), 0.25 + 0.01 * i)
            if start_seq_check:
                assert seq == i + 1
    return path


class RecordingEngine:
    """Duck-typed batch ingest target that remembers every observation."""

    def __init__(self):
        self.seen = []
        self.batches = []

    def ingest_batch(self, block_ids, times, values):
        self.batches.append(len(block_ids))
        self.seen.extend(zip(block_ids, times, values))


class TestRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = write_records(tmp_path / "wal", 12)
        records, report = read_journal(path)
        assert len(records) == 12
        assert records[0] == JournalRecord(1, 0, 0.0, 0.25)
        assert report.last_seq == 12
        assert not report.was_torn

    def test_empty_journal(self, tmp_path):
        path = tmp_path / "wal"
        StreamJournal(path).close()
        records, report = read_journal(path)
        assert records == [] and report.last_seq == 0

    def test_reopen_continues_sequence(self, tmp_path):
        path = write_records(tmp_path / "wal", 3)
        with StreamJournal(path) as journal:
            assert journal.recovery.n_records == 3
            assert journal.append(9, 1.0, 0.5) == 4

    def test_append_many(self, tmp_path):
        path = tmp_path / "wal"
        with StreamJournal(path) as journal:
            last = journal.append_many([1, 2], [0.0, 660.0], [0.5, 0.6])
        assert last == 2
        records, _ = read_journal(path)
        assert [r.block_id for r in records] == [1, 2]

    @pytest.mark.parametrize("seqs", [[-5, -4], [-1, 3], [0, 1]])
    def test_append_many_refuses_seqs_not_past_high_water(
        self, tmp_path, seqs
    ):
        # int64 arrays, as the replicated router plans them: a negative
        # seq must not wrap around to a huge uint64 and pass the check.
        path = tmp_path / "wal"
        with StreamJournal(path) as journal:
            with pytest.raises(ValueError, match="high-water 0"):
                journal.append_many([1, 2], [0.0, 660.0], [0.5, 0.6],
                                    seqs=np.array(seqs, dtype=np.int64))
            assert journal.next_seq == 1
            assert journal.append_many(
                [1, 2], [0.0, 660.0], [0.5, 0.6], seqs=[4, 7]
            ) == 7
        assert [r.seq for r in read_journal(path)[0]] == [4, 7]

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "wal"
        path.write_bytes(b"definitely not a journal")
        with pytest.raises(ValueError, match="bad magic"):
            read_journal(path)
        with pytest.raises(ValueError, match="bad magic"):
            StreamJournal(path)

    def test_sync_every_validation(self, tmp_path):
        with pytest.raises(ValueError, match="sync_every"):
            StreamJournal(tmp_path / "wal", sync_every=0)


class FlakyReadBytes:
    """Patchable ``Path.read_bytes`` that fails its first ``n`` calls."""

    def __init__(self, n_failures):
        import pathlib

        self.real = pathlib.Path.read_bytes
        self.left = n_failures
        self.calls = 0

    def __call__(self, path):
        self.calls += 1
        if self.left > 0:
            self.left -= 1
            raise OSError("transient I/O")
        return self.real(path)


class TestOpenRetry:
    def test_open_retry_survives_transient_oserror(self, tmp_path, monkeypatch):
        import pathlib

        from repro.core import RetryPolicy

        path = write_records(tmp_path / "wal", 3)
        flaky = FlakyReadBytes(1)
        monkeypatch.setattr(pathlib.Path, "read_bytes", lambda p: flaky(p))
        with StreamJournal(path, open_retry=RetryPolicy(max_retries=2)) as j:
            assert j.recovery.n_records == 3
        assert flaky.calls == 2

    def test_without_policy_oserror_propagates(self, tmp_path, monkeypatch):
        import pathlib

        path = write_records(tmp_path / "wal", 3)
        flaky = FlakyReadBytes(1)
        monkeypatch.setattr(pathlib.Path, "read_bytes", lambda p: flaky(p))
        with pytest.raises(OSError, match="transient"):
            StreamJournal(path)
        assert flaky.calls == 1

    def test_replay_retry_survives_transient_oserror(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        from repro.core import RetryPolicy

        path = write_records(tmp_path / "wal", 4)
        engine = RecordingEngine()
        flaky = FlakyReadBytes(1)
        monkeypatch.setattr(pathlib.Path, "read_bytes", lambda p: flaky(p))
        replay_journal(path, engine, retry=RetryPolicy(max_retries=1))
        assert len(engine.seen) == 4
        assert flaky.calls == 2

    def test_corruption_is_never_retried(self, tmp_path, monkeypatch):
        # Bad magic is a ValueError — structural damage, not transient
        # I/O — and must fail fast no matter how generous the policy.
        import pathlib

        from repro.core import RetryPolicy

        path = tmp_path / "wal"
        path.write_bytes(b"definitely not a journal")
        flaky = FlakyReadBytes(0)
        monkeypatch.setattr(pathlib.Path, "read_bytes", lambda p: flaky(p))
        with pytest.raises(ValueError, match="bad magic"):
            StreamJournal(path, open_retry=RetryPolicy(max_retries=5))
        assert flaky.calls == 1


class TestTornTailRecovery:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = write_records(tmp_path / "wal", 10)
        truncate_tail(path, 11)
        journal = StreamJournal(path)
        assert journal.recovery.n_records == 9
        assert journal.recovery.was_torn
        assert journal.recovery.reason == "torn frame payload"
        assert journal.append(7, 0.0, 0.9) == 10
        journal.close()
        records, report = read_journal(path)
        assert len(records) == 10 and not report.was_torn

    def test_crc_damage_truncates_from_damage_point(self, tmp_path):
        path = write_records(tmp_path / "wal", 10)
        flip_bit(path, -10)
        journal = StreamJournal(path)
        assert journal.recovery.n_records == 9
        assert journal.recovery.reason == "frame CRC mismatch"
        journal.close()

    def test_zero_length_file_reinitializes(self, tmp_path):
        path = write_records(tmp_path / "wal", 4)
        corrupt_file(path, "zero-length")
        journal = StreamJournal(path)
        assert journal.recovery.n_records == 0
        assert journal.next_seq == 1
        journal.close()

    def test_sub_header_file_reinitializes(self, tmp_path):
        path = tmp_path / "wal"
        path.write_bytes(b"RPW")  # torn mid-header
        journal = StreamJournal(path)
        assert journal.recovery.reason == "torn file header"
        journal.close()

    def test_read_journal_does_not_repair(self, tmp_path):
        path = write_records(tmp_path / "wal", 5)
        size_before = path.stat().st_size
        truncate_tail(path, 3)
        read_journal(path)
        assert path.stat().st_size == size_before - 3

    def test_torn_append_crash_recovers_cleanly(self, tmp_path):
        path = tmp_path / "wal"
        journal = StreamJournal(path)
        with armed("journal.mid_append", hits=4):
            with pytest.raises(InjectedCrash):
                for i in range(10):
                    journal.append(i, float(i), 0.5)
                    journal.flush()
        # Three full frames plus half of the fourth reached the file.
        recovered = StreamJournal(path)
        assert recovered.recovery.n_records == 3
        assert recovered.recovery.was_torn
        assert recovered.next_seq == 4
        recovered.close()


class TestIdempotentReplay:
    def test_replay_applies_all_once(self, tmp_path):
        path = write_records(tmp_path / "wal", 8)
        engine = RecordingEngine()
        last = replay_journal(path, engine)
        assert last == 8 and len(engine.seen) == 8

    def test_replay_twice_is_a_noop(self, tmp_path):
        path = write_records(tmp_path / "wal", 8)
        engine = RecordingEngine()
        last = replay_journal(path, engine)
        again = replay_journal(path, engine, after_seq=last)
        assert again == last and len(engine.seen) == 8

    def test_resume_skips_already_applied(self, tmp_path):
        path = write_records(tmp_path / "wal", 8)
        engine = RecordingEngine()
        replay_journal(path, engine)  # crashed engine got everything...
        survivor = RecordingEngine()
        survivor.seen = engine.seen[:5]  # ...but only durably kept 5
        last = replay_journal(path, survivor, after_seq=5)
        assert last == 8
        assert survivor.seen == engine.seen


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=0,
        max_size=25,
    ),
    data=st.data(),
)
def test_recovery_under_arbitrary_crash_prefix(tmp_path_factory, values, data):
    """Cut the journal at *any* byte; recover; finish; nothing is lost twice.

    For every crash prefix: the recovered journal holds an exact prefix
    of the original records, re-appending the remainder reproduces the
    uninterrupted journal, and seq-guarded replay applies each record
    exactly once.
    """
    tmp_path = tmp_path_factory.mktemp("wal")
    path = tmp_path / "wal"
    with StreamJournal(path) as journal:
        for i, value in enumerate(values):
            journal.append(i % 3, float(i * 660), value)
    original, _ = read_journal(path)
    raw = path.read_bytes()

    cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
    path.write_bytes(raw[:cut])

    journal = StreamJournal(path)
    recovered = journal.recovery.n_records
    assert original[:recovered] == read_journal(path)[0]

    # The writer resumes exactly where the intact records end.
    for record in original[recovered:]:
        journal.append(record.block_id, record.time_s, record.value)
    journal.close()
    assert read_journal(path)[0] == original

    # Replay after a crash-interrupted replay applies each record once.
    engine = RecordingEngine()
    applied = data.draw(st.integers(min_value=0, max_value=len(original)))
    engine.seen = [
        (r.block_id, r.time_s, r.value) for r in original[:applied]
    ]
    replay_journal(path, engine, after_seq=applied)
    assert engine.seen == [
        (r.block_id, r.time_s, r.value) for r in original
    ]


def test_journal_feeds_stream_engine(tmp_path):
    """End to end: replaying the journal reproduces the live verdicts."""
    from repro.core import reports_equal
    from repro.stream import ListSink, StreamConfig, StreamEngine, WindowClosed

    rng = np.random.default_rng(11)
    config = StreamConfig.for_days(1)
    n = 2 * config.window_rounds
    day = 24 * 3600.0

    path = tmp_path / "wal"
    direct_sink = ListSink()
    direct = StreamEngine(config, sinks=[direct_sink])
    with StreamJournal(path) as journal:
        for i in range(n):
            t = i * config.round_s
            value = float(
                np.clip(
                    0.5 + 0.3 * np.sin(2 * np.pi * t / day) + rng.normal(0, 0.02),
                    0,
                    1,
                )
            )
            journal.append(3, t, value)
            direct.ingest(3, t, value)

    replay_sink = ListSink()
    replayed = StreamEngine(config, sinks=[replay_sink])
    replay_journal(path, replayed)

    direct_closes = direct_sink.of_type(WindowClosed)
    replay_closes = replay_sink.of_type(WindowClosed)
    assert len(direct_closes) == len(replay_closes) >= 1
    for a, b in zip(direct_closes, replay_closes):
        assert reports_equal(a.report, b.report)
