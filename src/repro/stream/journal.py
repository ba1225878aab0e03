"""Write-ahead journal for streaming observations.

The streaming engine classifies from in-memory ring buffers, so a crash
loses every observation since the last checkpoint.  The journal closes
that hole the way databases do: append each observation to a
length-prefixed, CRC-framed log *before* (or while) it is ingested, and
on restart recover the log and replay it into a fresh engine.

Frame format (all little-endian)::

    file   := header frame*
    header := magic(4) version(u16) pad(u16)          # 8 bytes
    frame  := length(u32) crc32(u32) payload          # length = len(payload)
    payload:= seq(u64) block_id(i64) time_s(f64) value(f64)   # 32 bytes

Durability properties:

* **append-only** — a crash can only damage the tail, never rewrite
  history;
* **torn-tail recovery** — on open, the log is scanned frame by frame;
  the first frame with a short read or CRC mismatch marks the valid
  end, and everything after it is truncated away (a torn append is
  indistinguishable from an append that never happened, which is the
  correct semantics for a write-*ahead* log);
* **idempotent replay** — every record carries a monotonically
  increasing sequence number, so :func:`replay_journal` can skip
  records at or below a resume point and re-running a replay applies
  nothing twice;
* **caller-assigned sequences** — :meth:`StreamJournal.append` /
  :meth:`StreamJournal.append_many` accept explicit ``seq`` values so a
  replicated router can journal every replica of an observation under
  one per-replica-stream sequence number.  Sequences must stay strictly
  increasing but may be *gapped* (a shard journals only the subsequence
  of its stream that it owns); replay and torn-tail recovery only rely
  on monotonicity, never density.

Crash points (``journal.append.begin`` / ``journal.mid_append`` /
``journal.append.done``) let the chaos harness kill a writer halfway
through a frame and assert recovery truncates exactly the torn bytes.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.retry import RetryPolicy
from repro.faults.crash import any_armed, crashpoint
from repro.obs.registry import NULL_REGISTRY

__all__ = [
    "JournalRecord",
    "RecoveryReport",
    "StreamJournal",
    "read_journal",
    "replay_journal",
]

_MAGIC = b"RPWJ"
# Records per ``ingest_batch`` call when replaying a journal.
_REPLAY_CHUNK = 65536
_VERSION = 1
_HEADER = struct.Struct("<4sHH")
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_PAYLOAD = struct.Struct("<Qqdd")  # seq, block_id, time_s, value

# Journals only ever carry fixed-size observation payloads today; a
# frame claiming more is damage, not data (guards the scanner against
# allocating garbage lengths from a corrupted length field).
_MAX_PAYLOAD = 4096

# Vectorized framing for append_many: one packed row per frame, laid
# out exactly as the struct formats above (little-endian, no padding).
_PAYLOAD_DTYPE = np.dtype(
    {
        "names": ["seq", "block_id", "time_s", "value"],
        "formats": ["<u8", "<i8", "<f8", "<f8"],
    }
)
_FRAME_DTYPE = np.dtype(
    {
        "names": ["length", "crc", "seq", "block_id", "time_s", "value"],
        "formats": ["<u4", "<u4", "<u8", "<i8", "<f8", "<f8"],
    }
)
assert _PAYLOAD_DTYPE.itemsize == _PAYLOAD.size
assert _FRAME_DTYPE.itemsize == _FRAME.size + _PAYLOAD.size


@dataclass(frozen=True)
class JournalRecord:
    """One durably logged observation."""

    seq: int
    block_id: int
    time_s: float
    value: float


@dataclass(frozen=True)
class RecoveryReport:
    """What opening an existing journal found (and repaired).

    ``truncated_bytes`` is how many torn-tail bytes were discarded;
    ``reason`` says why the tail was invalid (empty string for a clean
    log).  ``last_seq`` is 0 for an empty journal.
    """

    n_records: int
    last_seq: int
    truncated_bytes: int
    reason: str = ""

    @property
    def was_torn(self) -> bool:
        return self.truncated_bytes > 0


class _JournalMetrics:
    __slots__ = ("appends", "recovered", "torn_bytes", "replayed", "skipped")

    def __init__(self, registry) -> None:
        self.appends = registry.counter("journal_appends_total")
        self.recovered = registry.counter("journal_records_recovered_total")
        self.torn_bytes = registry.counter("journal_torn_bytes_total")
        self.replayed = registry.counter("journal_records_replayed_total")
        self.skipped = registry.counter(
            "journal_records_skipped_total", reason="already_applied"
        )


def _scan(raw: bytes) -> tuple[list[JournalRecord], int, str]:
    """Walk frames in ``raw`` (header already verified).

    Returns ``(records, valid_end, reason)`` where ``valid_end`` is the
    offset just past the last intact frame and ``reason`` describes the
    first invalid tail (empty if the whole log is intact).
    """
    records: list[JournalRecord] = []
    offset = _HEADER.size
    while offset < len(raw):
        if offset + _FRAME.size > len(raw):
            return records, offset, "torn frame header"
        length, crc = _FRAME.unpack_from(raw, offset)
        if length > _MAX_PAYLOAD:
            return records, offset, f"implausible frame length {length}"
        start = offset + _FRAME.size
        end = start + length
        if end > len(raw):
            return records, offset, "torn frame payload"
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            return records, offset, "frame CRC mismatch"
        if length != _PAYLOAD.size:
            return records, offset, f"unknown payload size {length}"
        seq, block_id, time_s, value = _PAYLOAD.unpack(payload)
        records.append(JournalRecord(seq, block_id, time_s, value))
        offset = end
    return records, offset, ""


class StreamJournal:
    """Appendable, crash-recovering observation log.

    Opening an existing file scans and repairs it (torn tail truncated,
    ``recovery`` reports what happened) and continues the sequence
    numbering where the intact records left off; opening a fresh path
    writes the header.  Appends are buffered — call :meth:`flush` (or
    rely on ``sync_every``) to make them durable; ``close`` always
    flushes.  Usable as a context manager.

    ``open_retry`` retries the open/recover step on :class:`OSError`
    under a :class:`~repro.core.retry.RetryPolicy` — a journal on
    network storage that hiccups at open time (stale handle, quota
    race) should back off and try again rather than fail the whole
    resume.  Corruption errors (bad magic, wrong version) are never
    retried; they need an operator, not patience.
    """

    def __init__(
        self,
        path: str | Path,
        sync_every: int | None = None,
        metrics=None,
        open_retry: RetryPolicy | None = None,
    ) -> None:
        if sync_every is not None and sync_every < 1:
            raise ValueError("sync_every must be positive")
        self.path = Path(path)
        self.sync_every = sync_every
        self._m = _JournalMetrics(
            NULL_REGISTRY if metrics is None else metrics
        )
        self._since_sync = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if open_retry is None:
            self.recovery = self._open_and_recover()
        else:
            self.recovery = open_retry.call(
                self._open_and_recover, retry_on=(OSError,)
            )
        self.next_seq = self.recovery.last_seq + 1

    def _open_and_recover(self) -> RecoveryReport:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            raw = b""
        if raw and len(raw) >= _HEADER.size:
            magic, version, _ = _HEADER.unpack_from(raw, 0)
            if magic != _MAGIC:
                raise ValueError(
                    f"{self.path} is not a stream journal "
                    f"(bad magic {magic!r})"
                )
            if version != _VERSION:
                raise ValueError(
                    f"{self.path} has journal version {version}, "
                    f"expected {_VERSION}"
                )
            records, valid_end, reason = _scan(raw)
            truncated = len(raw) - valid_end
            self._handle = open(self.path, "r+b")
            if truncated:
                self._handle.truncate(valid_end)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._m.torn_bytes.inc(truncated)
            self._handle.seek(valid_end)
            self._m.recovered.inc(len(records))
            return RecoveryReport(
                n_records=len(records),
                last_seq=records[-1].seq if records else 0,
                truncated_bytes=truncated,
                reason=reason,
            )
        # Fresh (or sub-header, i.e. torn-at-birth) journal.
        truncated = len(raw)
        self._handle = open(self.path, "wb")
        self._handle.write(_HEADER.pack(_MAGIC, _VERSION, 0))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if truncated:
            self._m.torn_bytes.inc(truncated)
        return RecoveryReport(
            n_records=0,
            last_seq=0,
            truncated_bytes=truncated,
            reason="torn file header" if truncated else "",
        )

    def append(
        self, block_id: int, time_s: float, value: float, seq: int | None = None
    ) -> int:
        """Durably frame one observation; returns its sequence number.

        ``seq`` overrides the self-assigned sequence (replicated
        streams journal under the router's per-replica numbering); it
        must exceed every sequence already journaled.
        """
        if seq is None:
            seq = self.next_seq
        elif seq < self.next_seq:
            raise ValueError(
                f"seq {seq} is not past the journal high-water "
                f"{self.next_seq - 1}"
            )
        payload = _PAYLOAD.pack(seq, int(block_id), float(time_s), float(value))
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        if any_armed():
            crashpoint("journal.append.begin")
            # Chaos mode: land the first half on disk before the torn
            # crash point so an injected death really tears the frame.
            half = len(frame) // 2
            self._handle.write(frame[:half])
            self._handle.flush()
            crashpoint("journal.mid_append")
            self._handle.write(frame[half:])
        else:
            self._handle.write(frame)
        self.next_seq = seq + 1
        self._m.appends.inc()
        self._since_sync += 1
        if self.sync_every is not None and self._since_sync >= self.sync_every:
            self.flush()
        crashpoint("journal.append.done")
        return seq

    def append_many(self, block_ids, times, values, seqs=None) -> int:
        """Append aligned observation arrays; returns the last seq.

        ``block_ids`` broadcasts against ``times``/``values``, so one
        block's whole round batch journals as
        ``append_many(block_id, times, values)`` — the write-ahead
        counterpart of :meth:`StreamEngine.ingest_many`.  Frames are
        built vectorized and written in one call, which is what keeps
        journaling affordable on the streaming hot path (see
        ``benchmarks/test_abl_pool_runner.py``).

        ``seqs`` journals under caller-assigned sequence numbers (a
        replicated router's per-replica stream); they must be strictly
        increasing and start past the journal's high-water mark, but
        may be gapped.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = len(times)
        if n == 0:
            return self.next_seq - 1
        if seqs is not None:
            # Checked as signed integers, as append() does: a uint64
            # cast first would wrap a negative seq past the high-water.
            seqs = np.asarray(seqs, dtype=np.int64)
            if seqs.shape != times.shape:
                raise ValueError("seqs must align with times/values")
            if int(seqs[0]) < self.next_seq or (
                n > 1 and bool((np.diff(seqs) <= 0).any())
            ):
                raise ValueError(
                    "caller-assigned seqs must be strictly increasing and "
                    f"past the journal high-water {self.next_seq - 1}"
                )
        if any_armed():
            # Chaos mode: per-record appends so every crash point and
            # torn-frame window is exercised exactly as documented.
            seq = self.next_seq - 1
            ids = np.broadcast_to(np.asarray(block_ids), times.shape)
            for i, (block_id, time_s, value) in enumerate(
                zip(ids, times, values)
            ):
                seq = self.append(
                    block_id, time_s, value,
                    seq=None if seqs is None else int(seqs[i]),
                )
            return seq
        frames = np.empty(n, dtype=_FRAME_DTYPE)
        frames["length"] = _PAYLOAD.size
        frames["seq"] = (
            np.arange(self.next_seq, self.next_seq + n, dtype=np.uint64)
            if seqs is None
            else seqs
        )
        frames["block_id"] = block_ids
        frames["time_s"] = times
        frames["value"] = values
        payloads = np.empty(n, dtype=_PAYLOAD_DTYPE)
        for name in _PAYLOAD_DTYPE.names:
            payloads[name] = frames[name]
        raw = memoryview(payloads.tobytes())
        crc32 = zlib.crc32
        size = _PAYLOAD.size
        frames["crc"] = np.fromiter(
            (crc32(raw[i * size: (i + 1) * size]) for i in range(n)),
            dtype=np.uint32,
            count=n,
        )
        self._handle.write(frames.tobytes())
        last = int(frames["seq"][-1])
        self.next_seq = last + 1
        self._m.appends.inc(n)
        self._since_sync += n
        if self.sync_every is not None and self._since_sync >= self.sync_every:
            self.flush()
        return last

    def settle(self) -> None:
        """Push buffered frames to the OS without paying an fsync.

        After ``settle`` the appended bytes live in the kernel page
        cache: they survive the *process* dying (SIGKILL, OOM), which
        is the failure a supervised worker plans for, but not the
        machine dying — :meth:`flush` is the full-durability barrier.
        A write-ahead acker must call one of the two before acking;
        frames left in the user-space buffer die with the process.
        """
        self._handle.flush()

    def flush(self) -> None:
        """Make every appended frame durable (flush + fsync)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "StreamJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_journal(path: str | Path) -> tuple[list[JournalRecord], RecoveryReport]:
    """Read a journal without repairing it (pure, side-effect free).

    Returns the intact records plus a report describing any torn tail
    (which is left on disk; only :class:`StreamJournal` truncates).
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        return [], RecoveryReport(0, 0, len(raw), "torn file header")
    magic, version, _ = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path} is not a stream journal (bad magic {magic!r})")
    if version != _VERSION:
        raise ValueError(
            f"{path} has journal version {version}, expected {_VERSION}"
        )
    records, valid_end, reason = _scan(raw)
    return records, RecoveryReport(
        n_records=len(records),
        last_seq=records[-1].seq if records else 0,
        truncated_bytes=len(raw) - valid_end,
        reason=reason,
    )


def replay_journal(
    path: str | Path,
    engine,
    after_seq: int = 0,
    metrics=None,
    retry: RetryPolicy | None = None,
) -> int:
    """Replay journaled observations into an engine, idempotently.

    ``engine`` is duck-typed: anything with ``ingest_batch(block_ids,
    times, values)``.  Only records with ``seq > after_seq`` are
    applied, in sequence order and in seq-ordered chunks of at most
    ``_REPLAY_CHUNK`` records, so resuming a replay from the last
    sequence number the engine durably processed never applies a record
    twice — and replaying the same journal into the same engine again
    with the returned value is a no-op.  Returns the last applied
    sequence number (``after_seq`` when nothing new was found).

    ``retry`` applies a :class:`~repro.core.retry.RetryPolicy` to the
    journal *read* (transient :class:`OSError` only); the replay itself
    runs once, since the records are already in memory.
    """
    m = _JournalMetrics(NULL_REGISTRY if metrics is None else metrics)
    if retry is None:
        records, _ = read_journal(path)
    else:
        records, _ = retry.call(
            lambda: read_journal(path), retry_on=(OSError,)
        )
    if not records:
        return after_seq
    seqs = np.fromiter((r.seq for r in records), dtype=np.int64,
                       count=len(records))
    # A record applies when its seq beats every seq before it (and
    # ``after_seq``): exactly the records a one-at-a-time replay that
    # tracks the last applied seq would apply.
    floor = np.maximum.accumulate(np.concatenate([[after_seq], seqs[:-1]]))
    apply = np.flatnonzero(seqs > floor)
    m.skipped.inc(len(records) - len(apply))
    for lo in range(0, len(apply), _REPLAY_CHUNK):
        chunk = [records[i] for i in apply[lo: lo + _REPLAY_CHUNK]]
        engine.ingest_batch(
            [r.block_id for r in chunk],
            [r.time_s for r in chunk],
            [r.value for r in chunk],
        )
        m.replayed.inc(len(chunk))
    return int(seqs[apply[-1]]) if len(apply) else after_seq
