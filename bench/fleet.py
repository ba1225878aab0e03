"""Seeded observation traces, pre-encoded HTTP requests, and the oracle.

A fleet is ``n_blocks`` /24 blocks probed once per 660 s round, in round
order, every block reporting in every round bar a small seeded share of
missed probes.  Half the blocks are diurnal sinusoids with a random
phase and amplitude, half are flat with noise, so the three verdict
labels all occur.  Everything here is a pure function of the seed: two
commits benchmarked with one seed see byte-identical request bodies.

The blocks are split into one group per client connection, and a
connection only ever posts its own group's observations.  A connection
has one request in flight at a time, so every block's observations reach
the service in round order however the connections interleave — the
service's watermark would drop an observation that overtook a later one
of the same block as late.
"""

from __future__ import annotations

import json
import random

import numpy as np

ROUND_S = 660.0
DAY_S = 86400.0


class Fleet:
    """One seeded fleet trace, flattened in send order.

    ``block``, ``time``, ``value`` and ``group`` are aligned arrays of
    every observation the benchmark may send, rounds ``0 .. n_rounds-1``
    in order; within a round blocks report in one fixed seeded order.
    """

    def __init__(self, seed: int, n_blocks: int, n_rounds: int,
                 n_groups: int = 2, missing: float = 0.02) -> None:
        # Per-round draws come from their own streams, so a trace of
        # fewer rounds is an exact prefix of a longer one.
        rng = np.random.default_rng([seed, 0xF1EE7])
        noise = np.random.default_rng([seed, 0xF1EE7, 1])
        gaps = np.random.default_rng([seed, 0xF1EE7, 2])
        self.block_ids = rng.choice(1 << 24, size=n_blocks, replace=False)
        diurnal = np.arange(n_blocks) % 2 == 0
        rng.shuffle(diurnal)
        mean = rng.uniform(0.3, 0.7, n_blocks)
        amp = np.where(diurnal, rng.uniform(0.02, 0.3, n_blocks), 0.0)
        phase = rng.uniform(0.0, 2 * np.pi, n_blocks)
        sigma = rng.uniform(0.02, 0.1, n_blocks)
        offset = rng.uniform(0.0, 300.0, n_blocks)
        order = rng.permutation(n_blocks)

        rounds = np.repeat(np.arange(n_rounds), n_blocks)
        idx = np.tile(order, n_rounds)
        group = np.tile(np.arange(n_blocks) % n_groups, n_rounds)
        times = rounds * ROUND_S + offset[idx]
        values = (
            mean[idx]
            + amp[idx] * np.cos(2 * np.pi * times / DAY_S + phase[idx])
            + sigma[idx] * noise.standard_normal(len(idx))
        )
        keep = gaps.random(len(idx)) >= missing
        self.block = self.block_ids[idx][keep]
        self.time = times[keep]
        self.value = np.clip(values, 0.0, 1.0)[keep]
        self.group = group[keep]
        self.round_start = np.searchsorted(
            rounds[keep], np.arange(n_rounds + 1)
        )

    def __len__(self) -> int:
        return len(self.time)

    def round_offset(self, r: int) -> int:
        """Index of the first observation of round ``r``."""
        return int(self.round_start[r])

    def triples(self, idx: np.ndarray) -> list:
        return [
            [int(b), float(t), float(v)]
            for b, t, v in zip(self.block[idx], self.time[idx], self.value[idx])
        ]


class Request:
    """One pre-encoded HTTP/1.1 request and what it carries."""

    __slots__ = ("kind", "raw", "conn", "obs_idx", "n_obs", "block_id",
                 "trace_id")

    def __init__(self, kind: str, raw: bytes, conn: int = 0,
                 obs_idx: np.ndarray | None = None,
                 block_id: int | None = None, trace_id: str = "") -> None:
        self.kind = kind
        self.raw = raw
        self.conn = conn
        self.obs_idx = obs_idx
        self.n_obs = 0 if obs_idx is None else len(obs_idx)
        self.block_id = block_id
        self.trace_id = trace_id


class RequestFactory:
    """Builds requests whose ``traceparent`` ids come from the seed."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed * 7919 + 17)

    def _head(self, method: str, path: str, n_body: int) -> tuple[str, bytes]:
        trace_id = f"{self._rng.getrandbits(128) | 1:032x}"
        span_id = f"{self._rng.getrandbits(64) | 1:016x}"
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: bench\r\n"
            f"traceparent: 00-{trace_id}-{span_id}-01\r\n"
        )
        if method == "POST":
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {n_body}\r\n"
            )
        return trace_id, (head + "\r\n").encode("latin-1")

    def post(self, fleet: Fleet, idx: np.ndarray, conn: int = 0) -> Request:
        body = json.dumps(
            {"observations": fleet.triples(idx)}, separators=(",", ":")
        ).encode()
        trace_id, head = self._head("POST", "/observations", len(body))
        return Request("post", head + body, conn, idx, trace_id=trace_id)

    def raw_post(self, body: bytes, n_obs: int, conn: int = 0) -> Request:
        """A POST with an arbitrary body (malformed-input checks)."""
        trace_id, head = self._head("POST", "/observations", len(body))
        return Request("post", head + body, conn, np.zeros(n_obs, dtype=np.int64),
                       trace_id=trace_id)

    def read_block(self, block_id: int, conn: int = 0) -> Request:
        trace_id, head = self._head("GET", f"/blocks/{block_id}/state", 0)
        return Request("read", head, conn, block_id=block_id, trace_id=trace_id)

    def phase_map(self, conn: int = 0) -> Request:
        trace_id, head = self._head("GET", "/phase-map", 0)
        return Request("phase_map", head, conn, trace_id=trace_id)


def group_posts(factory: RequestFactory, fleet: Fleet, start: int, stop: int,
                batch: int, group: int) -> list[Request]:
    """POSTs of ``batch`` observations of one group from ``[start, stop)``."""
    idx = np.arange(start, stop)[fleet.group[start:stop] == group]
    return [
        factory.post(fleet, idx[i:i + batch], conn=group)
        for i in range(0, len(idx), batch)
    ]


def interleave(streams: list[list]) -> list:
    """Round-robin merge of per-connection request lists."""
    out = []
    for i in range(max(len(s) for s in streams)):
        out.extend(s[i] for s in streams if i < len(s))
    return out


def posts(factory: RequestFactory, fleet: Fleet, start: int, stop: int,
          batch: int, n_conns: int) -> list[Request]:
    """Every observation of ``[start, stop)``, one group per connection."""
    return interleave([
        group_posts(factory, fleet, start, stop, batch, k)
        for k in range(n_conns)
    ])


# -- verdict oracle ----------------------------------------------------------


def oracle_report(times: np.ndarray, values: np.ndarray, window_start: int,
                  stream_config) -> dict:
    """``batch_window_report`` over a block's trace, JSON round-tripped.

    The served ``last_report`` went through the service's JSON
    flattening; the oracle goes through the same flattening and a JSON
    round trip, so the two compare as equals exactly when the verdicts
    are bit-identical.
    """
    from repro.serve.shard import snapshot_to_dict
    from repro.stream.engine import batch_window_report

    report, _ = batch_window_report(
        times, values, window_start, stream_config.window_rounds, stream_config
    )
    flat = snapshot_to_dict({"last_report": report})["last_report"]
    return json.loads(json.dumps(flat))


def report_from_dict(data: dict):
    """A served (JSON) report back as a ``DiurnalReport``."""
    from repro.core.classify import DiurnalClass, DiurnalReport

    fields = {k: float("nan") if v is None else v for k, v in data.items()}
    fields["label"] = DiurnalClass(data["label"])
    return DiurnalReport(**fields)


def verdict_matches(served: dict | None, expected: dict) -> bool:
    """``reports_equal`` over the two JSON reports."""
    from repro.core.classify import reports_equal

    if served is None:
        return False
    try:
        return reports_equal(report_from_dict(served), report_from_dict(expected))
    except (KeyError, TypeError, ValueError):
        return False
