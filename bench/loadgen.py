"""Keep-alive HTTP/1.1 load generator: open-loop and closed-loop phases.

One process, a fixed number of threads, one raw keep-alive socket per
thread.  Requests are pre-encoded bytes (see :mod:`bench.fleet`), so the
generator's per-request cost is a ``sendall`` and a response parse.

Open loop: request ``i`` is due at ``t0 + i / rate`` and goes out on the
connection the request names; that connection's thread sleeps until it
is due if it is early, and sends.  Latency is measured from the due
time, so a stall charges every request queued behind it.  ``lag`` is send time minus due time; ``self_lag`` counts
only sends whose thread was idle before the due time, i.e. the
generator's own scheduling error.

Closed loop: every thread sends its connection's requests back to back.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

TIMEOUT_S = 30.0


class Connection:
    """A raw keep-alive HTTP/1.1 client socket."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = port
        self.sock: socket.socket | None = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._buf = b""
        return sock

    def roundtrip(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; return ``(status, body)``; 0 on I/O failure."""
        try:
            sock = self.sock or self._connect()
            sock.sendall(raw)
            buf = self._buf
            while True:
                end = buf.find(b"\r\n\r\n")
                if end >= 0:
                    break
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("connection closed mid-response")
                buf += chunk
            head = buf[:end]
            status = int(head[9:12])
            length = 0
            close = False
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection" and value.strip().lower() == b"close":
                    close = True
            body_start = end + 4
            while len(buf) - body_start < length:
                chunk = sock.recv(max(65536, length))
                if not chunk:
                    raise ConnectionError("connection closed mid-body")
                buf += chunk
            body = buf[body_start:body_start + length]
            self._buf = buf[body_start + length:]
            if close:
                self.close()
            return status, body
        except (OSError, ValueError, ConnectionError):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.sock = None
        self._buf = b""


@dataclass
class Sample:
    """One completed request."""

    index: int
    due: float
    send: float
    recv: float
    status: int
    idle: bool


@dataclass
class PhaseResult:
    samples: list = field(default_factory=list)
    t0: float = 0.0
    t1: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def run_open_loop(conns: list[Connection], requests: list,
                  rate: float) -> PhaseResult:
    """Send ``requests`` on a fixed schedule of ``rate`` requests/s.

    Request ``i`` is due at ``t0 + i / rate`` and goes out on connection
    ``requests[i].conn``; a connection still busy with an earlier
    request sends it late, and that lateness counts in its latency.
    """
    t0 = time.perf_counter() + 0.05

    def worker(k: int, out: list) -> None:
        conn = conns[k]
        for i, request in enumerate(requests):
            if request.conn != k:
                continue
            due = t0 + i / rate
            now = time.perf_counter()
            idle = now < due
            if idle:
                time.sleep(due - now)
            send = time.perf_counter()
            status, _ = conn.roundtrip(request.raw)
            out.append(Sample(i, due, send, time.perf_counter(), status, idle))

    result = _run_threads(worker, len(conns))
    result.t0 = t0
    return result


def run_closed_loop(conns: list[Connection], requests: list) -> PhaseResult:
    """Send every connection's share of ``requests`` back to back."""

    def worker(k: int, out: list) -> None:
        conn = conns[k]
        for i, request in enumerate(requests):
            if request.conn != k:
                continue
            send = time.perf_counter()
            status, _ = conn.roundtrip(request.raw)
            out.append(Sample(i, send, send, time.perf_counter(), status, False))

    return _run_threads(worker, len(conns))


def _run_threads(target, n: int) -> PhaseResult:
    outs: list[list] = [[] for _ in range(n)]
    threads = [
        threading.Thread(target=target, args=(k, outs[k]), name=f"loadgen-{k}")
        for k in range(n)
    ]
    result = PhaseResult(t0=time.perf_counter())
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.t1 = time.perf_counter()
    result.samples = sorted(
        (s for out in outs for s in out), key=lambda s: s.index
    )
    return result
