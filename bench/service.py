"""Launch, probe and stop ``python -m repro.serve`` as a user would."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench.loadgen import Connection

STOP_TIMEOUT_S = 60.0


class ServiceProcess:
    """One service process and the shard workers it forks.

    The service runs in its own session, so a stop that has to escalate
    can kill the whole process group, shard workers included.
    """

    def __init__(self, argv: list[str], env: dict, log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env,
            start_new_session=True,
        )
        self.port: int | None = None
        self.shard_pids: list[int] = []

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self, timeout_s: float = 60.0) -> int:
        """Read the ``serving on http://host:port`` line."""
        deadline = time.monotonic() + timeout_s
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                line += chunk
                if b"\n" in line:
                    first = line.split(b"\n", 1)[0].decode()
                    if first.startswith("serving on http://"):
                        self.port = int(first.split()[2].rsplit(":", 1)[1])
                        return self.port
                    raise RuntimeError(f"unexpected service output: {first!r}")
            if self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"service did not start (exit {self.proc.poll()}); "
            f"see {self.log_path}"
        )

    def get_json(self, path: str):
        conn = Connection(self.port)
        try:
            status, body = conn.roundtrip(
                f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            )
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            conn = Connection(self.port)
            try:
                status, _ = conn.roundtrip(
                    b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"
                )
            finally:
                conn.close()
            if status == 200:
                self.shard_pids = [
                    int(shard["pid"])
                    for shard in self.get_json("/fleet")["shards"].values()
                ]
                return
            time.sleep(0.01)
        raise RuntimeError("service never answered /healthz with 200")

    def pids(self) -> list[int]:
        return [self.pid, *self.shard_pids]

    def cpu(self) -> dict:
        """CPU seconds so far: API process, shard workers, this process."""
        own = os.times()
        return {
            "api": cpu_seconds(self.pid),
            "shard": sum(cpu_seconds(p) for p in self.shard_pids),
            "loadgen": own.user + own.system,
        }

    def stop(self) -> int:
        """SIGTERM (graceful drain), escalating to killing the group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        self._reap_group()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reap_group()

    def _reap_group(self) -> None:
        """Wait until no process of the service's group is left."""
        deadline = time.monotonic() + 10.0
        while _group_alive(self.proc.pid):
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    return
                deadline = time.monotonic() + 10.0
            time.sleep(0.02)


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def serve_argv(replication: int, shards: int, journal_dir: Path,
               span_dir: Path | None = None) -> list[str]:
    """The user's command line, or the traced launcher around it."""
    args = [
        "--quiet", "--port", "0", "--shards", str(shards),
        "--replication", str(replication), "--window-days", "1",
        "--journal-dir", str(journal_dir),
    ]
    if span_dir is None:
        return [sys.executable, "-m", "repro.serve", *args]
    return [sys.executable, "-m", "bench.traced_serve", str(span_dir), *args]


# -- /proc readers -------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, from ``/proc/<pid>/stat``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """VmHWM of one process in MB (0 when it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
