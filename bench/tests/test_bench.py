"""Self-tests of the benchmark, at ``--smoke`` size.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from bench import workloads
from bench.__main__ import ROOT, SPEC_PATH, SRC, main
from bench.fleet import RequestFactory
from bench.loadgen import Connection, run_closed_loop, run_open_loop
from bench.service import ServiceProcess, serve_argv

SPEC = json.loads(SPEC_PATH.read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _assert_metrics(proc, wanted: list[dict], n_results: int) -> None:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = _results(proc.stdout)
    assert len(results) == n_results
    assert proc.stdout.rstrip().splitlines()[-1].startswith("{")
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for metric in wanted:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)
            line = f"{metric['name']} = "
            assert any(
                out.startswith(line) and out.endswith(f" {metric['unit']}")
                for out in proc.stdout.splitlines()
            ), metric["name"]


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = _run()
    _assert_metrics(proc, SPEC["end_to_end"], len(workloads.WORKLOADS))
    for result in _results(proc.stdout):
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, name


def test_every_per_layer_metric_is_printed_with_its_unit():
    _assert_metrics(
        _run("--trace", "--workload", "study_a12w"), SPEC["per_layer"], 1
    )


def test_malformed_post_and_absent_block_count_as_failures(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    service = ServiceProcess(
        serve_argv(1, 1, tmp_path / "journal"), env, tmp_path / "log"
    )
    conn = None
    try:
        service.wait_listening()
        service.wait_healthy()
        factory = RequestFactory(0)
        requests = [
            factory.raw_post(b'{"observations": [[1, 2.0]', n_obs=1),
            factory.read_block(123456789),
        ]
        conn = Connection(service.port)
        phase = run_closed_loop([conn], requests)
    finally:
        if conn is not None:
            conn.close()
        service.stop()
    assert [s.status for s in phase.samples] == [400, 404]
    result = workloads.Result("probe")
    assert workloads._score(phase, requests, result) == (0, 0)
    assert (result.attempted, result.failed) == (2, 2)


def test_tampered_oracle_fails_the_run(monkeypatch, capsys):
    real = workloads.oracle_report

    def tampered(*args, **kwargs):
        report = real(*args, **kwargs)
        report["diurnal_k"] += 1
        return report

    monkeypatch.setattr(workloads, "oracle_report", tampered)
    code = main(["run", "--smoke", "--workload", "chatty_mix"])
    out = capsys.readouterr().out
    assert code != 0
    result = _results(out)[-1]
    assert result["correct"] is False and result["failed"] > 0
    assert "batch oracle" in out


@pytest.fixture
def stalling_server():
    """An HTTP stub that answers at once, except request 5: 200 ms."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()

    def serve():
        conn, _ = listener.accept()
        buf = b""
        n = 0
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                buf = buf.split(b"\r\n\r\n", 1)[1]
                n += 1
                if n == 5:
                    time.sleep(0.2)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield listener.getsockname()[1]
    listener.close()
    thread.join(timeout=5)


def test_open_loop_latency_includes_queueing_behind_a_stall(stalling_server):
    factory = RequestFactory(0)
    requests = [factory.read_block(i) for i in range(60)]
    conn = Connection(stalling_server)
    try:
        phase = run_open_loop([conn], requests, rate=100.0)
    finally:
        conn.close()
    assert all(s.status == 200 for s in phase.samples)
    latency = [s.recv - s.due for s in phase.samples]
    service = [s.recv - s.send for s in phase.samples]
    # Request 4 is the stalled one; the next ones were due 10 ms apart
    # and waited behind it, which their latency must show even though
    # the server answered each of them at once.
    assert latency[4] >= 0.19
    assert latency[5] >= 0.17 and service[5] < 0.05
    assert latency[8] >= 0.12 and service[8] < 0.05
    assert max(latency[30:]) < 0.05
