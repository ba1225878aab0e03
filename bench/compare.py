"""Calibration and parent-versus-change comparison of result records.

A result record is one JSON line written by ``python -m bench run --out
FILE``.  :func:`compare` applies the rule of the choosing-metrics guide
(§8): a gain needs the change to win at least nine tenths of the pairs
run and the medians to differ by more than the parent's interquartile
range; a regression is a median worse than the parent's by more than
the metric's bound; a metric whose run-to-run spread exceeds its bound
is *unresolved* unless every change run beats every parent run.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path


def read_records(path: Path) -> list[dict]:
    return [
        json.loads(line) for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def _by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for record in records:
        if record.get("trace"):
            continue
        out.setdefault(record["workload"], []).append(record)
    return out


def _values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records]


def _error_ratio(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """The comparison verdict and the number of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    pairs = min(len(parent), len(change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    every_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved", wins
    if wins >= 0.9 * pairs and sign * (c_med - p_med) > (p_q3 - p_q1):
        return "gain", wins
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regression", wins
    return "unchanged", wins


def compare(parent: list[dict], change: list[dict], spec: dict) -> tuple[list, bool]:
    """Rows of ``(workload, metric, parent, change, delta, wins, verdict)``."""
    rows = []
    regressed = False
    parents, changes = _by_workload(parent), _by_workload(change)
    for workload in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[workload], changes[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = _values(p_runs, name), _values(c_runs, name)
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            regressed |= result == "regression"
            p_q = quartiles(p)
            c_q = quartiles(c)
            rows.append((
                workload, name, p_q, c_q,
                (c_q[1] - p_q[1]) / abs(p_q[1]) if p_q[1] else math.nan,
                f"{wins}/{min(len(p), len(c))}", result,
            ))
        p_err, c_err = _error_ratio(p_runs), _error_ratio(c_runs)
        result = "regression" if c_err > p_err else "unchanged"
        regressed |= result == "regression"
        rows.append((
            workload, "error_ratio", (p_err,) * 3, (c_err,) * 3,
            c_err - p_err, "-", result,
        ))
    return rows, regressed


def format_rows(rows: list) -> str:
    lines = [
        f"{'workload':<18} {'metric':<16} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>6}  verdict"
    ]
    for workload, metric, p, c, delta, wins, result in rows:
        lines.append(
            f"{workload:<18} {metric:<16} "
            f"{p[1]:<12.5g} [{p[0]:.5g}, {p[2]:.5g}]".ljust(71)
            + f"{c[1]:<12.5g} [{c[0]:.5g}, {c[2]:.5g}]".ljust(35)
            + f"{delta:>+8.2%} {wins:>6}  {result}"
        )
    return "\n".join(lines)


def calibration(records: list[dict], spec: dict) -> tuple[list, dict]:
    """Per workload and metric: median and spread; proposed bounds.

    The proposed bound is 0.10, or three times the widest spread seen,
    rounded up to 0.05, capped at 0.25; ``setup_s`` always gets the
    largest bound.
    """
    rows = []
    widest: dict[str, float] = {}
    for workload, runs in sorted(_by_workload(records).items()):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = _values(runs, name)
            s = spread(values)
            widest[name] = max(widest.get(name, 0.0), s)
            rows.append((workload, name, len(values), quartiles(values)[1], s))
    bounds = {}
    for name, s in widest.items():
        bound = max(0.10, math.ceil(3 * s * 20 - 1e-9) / 20)
        bounds[name] = 0.25 if name == "setup_s" else min(0.25, bound)
    return rows, bounds


def suggested_rates(records: list[dict], params: dict) -> dict:
    """Open-loop rates at a third of the measured closed-loop capacity."""
    out = {}
    for workload, runs in _by_workload(records).items():
        spec = params["workloads"].get(workload, {})
        if spec.get("kind") == "ingest":
            capacity = statistics.median(_values(runs, "capacity_per_s"))
            out[workload] = round(capacity / 3 / 500) * 500
    return out
