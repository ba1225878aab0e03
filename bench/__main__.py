"""``python -m bench {run,calibrate,compare}`` — see ``bench/README.md``.

``run`` prints each metric as ``name = value unit`` and ends with one
JSON line per workload::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

carrying the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace`` its per-layer metrics.  It exits non-zero when an output
check fails, and before printing any result when the ``repro`` sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and check their outputs")
    run.add_argument("--workload", action="append", default=None,
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="open-loop phase length (default: run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="traced run: print per-layer metrics")
    run.add_argument("--out", default=None, help="append result records here")
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizes, for the self-tests")

    cal = sub.add_parser("calibrate", help="measure each metric's spread")
    cal.add_argument("--runs", type=int, default=5)
    cal.add_argument("--workload", action="append", default=None)
    cal.add_argument("--out", default=None, help="also keep the records here")
    cal.add_argument("--write", action="store_true",
                     help="freeze the bounds in BENCHMARK.json and the label "
                          "digest in bench/params.json")

    cmp = sub.add_parser("compare", help="parent versus change, per workload")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    return parser


def _spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _fingerprint(ctx) -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "params": ctx.params,
    }


def _emit(result, ctx, spec: dict, out_path: str | None) -> bool:
    """Print one workload's metrics and its JSON result line."""
    wanted = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    metrics = {}
    values = result.per_layer if ctx.trace else result.metrics
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            result.fail(1, f"metric {metric['name']} was not measured")
            value = 0.0
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    correct = result.failed == 0
    print(f"== {result.workload} (seed {ctx.seed}, "
          f"{'traced' if ctx.trace else 'untraced'})")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for key, value in result.details.items():
        print(f"  {key}: {value}")
    error_ratio = result.failed / result.attempted if result.attempted else 0.0
    print(f"error_ratio = {error_ratio:.6g} fraction "
          f"({result.failed} of {result.attempted} operations)")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    if out_path:
        record = {
            "workload": result.workload, "trace": bool(ctx.trace),
            "correct": correct, "attempted": result.attempted,
            "failed": result.failed, "error_ratio": error_ratio,
            "failures": result.failures, "metrics": metrics,
            "details": result.details, "fingerprint": _fingerprint(ctx),
        }
        with open(out_path, "a") as out:
            out.write(json.dumps(record, default=str) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": max(1, result.attempted),
        "failed": result.failed, "metrics": metrics,
    }), flush=True)
    return correct


def cmd_run(args) -> int:
    if not (SRC / "repro" / "serve" / "__main__.py").is_file():
        print(f"bench: the repro sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench.workloads import WORKLOADS, Context, load_params, run_workload

    spec = _spec()
    names = args.workload or list(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"bench: unknown workload(s) {sorted(unknown)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["TMPDIR"] = str(work)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else float(spec["run_seconds"])
    ok = True
    try:
        for name in names:
            ctx = Context(
                work=work / name, seed=args.seed, seconds=seconds,
                trace=bool(args.trace), params=load_params(args.smoke), env=env,
            )
            ctx.work.mkdir(parents=True, exist_ok=True)
            ok &= _emit(run_workload(name, ctx), ctx, spec, args.out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


def _run_many(names, runs, out_path: Path) -> None:
    for name in names:
        for i in range(runs):
            argv = [sys.executable, "-m", "bench", "run", "--workload", name,
                    "--seed", str(i + 1), "--out", str(out_path)]
            subprocess.run(argv, cwd=ROOT, check=False,
                           stdout=subprocess.DEVNULL)


def cmd_calibrate(args) -> int:
    from bench.compare import calibration, read_records, suggested_rates
    from bench.workloads import PARAMS_PATH, WORKLOADS, load_params

    names = args.workload or list(WORKLOADS)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    out_path = Path(args.out) if args.out else work / f"calibrate-{os.getpid()}.jsonl"
    _run_many(names, args.runs, out_path)
    spec = _spec()
    records = read_records(out_path)
    bad = [r for r in records if not r["correct"]]
    rows, bounds = calibration(records, spec)
    print(f"{'workload':<18} {'metric':<16} {'runs':>4} {'median':>12} {'spread':>8}")
    for workload, name, n, med, s in rows:
        print(f"{workload:<18} {name:<16} {n:>4} {med:>12.5g} {s:>8.2%}")
    print("proposed bounds:", json.dumps(bounds))
    print("open-loop rates at a third of capacity:",
          json.dumps(suggested_rates(records, load_params())))
    if bad:
        print(f"{len(bad)} runs failed their output checks", file=sys.stderr)
    if args.write and not bad:
        for metric in spec["end_to_end"]:
            metric["bound"] = bounds.get(metric["name"], metric["bound"])
        SPEC_PATH.write_text(json.dumps(spec, indent=2) + "\n")
        sys.path.insert(0, str(SRC))
        from bench.workloads import Context, run_workload

        params = json.loads(PARAMS_PATH.read_text())
        study = params["workloads"]["study_a12w"]
        ctx = Context(
            work=work / "digest", seed=study["digest_seed"],
            seconds=float(spec["run_seconds"]), trace=False,
            params=load_params(), env=dict(os.environ),
        )
        ctx.env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        study["label_sha256"] = run_workload(
            "study_a12w", ctx
        ).details["label_sha256"]
        PARAMS_PATH.write_text(json.dumps(params, indent=2) + "\n")
        print(f"wrote {SPEC_PATH} and {PARAMS_PATH}")
    if not args.out:
        out_path.unlink(missing_ok=True)
    return 1 if bad else 0


def cmd_compare(args) -> int:
    from bench.compare import compare, format_rows, read_records

    rows, regressed = compare(
        read_records(args.parent), read_records(args.change), _spec()
    )
    print(format_rows(rows))
    return 1 if regressed else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return {
        "run": cmd_run, "calibrate": cmd_calibrate, "compare": cmd_compare,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
