"""Child process of the ``study_a12w`` workload.

``python -m bench.study_child JOB`` imports the batch pipeline and
generates the job's worlds (the workload's set-up), prints
``{"ready": true}``, then reads one line from stdin: ``go`` measures
every world and prints the result as one JSON line; anything else exits.
This is ``GlobalStudy.run`` split so that world generation is set-up.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from time import perf_counter

import numpy as np


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    import repro.simulation.fastsim as fastsim
    from repro.probing.rounds import RoundSchedule
    from repro.simulation.internet import WorldConfig, generate_world
    from repro.simulation.scenarios import SCENARIO_SCHEDULES

    a12w = SCENARIO_SCHEDULES["A12W"]
    schedule = RoundSchedule.for_days(
        job["days"], start_s=a12w["start_s"],
        restart_interval_s=a12w["restart_interval_s"],
    )
    worlds = [
        generate_world(WorldConfig(
            n_blocks=job["blocks_per_world"], seed=job["seed"] * 1000 + k,
        ))
        for k in range(job["worlds"])
    ]
    # Lazy imports and FFT plans for this series length are set-up too.
    fastsim.measure_world(
        generate_world(WorldConfig(n_blocks=8, seed=job["seed"])), schedule
    )
    print(json.dumps({"ready": True}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    from bench.probes import RECORDER, install_batch, uninstall_batch

    if job["trace"]:
        install_batch()
    times = []
    labels = []
    for world in worlds:
        t0 = perf_counter()
        measurement = fastsim.measure_world(world, schedule)
        times.append(perf_counter() - t0)
        labels.append(measurement.labels)
    untraced_world_s = None
    if job["trace"]:
        # Re-measure the last world untraced: both timings are warm.
        uninstall_batch()
        t0 = perf_counter()
        fastsim.measure_world(worlds[-1], schedule)
        untraced_world_s = perf_counter() - t0
    codes = np.concatenate(labels).astype(np.int8)
    values, counts = np.unique(codes, return_counts=True)
    print(json.dumps({
        "measure_s": times,
        "untraced_world_s": untraced_world_s,
        "label_sha256": hashlib.sha256(codes.tobytes()).hexdigest(),
        "label_counts": {str(v): int(c) for v, c in zip(values, counts)},
        "bad_labels": int((~np.isin(codes, (-1, 0, 1, 2))).sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "batch": RECORDER.batch,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
