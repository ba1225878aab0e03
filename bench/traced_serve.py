"""``python -m bench.traced_serve SPAN_DIR [repro.serve args...]``

Starts the service exactly as ``python -m repro.serve`` does, with the
layer wrappers of :mod:`bench.probes` installed first.  Shard workers
are forked from this process, so they inherit the wrappers.  On exit the
API process writes ``SPAN_DIR/spans-<pid>.jsonl``, including the
production tracer's ``stage_timings()`` for the span cross-check.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    from bench.probes import RECORDER, install_service

    span_dir = Path(argv[0])
    span_dir.mkdir(parents=True, exist_ok=True)
    install_service(span_dir)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(argv[1:])
    finally:
        RECORDER.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
