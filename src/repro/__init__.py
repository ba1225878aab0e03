"""repro — reproduction of "When the Internet Sleeps" (IMC 2014).

The package reimplements the paper's full stack: a Trinocular-style
adaptive prober over simulated /24 blocks, EWMA block-availability
estimators, FFT-based diurnal detection with phase analysis, and the
geolocation / AS / link-type / economics substrates used to correlate
diurnal behaviour with external factors.

Quick start::

    import numpy as np
    from repro import net, probing, core

    behavior = net.merge_behaviors(
        net.make_always_on(50), net.make_diurnal(100, phase_s=8 * 3600)
    )
    block = net.Block24(net.parse_block("27.186.9/24"), behavior)
    schedule = probing.RoundSchedule.for_days(14)
    result = core.measure_block(block, schedule, np.random.default_rng(0))
    print(result.report.label)   # DiurnalClass.STRICT

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "asn",
    "core",
    "datasets",
    "geo",
    "linktype",
    "net",
    "probing",
    "simulation",
    "stats",
    "stream",
    "__version__",
]


def __getattr__(name):
    # PEP 562: a subpackage loads on first access, so importing one
    # entry point (say ``repro.serve``) does not pull in the others.
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
