"""Fault injection: degraded measurement streams, on purpose.

The paper's setting is degraded by nature — ~5% of rounds arrive missing
or duplicated, probers restart every 5.5 hours, and outages punch
multi-round holes in the stream.  This package reproduces those faults as
composable, seeded injectors so any benchmark can run "clean versus
degraded" with one config object:

``config``
    :class:`FaultConfig`, the shared knob set for a scenario.
``injectors``
    One small class per fault: probe loss, dropped and duplicated rounds,
    multi-round gaps, clock skew/jitter, prober crashes.
``oracle``
    :class:`LossyOracle`, the probe-path proxy used by probe loss.
``plan``
    :class:`FaultPlan`, which composes the active injectors and owns
    their deterministic random substreams.
``crash``
    Named crash points: :func:`crashpoint` hooks in the persistence and
    batch layers, armed by chaos tests to kill a run mid-write,
    mid-append, mid-block, or mid-worker (:class:`InjectedCrash`).
``corruption``
    Deterministic on-disk damage (truncation, bit flips, zeroing) and
    the shared :data:`CORRUPTION_MATRIX` the durable loaders are tested
    against.
"""

import importlib

# Public name -> submodule.  Names load on first access (PEP 562), so a
# process that needs only the crash points (every service and shard
# process, through the journal) does not load the injectors, plans and
# corruption helpers.
_SUBMODULE = {
    "FaultConfig": "config",
    "CORRUPTION_MATRIX": "corruption",
    "corrupt_file": "corruption",
    "flip_bit": "corruption",
    "overwrite_range": "corruption",
    "truncate_fraction": "corruption",
    "truncate_tail": "corruption",
    "zero_length": "corruption",
    "InjectedCrash": "crash",
    "any_armed": "crash",
    "arm": "crash",
    "armed": "crash",
    "crashpoint": "crash",
    "disarm": "crash",
    "fired": "crash",
    "ClockSkewInjector": "injectors",
    "FaultInjector": "injectors",
    "GapInjector": "injectors",
    "ObservationStream": "injectors",
    "ProbeLossInjector": "injectors",
    "ProberCrashInjector": "injectors",
    "RoundDropInjector": "injectors",
    "RoundDuplicateInjector": "injectors",
    "LossyOracle": "oracle",
    "FaultPlan": "plan",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name in _SUBMODULE:
        module = importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
