"""Layered resilience: virtual time, chaos injection, breakers, degradation.

This package is the robustness plane the crawl engine runs under:

* :mod:`repro.resilience.clock` — virtual time (latency, backoff and
  deadlines cost simulated seconds, never real sleeps).
* :mod:`repro.resilience.chaos` — the seeded deterministic fault
  injector (:class:`ChaosSpec`/:class:`ChaosEngine`).
* :mod:`repro.resilience.breaker` — per-domain circuit breakers whose
  state checkpoints and restores across ``--resume``.
* :mod:`repro.resilience.degrade` — deterministic partial records for
  tasks that cannot be recovered.

The load-bearing invariant is the differential oracle: a chaos seed
whose faults are all recoverable yields records byte-identical to the
fault-free run; unrecoverable seeds yield deterministic degraded
output across backends, worker counts, and kill/resume.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import (
    FAULT_KINDS,
    ChaosEngine,
    ChaosSpec,
)
from repro.resilience.clock import (
    TaskMeter,
    VirtualClock,
    active_meter,
    current_meter,
    spend,
)

__all__ = [
    "ChaosEngine",
    "ChaosSpec",
    "CircuitBreaker",
    "FAULT_KINDS",
    "TaskMeter",
    "VirtualClock",
    "active_meter",
    "current_meter",
    "degraded_record",
    "spend",
]


def __getattr__(name):
    # ``degraded_record`` builds measurement record types; importing it
    # eagerly would close an import cycle (netsim -> resilience ->
    # measure -> browser -> netsim), so it resolves lazily (PEP 562).
    if name == "degraded_record":
        from repro.resilience.degrade import degraded_record
        return degraded_record
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
