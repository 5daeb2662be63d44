"""The deterministic chaos plane.

A :class:`ChaosSpec` describes a fault regime — per-kind injection
rates plus a seed — and rides in ``CrawlPlan.context`` so the plan
fingerprint covers it and worker processes inherit it verbatim.  A
:class:`ChaosEngine` compiled from the spec hooks into
:meth:`Network.fetch <repro.netsim.network.Network.fetch>` and decides,
for every request, whether to inject a fault.

Every decision is a pure function of ``derive_seed(seed, kind, site,
visit_id)`` — no wall clock, no :mod:`random` module state — so a
chaos run is exactly reproducible.  Two fault classes exist:

* **Recoverable** faults fire *once* per ``(kind, site, visit_id)``
  key and are then consumed: the retry layer re-runs the attempt, the
  fault does not recur, and the task's records come out byte-identical
  to a fault-free run (the differential oracle).
* **Permanent** faults (the same key also rolls under
  ``permanent_rate``) fire on every attempt, exhausting the retry
  budget and producing a deterministic degraded record.

Consumed-fault keys are task-private (visit ids are derived per task
under the engine's per-task id regime), so concurrent shard workers
never race for the same fault and determinism holds across backends,
worker counts, and kill/resume.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Set, Tuple

from repro import schema
from repro.errors import (
    DisconnectError,
    DNSFlapError,
    TimeoutError,
    TruncatedResponseError,
)
from repro.rng import derive_seed
from repro.urlkit import registrable_domain

#: Denominator for rate rolls: rates are compared in millionths.
_ROLL_SCALE = 1_000_000

#: Fault kinds rolled per request, in injection order (first match
#: wins).  ``slow`` is handled separately as a latency spike.
FAULT_KINDS: Tuple[str, ...] = ("dns", "disconnect", "timeout", "truncate")

_FAULT_ERRORS = {
    "dns": DNSFlapError,
    "disconnect": DisconnectError,
    "timeout": TimeoutError,
    "truncate": TruncatedResponseError,
}

_FAULT_MESSAGES = {
    "dns": "chaos: resolver flapped for {host}",
    "disconnect": "chaos: connection to {host} dropped mid-transfer",
    "timeout": "chaos: request to {host} hung until the client gave up",
    "truncate": "chaos: response from {host} arrived truncated",
}


@dataclass(frozen=True)
class ChaosSpec:
    """A seeded fault regime (all rates are probabilities in [0, 1])."""

    #: Root seed for every fault decision; ``None`` disables chaos.
    seed: Optional[int] = None
    #: Per-request fault rates by kind.
    timeout_rate: float = schema.field(0.0, min=0, max=1)
    dns_rate: float = schema.field(0.0, min=0, max=1)
    disconnect_rate: float = schema.field(0.0, min=0, max=1)
    truncate_rate: float = schema.field(0.0, min=0, max=1)
    #: Slow-loris latency spikes: rate plus the spike size in virtual
    #: seconds (only fatal when an attempt deadline is set).
    slow_rate: float = schema.field(0.0, min=0, max=1)
    slow_latency: float = schema.field(5.0, min=0)
    #: Probability that a rolled fault is *permanent* (recurs on every
    #: attempt) rather than flaky-then-recovered.
    permanent_rate: float = schema.field(0.0, min=0, max=1)
    #: Restrict injection to these registrable domains (None = all).
    domains: Optional[Tuple[str, ...]] = None

    def validate(self) -> None:
        _check_chaos(vars(self))

    @property
    def enabled(self) -> bool:
        """True when the spec can inject anything at all."""
        if self.seed is None:
            return False
        return any(
            getattr(self, field.name) > 0.0
            for field in fields(self)
            if field.name.endswith("_rate") and field.name != "permanent_rate"
        )

    def to_context(self) -> Dict[str, object]:
        """Serialize for ``CrawlPlan.context`` (plain JSON-safe dict)."""
        data = asdict(self)
        if self.domains is not None:
            data["domains"] = list(self.domains)
        return data

    @classmethod
    def from_context(cls, data: Dict[str, object]) -> "ChaosSpec":
        known = {field.name for field in fields(cls)}
        kwargs = {name: value for name, value in data.items() if name in known}
        if kwargs.get("domains") is not None:
            kwargs["domains"] = tuple(kwargs["domains"])
        return cls(**kwargs)


_check_chaos = schema.compile(schema.fields_shape(ChaosSpec), ValueError, "chaos")


class ChaosEngine:
    """Compiled fault injector for one engine run.

    The consumed-fault set is fresh per run: a resumed run replays
    checkpointed outcomes and re-crawls only unfinished tasks, whose
    faults then fire (and recover) exactly as they would have in the
    uninterrupted run.
    """

    def __init__(self, spec: ChaosSpec) -> None:
        spec.validate()
        self.spec = spec
        #: Zero-rate specs short-circuit per request (idle-overhead
        #: ceiling: an installed-but-quiet chaos plane must cost ~0).
        self.idle = not spec.enabled
        self._domains = set(spec.domains) if spec.domains else None
        self._consumed: Set[Tuple[str, str, int]] = set()
        self._lock = threading.Lock()
        #: Faults injected so far, by kind (stats for tests/reports).
        self.injected: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Deterministic rolls
    # ------------------------------------------------------------------
    def _roll(self, kind: str, rate: float, site: str, visit_id: int) -> bool:
        if rate <= 0.0:
            return False
        roll = derive_seed(self.spec.seed, kind, site, visit_id) % _ROLL_SCALE
        return roll < int(rate * _ROLL_SCALE)

    def _targets(self, site: str) -> bool:
        return self._domains is None or site in self._domains

    def _fires(self, kind: str, rate: float, site: str, visit_id: int) -> bool:
        """Roll *kind*; consume recoverable faults after the first hit."""
        if not self._roll(kind, rate, site, visit_id):
            return False
        if self._roll("permanent", self.spec.permanent_rate, site, visit_id):
            self._count(kind)
            return True
        key = (kind, site, visit_id)
        with self._lock:
            if key in self._consumed:
                return False
            self._consumed.add(key)
        self._count(kind)
        return True

    def _count(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Injection hooks (called by Network.fetch)
    # ------------------------------------------------------------------
    def latency_spike(self, host: str, visit_id: int) -> float:
        """Extra virtual latency for this request (slow-loris spikes)."""
        if self.idle:
            return 0.0
        site = registrable_domain(host) or host.lower()
        if not self._targets(site):
            return 0.0
        if self._fires("slow", self.spec.slow_rate, site, visit_id):
            return self.spec.slow_latency
        return 0.0

    def inject(self, host: str, visit_id: int) -> None:
        """Raise the fault (if any) rolled for this request."""
        if self.idle:
            return
        site = registrable_domain(host) or host.lower()
        if not self._targets(site):
            return
        rates = {
            "dns": self.spec.dns_rate,
            "disconnect": self.spec.disconnect_rate,
            "timeout": self.spec.timeout_rate,
            "truncate": self.spec.truncate_rate,
        }
        for kind in FAULT_KINDS:
            if self._fires(kind, rates[kind], site, visit_id):
                message = _FAULT_MESSAGES[kind].format(host=host)
                raise _FAULT_ERRORS[kind](message)

