"""Per-domain circuit breakers for the crawl engine.

A breaker counts *consecutive* failed tasks for one registrable
domain.  Once the count reaches the policy threshold the breaker
opens: the next ``quarantine`` tasks for that domain are
short-circuited into deterministic ``BreakerOpenError`` degraded
records without touching the network.  The task after the quarantine
runs as a half-open probe — success closes the breaker, failure
re-opens it for another quarantine.

Determinism: the engine shards tasks by domain (CRC-32), so every
task of a domain runs serially, in plan order, inside one shard
worker.  Counting tasks (not wall time) therefore gives the same
open/close trace for every backend and worker count — and because the
breaker's counters are plain integers, the state snapshots into a
checkpoint line and restores across ``--resume`` without loss.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.schema import OneOf, Range

#: Breaker states (stringly-typed so snapshots stay JSON-native).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: The :mod:`repro.schema` shape of a :meth:`CircuitBreaker.snapshot`.
SNAPSHOT = {"state": OneOf((CLOSED, OPEN, HALF_OPEN)),
            "consecutive": Range(int, min=0), "skipped": Range(int, min=0)}


class CircuitBreaker:
    """Count-based breaker for one domain (owned by one shard worker)."""

    __slots__ = ("domain", "threshold", "quarantine", "state",
                 "consecutive", "skipped")

    def __init__(
        self,
        domain: str,
        threshold: int,
        quarantine: int,
        snapshot: Optional[Dict[str, object]] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if quarantine < 1:
            raise ValueError("breaker quarantine must be >= 1")
        self.domain = domain
        self.threshold = threshold
        self.quarantine = quarantine
        self.state = CLOSED
        #: Consecutive failed tasks (successes reset it).
        self.consecutive = 0
        #: Tasks short-circuited since the breaker last opened.
        self.skipped = 0
        if snapshot:
            self.adopt(snapshot)

    # ------------------------------------------------------------------
    # The two engine-facing operations
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the next task for this domain may run.

        Returns False while the breaker is open and quarantining; the
        call that exhausts the quarantine flips to half-open and lets
        the probe task through.
        """
        if self.state != OPEN:
            return True
        if self.skipped >= self.quarantine:
            self.state = HALF_OPEN
            return True
        self.skipped += 1
        return False

    def record(self, ok: bool) -> Optional[str]:
        """Account one executed task; return a transition event or None.

        ``"open"`` when the breaker (re-)opens, ``"close"`` when a
        half-open probe succeeds.
        """
        if ok:
            transition = "close" if self.state != CLOSED else None
            self.state = CLOSED
            self.consecutive = 0
            self.skipped = 0
            return transition
        self.consecutive += 1
        if self.state == HALF_OPEN or self.consecutive >= self.threshold:
            self.state = OPEN
            self.skipped = 0
            return "open"
        return None

    # ------------------------------------------------------------------
    # Checkpoint snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-native state for a ``{"kind": "breaker"}`` line."""
        return {
            "state": self.state,
            "consecutive": self.consecutive,
            "skipped": self.skipped,
        }

    def adopt(self, snapshot: Dict[str, object]) -> None:
        """Restore state from a checkpointed :meth:`snapshot`."""
        state = snapshot.get("state", CLOSED)
        if state not in (CLOSED, OPEN, HALF_OPEN):
            raise ValueError(f"unknown breaker state {state!r}")
        self.state = state
        self.consecutive = int(snapshot.get("consecutive", 0))
        self.skipped = int(snapshot.get("skipped", 0))
