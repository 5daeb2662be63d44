"""Job model, priority queue, quotas, and persistence for the service.

A *job* is one submitted campaign: a versioned :class:`RunSpec` plus
the scheduling envelope (tenant, priority, state).  Jobs are
content-addressed — the id is a hash of the canonical spec JSON and
the tenant — so resubmitting the same campaign is idempotent, and a
job's output directory (keyed by the id) is exactly where its earlier
checkpoints live: restoring a half-finished campaign is the engine's
ordinary fingerprint-checked resume, not a service-level mechanism.

The queue is FIFO within a priority level (a heap over
``(-priority, sequence)``), with a per-tenant quota on *active* jobs
(queued + running); submits beyond it raise :class:`QuotaExceeded`,
which the server maps to HTTP 429.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro import schema
from repro.api.spec import RunSpec
from repro.durable import atomic_write_text
from repro.errors import ReproError
from repro.schema import OneOf, Omittable, Range

#: Lifecycle: queued -> running -> done | failed | cancelled
#: (queued jobs may also go straight to cancelled).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States that count against a tenant's quota.
ACTIVE_STATES = ("queued", "running")

#: States a job leaves only when resubmitted.
TERMINAL_STATES = ("done", "failed", "cancelled")


class QuotaExceeded(ReproError):
    """A tenant's active-campaign quota is exhausted (HTTP 429)."""


class JobCancelled(ReproError):
    """Raised inside a running campaign's progress hook to stop it."""


def job_id(spec: RunSpec, tenant: str) -> str:
    """The content-addressed id: hash of canonical spec JSON + tenant.

    Stable across submits (idempotence), across service restarts (the
    resumable-campaign key), and across spec schema versions: the
    ``schema_version`` key is left out, so a release that bumps it
    keeps the ids of campaigns whose settings did not change.
    """
    data = spec.to_dict()
    del data["schema_version"]
    canonical = json.dumps(data, sort_keys=True)
    digest = hashlib.sha256(
        f"{tenant}\n{canonical}".encode("utf-8")
    ).hexdigest()
    return digest[:12]


@dataclasses.dataclass
class Job:
    """One submitted campaign and its scheduling envelope."""

    id: str
    spec: RunSpec
    tenant: str = "default"
    priority: int = 0
    state: str = "queued"
    error: Optional[str] = None
    summary: Optional[Dict] = None
    #: Set while running when a cancel arrived; the progress hook
    #: converts it into :class:`JobCancelled`.
    cancel_requested: bool = False
    #: Bumped by every :class:`JobQueue` transition, so of two persisted
    #: snapshots the later one is known.
    revision: int = 0

    def to_dict(self) -> Dict:
        """JSON-safe wire/persistence form (spec in versioned form): every
        field but :attr:`cancel_requested`."""
        fields = {k: v for k, v in vars(self).items() if k != "cancel_requested"}
        return dict(fields, spec=self.spec.to_dict())

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        """The job :meth:`to_dict` wrote, or :class:`ValueError`."""
        _check_job(data)
        fields = {key: value for key, value in data.items() if value is not None}
        return cls(**dict(fields, spec=RunSpec.from_dict(data["spec"])))


#: A persisted job (:meth:`Job.to_dict`); an absent or null key keeps its default.
_check_job = schema.compile({
    "id": str, "spec": dict, "tenant": Omittable(str), "priority": Omittable(int),
    "state": Omittable(OneOf(JOB_STATES)), "error": Omittable((None, str)),
    "summary": Omittable((None, dict)), "revision": Omittable((None, Range(int, min=0))),
}, ValueError, "job")


class JobQueue:
    """FIFO-with-priorities queue with per-tenant active-job quotas.
    Every job state transition is one of its methods, under its lock."""

    def __init__(self, quota: int = 4) -> None:
        if quota < 1:
            raise ValueError("quota must be >= 1")
        self.quota = quota
        self.jobs: Dict[str, Job] = {}
        self._heap: List = []  # (-priority, sequence, job_id)
        self._sequence = 0
        #: job_id -> the sequence of its live heap entry; an entry a
        #: cancel or re-queue left behind is skipped, not claimed.
        self._entries: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)

    def submit(self, job: Job) -> Job:
        """Enqueue *job*; idempotent for an already-known id.

        An active or finished job with the same id is returned as-is
        (same spec + tenant → same id → same campaign).  A failed or
        cancelled one is re-queued — with its output directory intact,
        the re-run resumes from the campaign's checkpoints.
        """
        with self._lock:
            existing = self.jobs.get(job.id)
            if existing is not None and existing.state not in (
                "failed", "cancelled"
            ):
                return existing
            active = sum(
                1 for other in self.jobs.values()
                if other.tenant == job.tenant
                and other.state in ACTIVE_STATES
            )
            if active >= self.quota:
                raise QuotaExceeded(
                    f"tenant {job.tenant!r} already has {active} active "
                    f"campaign(s) (quota {self.quota}); wait or cancel one"
                )
            if existing is not None:
                job = existing
                job.error = None
                job.summary = None
                job.cancel_requested = False
            job.state = "queued"
            job.revision += 1
            self.jobs[job.id] = job
            self._push_locked(job)
            return job

    def _push_locked(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, self._sequence, job.id))
        self._entries[job.id] = self._sequence
        self._sequence += 1
        self._available.notify()

    def next_job(self, timeout: float = 0.2) -> Optional[Job]:
        """Claim the highest-priority queued job (FIFO within a level);
        ``None`` when nothing is claimable within *timeout*."""
        with self._lock:
            if not self._heap:
                self._available.wait(timeout)
            while self._heap:
                _, sequence, claimed_id = heapq.heappop(self._heap)
                job = self.jobs.get(claimed_id)
                if job is None or job.state != "queued" or (
                    self._entries[claimed_id] != sequence
                ):
                    continue  # cancelled, or an entry left by a re-queue
                job.state = "running"
                job.revision += 1
                return job
            return None

    def cancel(self, claimed_id: str) -> Optional[Job]:
        """Cancel a job: queued ones flip to ``cancelled`` immediately,
        running ones get ``cancel_requested`` (the campaign's progress
        hook stops it at the next task boundary)."""
        with self._lock:
            job = self.jobs.get(claimed_id)
            if job is None:
                return None
            if job.state == "queued":
                job.state = "cancelled"
                job.revision += 1
            elif job.state == "running":
                job.cancel_requested = True
            return job

    def finish(self, claimed_id: str, state: str, *,
               summary: Optional[Dict] = None, error: Optional[str] = None) -> Job:
        """Move a job to the terminal *state* together with its *summary*
        or *error*, so no reader sees ``done`` without the summary or
        ``failed`` without the error.  A terminal job keeps its state."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state!r} is not a terminal job state")
        if state == "done" and summary is None:
            raise ValueError("a done job needs its summary")
        with self._lock:
            job = self.jobs[claimed_id]
            if job.state not in TERMINAL_STATES:
                job.summary = summary
                job.error = error
                job.state = state
                job.revision += 1
            return job

    def restore(self, job: Job) -> bool:
        """Adopt a persisted *job* (``serve --resume``); an unfinished one
        is requeued, past the quota it was admitted under, and True returned."""
        with self._lock:
            self.jobs[job.id] = job
            if job.state not in ACTIVE_STATES:
                return False
            job.state = "queued"
            job.revision += 1
            self._push_locked(job)
            return True

    def copy(self, claimed_id: str) -> Job:
        """A copy of one job read under the lock: a consistent snapshot
        that later transitions leave as it is."""
        with self._lock:
            return dataclasses.replace(self.jobs[claimed_id])

    def status(self, claimed_id: str) -> Optional[Dict]:
        """One job's :meth:`Job.to_dict` form, read under the lock."""
        with self._lock:
            job = self.jobs.get(claimed_id)
            return None if job is None else job.to_dict()

    def snapshot(self) -> List[Dict]:
        """Every job's :meth:`Job.to_dict` form by id, read under the lock."""
        with self._lock:
            return [self.jobs[key].to_dict() for key in sorted(self.jobs)]


def persist_job(jobs_dir: Path, job: Job) -> Path:
    """Durably record *job* through :func:`~repro.durable.atomic_write`.

    Each call writes its own uniquely named scratch file, so
    concurrent persists of one job (the HTTP submit thread and the
    runner thread) never replace each other's scratch; the last
    ``replace`` wins with a complete file either way.
    """
    return atomic_write_text(
        jobs_dir / f"{job.id}.json",
        json.dumps(job.to_dict(), indent=2, sort_keys=True),
    )


def load_jobs(jobs_dir: Path) -> List[Job]:
    """All persisted jobs, unreadable files skipped (never fatal)."""
    jobs: List[Job] = []
    if not jobs_dir.is_dir():
        return jobs
    for path in sorted(jobs_dir.glob("*.json")):
        try:
            jobs.append(Job.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            ))
        except (OSError, ValueError):
            continue
    return jobs
