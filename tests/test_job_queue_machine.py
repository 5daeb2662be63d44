"""The campaign service's job state machine, driven by Hypothesis.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` runs random
sequences of every :class:`~repro.service.JobQueue` transition —
submit, ``next_job``, cancel, finish, ``copy``, and a service restart
that restores the persisted jobs into a fresh queue — and checks after
each step that:

- no ``done`` job lacks a summary;
- a ``done`` job never changes state, and a ``failed`` or ``cancelled``
  one leaves only through ``submit`` (the re-run path);
- no job's ``revision`` ever decreases, across restarts too;
- no tenant has more active jobs than its quota;
- ``next_job`` claims the highest-priority queued job, FIFO within a
  priority level, and a ``copy`` never changes after it is taken.
"""

import dataclasses

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import RunSpec, WorldSpec
from repro.api.spec import CrawlSpec
from repro.service import Job, JobQueue, QuotaExceeded, job_id
from repro.service.jobs import ACTIVE_STATES, TERMINAL_STATES

QUOTA = 2
TENANTS = ("alice", "bob")
SPECS = tuple(
    RunSpec(
        kind="crawl", world=WorldSpec(scale=0.01, seed=seed),
        crawl=CrawlSpec(vps=("DE",)),
    )
    for seed in range(2)
)
#: Every job id the machine can submit: one per (spec, tenant).
IDS = tuple(job_id(spec, tenant) for spec in SPECS for tenant in TENANTS)


class JobQueueMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.queue = JobQueue(quota=QUOTA)
        #: The newest persisted snapshot of each job, as the service
        #: writes one after every transition.
        self.disk = {}
        #: id -> the order it was (re)queued in, for the claim order.
        self.queued_at = {}
        self.clock = 0
        self.states = {}
        self.revisions = {}
        self.copies = []
        self.resubmitted = set()

    def _persist(self, job):
        self.disk[job.id] = self.queue.copy(job.id)

    def _queued(self, job):
        self.queued_at[job.id] = self.clock
        self.clock += 1

    @rule(batch=st.lists(
        st.tuples(
            st.sampled_from(range(len(SPECS))), st.sampled_from(TENANTS),
            st.integers(0, 1),
        ),
        min_size=1, max_size=3,
    ))
    def submit(self, batch):
        for index, tenant, priority in batch:
            spec = SPECS[index]
            job = Job(
                id=job_id(spec, tenant), spec=spec, tenant=tenant,
                priority=priority,
            )
            before = self.queue.jobs.get(job.id)
            before = before and before.state
            try:
                submitted = self.queue.submit(job)
            except QuotaExceeded:
                assert before not in ("queued", "running", "done")
                assert self._active(tenant) >= QUOTA
                continue
            if before in (None, "failed", "cancelled"):
                assert submitted.state == "queued"
                self._queued(submitted)
                self.resubmitted.add(submitted.id)
                self._persist(submitted)
            else:
                assert submitted.state == before

    @rule()
    def claim(self):
        queued = [
            job for job in self.queue.jobs.values() if job.state == "queued"
        ]
        job = self.queue.next_job(timeout=0)
        if not queued:
            assert job is None
            return
        first = min(
            queued, key=lambda other: (-other.priority, self.queued_at[other.id])
        )
        assert job is first
        assert job.state == "running"
        self._persist(job)

    @rule(claimed_id=st.sampled_from(IDS))
    def cancel(self, claimed_id):
        before = self.states.get(claimed_id)
        job = self.queue.cancel(claimed_id)
        if before is None:
            assert job is None
            return
        if before == "queued":
            assert job.state == "cancelled"
        elif before == "running":
            assert job.state == "running" and job.cancel_requested
        self._persist(job)

    @rule(
        claimed_id=st.sampled_from(IDS),
        state=st.sampled_from(TERMINAL_STATES),
        summary=st.none() | st.fixed_dictionaries({"records": st.integers(0, 9)}),
    )
    def finish(self, claimed_id, state, summary):
        if state == "done" and summary is None:
            with pytest.raises(ValueError, match="needs its summary"):
                self.queue.finish(claimed_id, state)
            return
        before = self.states.get(claimed_id)
        if before is None:
            with pytest.raises(KeyError):
                self.queue.finish(claimed_id, state, summary=summary)
            return
        error = None if state == "done" else "RuntimeError: stopped"
        job = self.queue.finish(
            claimed_id, state, summary=summary, error=error
        )
        if before in TERMINAL_STATES:
            assert job.state == before
        else:
            assert job.state == state
        self._persist(job)

    @precondition(lambda self: self.queue.jobs)
    @rule(data=st.data())
    def copy(self, data):
        claimed_id = data.draw(st.sampled_from(sorted(self.queue.jobs)))
        taken = self.queue.copy(claimed_id)
        assert taken.to_dict() == self.queue.status(claimed_id)
        self.copies.append((taken, dataclasses.asdict(taken)))

    @rule()
    def restart(self):
        """``serve --resume``: a fresh queue adopts the persisted jobs
        in file order, requeueing the unfinished ones."""
        self.queue = JobQueue(quota=QUOTA)
        self.queued_at = {}
        for claimed_id in sorted(self.disk):
            stored = Job.from_dict(self.disk[claimed_id].to_dict())
            if self.queue.restore(stored):
                self._queued(stored)
            self._persist(stored)

    def _active(self, tenant):
        return sum(
            1 for job in self.queue.jobs.values()
            if job.tenant == tenant and job.state in ACTIVE_STATES
        )

    @invariant()
    def transitions_hold(self):
        for claimed_id, job in self.queue.jobs.items():
            if job.state == "done":
                assert job.summary is not None
            before = self.states.get(claimed_id)
            if before == "done":
                assert job.state == "done"
            elif before in TERMINAL_STATES and job.state != before:
                assert claimed_id in self.resubmitted
            assert job.revision >= self.revisions.get(claimed_id, 0)
            self.states[claimed_id] = job.state
            self.revisions[claimed_id] = job.revision
        # A restart forgets no job it had persisted.
        assert set(self.states) == set(self.queue.jobs)
        self.resubmitted = set()

    @invariant()
    def quotas_hold(self):
        for tenant in TENANTS:
            assert self._active(tenant) <= QUOTA

    @invariant()
    def copies_are_snapshots(self):
        for taken, recorded in self.copies:
            assert dataclasses.asdict(taken) == recorded


JobQueueMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestJobQueueMachine = JobQueueMachine.TestCase
