"""The sharded crawl engine: plan → shard → execute → merge.

The paper's workload — an 8-vantage-point detection crawl over ~45k
sites plus thousands of repeated cookie measurements — is embarrassingly
parallel, but the original harness ran every visit in one serial Python
loop.  This module turns that loop into an explicit subsystem:

1. **Plan.**  A measurement batch is compiled into a
   :class:`CrawlPlan`: an ordered list of :class:`CrawlTask` values
   (``vp``, ``domain``, ``mode``, ``repeats``).  Plans are pure data —
   they can be inspected, counted, and (via ``context``) carry
   serialisable per-plan configuration such as SMP credentials.
   :class:`~repro.measure.crawl.Crawler` provides the compilers
   (``plan_detection_crawl``, ``plan_cookie_measurements``,
   ``plan_subscription_measurements``, ``plan_ublock``).

2. **Shard.**  Tasks are partitioned into N shards by a *stable* hash
   of the task domain (CRC-32, not the per-process-salted ``hash()``),
   so the same plan always shards the same way on every machine and
   run.  Within a shard, tasks keep plan order.

3. **Execute.**  One function, :func:`run_shard`, runs every shard:
   breaker checks, the :class:`RetryPolicy` loop (transient
   ``NetworkError``-family failures are retried, then degraded rather
   than aborting the crawl), and visit-id selection live there alone.
   The engine packs each shard into a JSON-data *bundle*; an executor,
   selected by ``backend`` (``EngineSpec.executor`` / ``--executor``),
   is only the transport that carries it:

   - ``"serial"`` — :class:`SerialExecutor`, shard by shard on the
     calling thread, on the live crawler.
   - ``"distributed"`` — :class:`repro.distributed.DistributedExecutor`
     sends each bundle, as it stands, as a JSON frame to a socket
     worker (:func:`_run_shard_bundle` behind the wire) that rebuilds the
     crawler and returns the records serialized.  A visit is pure
     Python under the default virtual latency, so processes, not
     threads, are what parallelise it.  Local workers are forked
     children that inherit the parent's world; external ones
     (``worker serve``) rebuild it from its (seed, scale, evolution)
     key.  See *Worker state*.

   Every finished shard is absorbed through one path (notes emitted,
   breaker states adopted, outcomes persisted).  With no explicit
   backend, ``workers == 1`` is serial and ``workers > 1`` distributed.

4. **Merge.**  Outcomes are re-assembled in **plan order** (their
   canonical order) regardless of which worker finished first.  The
   run's output decides how:

   - With a ``spool_path``, each finished shard appends its outcomes
     once, as one plan-index-sorted run, to the run's checkpoint
     (*Spooled runs* below).  The engine notes each run's byte range
     as it appends, and the final file is a latest-wins k-way
     plan-order join over those runs (:func:`~repro.measure.storage.
     merge_record_spools`) written through an atomic rename, so peak
     memory is O(one shard's buffer) rather than O(world) and an
     interrupted run never clobbers a previous complete output.
   - Without one, the merge holds every record in memory and the run
     writes no file.

   Either way the run returns one :class:`EngineResult`: counts, the
   (small) permanent-failure list, and the records, held in memory or
   streamed lazily from the final file.  A finished campaign wave
   reloaded under resume is the same result over its wave file.

Worker state
------------
Out-of-process workers rebuild the crawl from one JSON object, the
*worker state* (:meth:`CrawlEngine._worker_state`): the world key
(seed, scale, evolution months), ``Network.latency``, the detectors'
constructor arguments (so configured detectors behave identically in
a worker), ``ublock_lists``, the plan context, and the
:class:`RetryPolicy` fields.  :func:`_init_worker_shared` installs it
once per worker, local or external, after checking it against its
:mod:`repro.schema` shape: one that does not fit is a
:class:`~repro.errors.WireProtocolError` naming the path, e.g.
``malformed worker state: retry.jitter: expected float, got '0.1'``.
Crawler or detector subclasses, hand-assembled or knob-tuned worlds,
and plan contexts that are not JSON data are refused — run those with
``workers=1``.

Spooled runs
------------
A run with a ``spool_path`` is resumable.  Its journal is the JSONL
checkpoint ``<spool_path>.checkpoint``: a header (a
:func:`plan_fingerprint` binding the file to this exact plan and
world) followed by one line per completed task outcome, appended as
each shard finishes, and the output is joined from it.  A crashed run
leaves the completed outcomes there; starting the engine again with
``resume=True`` reconciles the checkpoint against the plan —
already-completed tasks are skipped and their recorded outcomes stay
in the journal the join reads — so a resumed run produces
**byte-identical** final output to an uninterrupted one.  A
fingerprint mismatch (different plan or world) raises
:class:`CheckpointMismatch` rather than silently mixing two different
runs.  On success the checkpoint is removed.

Spooled runs always use the per-task visit-id streams (the parallel
regime below) regardless of ``workers``, because the serial
shared-counter stream cannot survive a resume boundary: skipped tasks
would no longer advance it.  Detection records are unaffected; cookie
and uBlock values are deterministic within the per-task regime.

Determinism
-----------
For a fixed world seed the merged detection-crawl records are
*identical* — not merely equivalent — for every ``workers``/``shards``
combination: detection visits do not depend on the visit-id sequence,
and the plan-order merge removes scheduling nondeterminism.

Cookie and uBlock measurements additionally consume visit ids (the
world keys ad rotation and first-party-count jitter on them), so the
engine controls how ids are allocated:

- **Serial** (``workers=1`` without a ``spool_path``, the default):
  browsers draw from the network's shared monotonic counter in plan
  order — byte-for-byte the pre-engine serial harness.
- **Per-task** (``workers>1``, a ``spool_path``, or a campaign or
  chaos plan): every task gets a private visit-id
  stream derived from (world seed, vp, domain, mode, repeats), so the
  records are a pure function of the world and the plan — identical
  across reruns and across *any* parallel worker/shard combination,
  never dependent on worker scheduling.  (Parallel values differ from
  the serial stream's, since the ids differ; each regime is internally
  deterministic.)

An *id-free* plan (:func:`id_free_plan`: detection tasks only, no
campaign scenario, no chaos plane) yields the same records in both
regimes, so only the shared counter's position tells them apart.  Run
in the per-task regime, such a plan advances the world network's
shared counter by the run's executed attempts
(:meth:`~repro.netsim.network.Network.skip_visit_ids`).  On the stock
crawler, the only one a worker can rebuild, each detection attempt
draws exactly one id and a breaker skip draws none, so the counter
stands where the serial run leaves it, and every later serial
measurement keeps its values: a detection crawl may run on any number
of workers between serial cookie measurements.  Only attempts executed
in this run count: a resumed spooled run does not advance the counter
for its replayed tasks, so it leaves the counter short of the serial
position (harmless where it occurs, since every spooled run draws from
per-task streams).

Progress and throughput are emitted through the existing
:mod:`repro.measure.instrumentation` event-log machinery (``plan``,
``shard``, ``task-retry``, ``progress``, and ``throughput`` events), so
an engine run can be recorded and inspected exactly like an
instrumented browser session.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro import schema
from repro.bannerclick import BannerClick
from repro.durable import atomic_write
from repro.errors import NetworkError, WireProtocolError
from repro.lang import LanguageDetector
from repro.measure.instrumentation import Event, EventLog
from repro.resilience.breaker import SNAPSHOT, CircuitBreaker
from repro.resilience.chaos import ChaosEngine, ChaosSpec
from repro.resilience.clock import TaskMeter, active_meter
from repro.resilience.degrade import degraded_record
from repro.measure.storage import (
    RawRecord,
    Run,
    encode_record_line,
    iter_journal_runs,
    iter_records,
    materialize_record,
    merge_record_spools,
    note_torn_line,
    validate_record_payload,
)
from repro.rng import derive_seed
from repro.schema import OneOf, Omittable, Range

#: Bumped whenever the checkpoint file layout changes; part of the
#: fingerprint, so old checkpoints are refused instead of misread.
CHECKPOINT_VERSION = 1

#: Task modes the engine knows how to dispatch (see ``Crawler.run_task``).
TASK_MODES = ("detect", "accept", "reject", "subscription", "ublock")

#: Executor backends selectable by name (``EngineSpec.executor`` /
#: ``--executor``); ``None`` picks serial for ``workers == 1`` and
#: distributed otherwise.  Serial runs shards in this process on the
#: live crawler; distributed rebuilds it in worker processes from the
#: run-constant state.
EXECUTOR_BACKENDS = ("serial", "distributed")

#: A ``progress`` event is emitted every this many completed tasks, and
#: once more for the last one.
PROGRESS_EVERY = 1000

#: ``progress(done, total, task)`` — invoked after every completed task.
ProgressHook = Callable[[int, int, "CrawlTask"], None]


@dataclass(frozen=True)
class CrawlTask:
    """One schedulable unit of measurement work."""

    vp: str
    domain: str
    mode: str = "detect"
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.mode not in TASK_MODES:
            raise ValueError(f"unknown task mode {self.mode!r}")


def shard_of(domain: str, shards: int) -> int:
    """The stable shard index for *domain* (CRC-32, not ``hash()``)."""
    if shards <= 1:
        return 0
    return zlib.crc32(domain.encode("utf-8")) % shards


def campaign_plan(plan: "CrawlPlan") -> bool:
    """True for multi-vantage campaign plans (a scenario in context).

    Campaign records carry visit-dependent enrichment (the jar's
    third-party cookie sites), so campaign plans always run in the
    per-task visit-id regime — like spooled runs — to keep the
    output identical across backends and worker counts.
    """
    return bool(plan.context.get("multivantage"))


def chaos_plan(plan: "CrawlPlan") -> bool:
    """True when the plan carries a seeded chaos spec in its context.

    Chaos runs always use the per-task visit-id regime: fault rolls
    are keyed on ``(site, visit_id)``, so retries must replay the same
    visit ids for consumed faults to stay consumed — that is what makes
    the recoverable half of the differential oracle byte-identical.
    """
    chaos = plan.context.get("chaos")
    return isinstance(chaos, dict) and chaos.get("seed") is not None


def id_free_plan(plan: "CrawlPlan") -> bool:
    """True when no record of *plan* depends on its visit ids: every
    task detects, and no campaign scenario or chaos plane keys anything
    on them.  Such a plan may run in either visit-id regime; run in the
    per-task one, it still moves the shared counter as the serial run
    would (module docstring, *Determinism*)."""
    return (
        all(task.mode == "detect" for task in plan.tasks)
        and not campaign_plan(plan) and not chaos_plan(plan)
    )


def check_process_portable(crawler) -> None:
    """Refuse, with a ``ValueError`` saying why, a crawl that a worker
    process cannot reconstruct."""
    from repro.measure.crawl import Crawler
    from repro.webgen.config import WorldConfig

    for part, stock in ((crawler, Crawler), (getattr(crawler, "bannerclick", None), BannerClick),
                        (getattr(crawler, "_lang", None), LanguageDetector)):
        if type(part) is not stock:
            raise ValueError(
                "the distributed backend rebuilds the stock Crawler and detectors in each worker "
                f"from plain data; {type(part).__name__} cannot cross the process boundary "
                "(use workers=1)"
            )
    config = getattr(getattr(crawler, "world", None), "config", None)
    if config is None or getattr(config, "seed", None) is None:
        raise ValueError(
            "the distributed backend rebuilds the world from its "
            "(seed, scale, evolution) key; this crawler's world has "
            "no build config"
        )
    if config != WorldConfig(seed=config.seed, scale=config.scale):
        # A spawn-started worker rebuilds with build_world(scale,
        # seed) only; hand-tuned population knobs would silently
        # produce a *different web* in the worker, so refuse them
        # up front (fork-started workers would mask this locally).
        raise ValueError(
            "the distributed backend rebuilds the world from (seed, "
            "scale) alone; this world's config carries non-default "
            "knobs a worker could not reproduce (use workers=1)"
        )


class CheckpointMismatch(RuntimeError):
    """A checkpoint was produced by a different plan, world, or engine
    configuration; resuming it would silently mix two runs."""


def plan_fingerprint(
    plan: "CrawlPlan",
    *,
    world_seed: Optional[int] = None,
    world_scale: Optional[float] = None,
    world_evolution: int = 0,
) -> str:
    """A stable hash binding a checkpoint to one resumable run.

    Covers everything the merged output is a function of: the full
    task list (order included — outcome indices are plan positions),
    the plan context, and the world identity (seed, scale, and months
    of :func:`~repro.webgen.evolve.evolve_world` drift — two snapshots
    share a seed but not a web).  Every checkpointed run uses per-task
    visit ids; the payload still names that regime, so checkpoints
    written when it was a choice keep their fingerprints.  It
    deliberately excludes ``workers``/``shards``/retry settings: in
    the per-task id regime those change scheduling, never results, so
    a crawl may be resumed with a different worker count.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "world_seed": world_seed,
        "world_scale": world_scale,
        "world_evolution": world_evolution,
        "visit_ids": "per-task",
        "context": plan.context,
        "tasks": [
            [task.vp, task.domain, task.mode, task.repeats]
            for task in plan.tasks
        ],
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class CrawlPlan:
    """An ordered batch of tasks plus per-plan configuration."""

    tasks: List[CrawlTask] = field(default_factory=list)
    #: Serialisable plan-wide settings (e.g. SMP platform credentials).
    context: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.tasks)

    def sharded(self, shards: int) -> List[List[Tuple[int, CrawlTask]]]:
        """Partition into *shards* lists of ``(plan_index, task)``.

        Hash-by-domain keeps every task for one domain in one shard;
        within a shard, plan order is preserved.
        """
        buckets: List[List[Tuple[int, CrawlTask]]] = [
            [] for _ in range(max(shards, 1))
        ]
        for index, task in enumerate(self.tasks):
            buckets[shard_of(task.domain, max(shards, 1))].append((index, task))
        return buckets


@dataclass
class TaskOutcome:
    """What happened to one task: a record, or a permanent failure."""

    index: int
    task: CrawlTask
    record: Optional[object] = None
    error: Optional[str] = None
    attempts: int = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry behaviour for transient failures.

    A :class:`~repro.errors.NetworkError` escaping ``Crawler.run_task``
    is retried (the stock crawler converts network failures into
    records instead of raising, but chaos faults and subclasses may
    not).  ``retry_unreachable`` additionally re-runs detection visits
    that came back ``reachable=False``; it defaults to off because the
    paper's methodology counts unreachable sites (and a retry consumes
    extra visit ids from the serial stream).

    Backoff, jitter, and deadlines are paid on the **virtual clock**:
    no real sleeping ever happens, yet the accounting is deterministic
    (jitter derives from the task identity, never a live RNG) so the
    same policy yields the same attempt schedule on every backend.
    ``breaker_threshold``/``breaker_quarantine`` configure the
    per-domain circuit breakers; ``None`` disables them.

    Each field carries its bound beside it (:func:`repro.schema.field`):
    the run spec's ``resilience`` section *is* this policy
    (``ResilienceSpec``) and checks them, and so does the worker state
    that ships the policy to workers.  Every field is a number or flag,
    so ``RetryPolicy(**asdict(policy))`` round-trips.
    """

    max_attempts: int = schema.field(2, min=1)
    retry_unreachable: bool = False
    #: Exponential-backoff schedule (virtual seconds); base 0 means no
    #: inter-attempt delay.
    backoff_base: float = schema.field(0.5, min=0)
    backoff_factor: float = schema.field(2.0, min=1)
    backoff_max: float = schema.field(30.0, min=0)
    #: Deterministic jitter fraction in [0, 1]: each delay is scaled by
    #: ``1 - jitter * roll`` where roll derives from the task identity.
    jitter: float = schema.field(0.1, min=0, max=1)
    #: Virtual-seconds budget for one attempt (None = unlimited); the
    #: clock raises TimeoutError when an attempt exceeds it.
    attempt_deadline: Optional[float] = schema.field(None, above=0)
    #: Virtual-seconds budget for one task across all attempts + backoff
    #: (None = unlimited); breached budgets degrade to DeadlineExceeded.
    task_deadline: Optional[float] = schema.field(None, above=0)
    #: Open a domain's circuit after this many consecutive task
    #: failures (None disables breakers entirely).
    breaker_threshold: Optional[int] = schema.field(None, min=1)
    #: How many tasks an open breaker skips before a half-open probe.
    breaker_quarantine: int = schema.field(4, min=1)

    def backoff_delay(self, task: CrawlTask, attempt: int) -> float:
        """The virtual-seconds delay before retrying *task*'s *attempt*."""
        base = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        if base <= 0.0:
            return 0.0
        if self.jitter <= 0.0:
            return base
        roll = derive_seed(
            0, "backoff", task.vp, task.domain, task.mode, task.repeats,
            attempt,
        ) % 1_000_000 / 1_000_000.0
        return base * (1.0 - self.jitter * roll)


def _execute_task(
    crawler,
    task: CrawlTask,
    context: Optional[Dict],
    retry: RetryPolicy,
    id_base: Optional[int],
    on_retry: Callable[[int, str], None],
    clock=None,
) -> Tuple[Optional[object], Optional[str], int]:
    """Run one task under *retry*; returns ``(record, error, attempts)``.

    The single retry loop; :func:`run_shard` is its only caller, so
    every backend has identical retry semantics by construction.

    *id_base* seeds the task's private visit-id stream (``None`` for
    the serial regime's shared counter).  The stream is rebuilt **per
    attempt** so a retried task replays the same visit ids — a consumed
    chaos fault then stays consumed and the recovered attempt is
    byte-identical to a fault-free run.

    Exhausted retries and breached task deadlines never lose the task:
    they return a deterministic degraded record alongside the error, so
    every plan index lands in the merge exactly once.
    """
    meter = TaskMeter(attempt_deadline=retry.attempt_deadline)
    attempts = 0
    with active_meter(meter):
        while True:
            attempts += 1
            meter.begin_attempt()
            visit_ids = _id_stream(id_base) if id_base is not None else None
            try:
                record = crawler.run_task(task, context, visit_ids=visit_ids)
            except NetworkError as exc:
                error = type(exc).__name__
                if attempts >= retry.max_attempts:
                    return degraded_record(task, error), error, attempts
                delay = retry.backoff_delay(task, attempts)
                if (
                    retry.task_deadline is not None
                    and meter.cost + delay > retry.task_deadline
                ):
                    return (
                        degraded_record(task, "DeadlineExceeded"),
                        "DeadlineExceeded",
                        attempts,
                    )
                if clock is not None:
                    clock.sleep(delay)
                meter.charge(delay)
                on_retry(attempts, error)
            else:
                if (
                    retry.retry_unreachable
                    and task.mode == "detect"
                    and getattr(record, "reachable", True) is False
                    and attempts < retry.max_attempts
                ):
                    on_retry(
                        attempts,
                        getattr(record, "error", None) or "unreachable",
                    )
                    continue
                return record, None, attempts


def run_shard(
    crawler,
    items: List[Tuple[int, CrawlTask]],
    context: Optional[Dict],
    retry: RetryPolicy,
    id_bases: List[List[int]],
    breakers: Dict[str, Dict],
    on_task: Optional[Callable[[CrawlTask], None]] = None,
) -> Tuple[List[TaskOutcome], Dict[str, Dict], List[Dict]]:
    """Run one shard's ``(plan_index, task)`` *items* in plan order — the
    only task loop, whichever backend carries the shard.

    *id_bases* pairs plan indices with per-task visit-id stream seeds
    (empty: the serial regime's shared counter); *breakers* holds the
    per-domain breaker snapshots entering the shard; *on_task* runs
    after every task.  Returns the outcomes, the final breaker
    snapshots, and the ordered ``task-retry``/``breaker-*`` notes (a
    degraded task needs no note: its outcome's error records it).
    """
    network = getattr(getattr(crawler, "world", None), "network", None)
    seeds = dict(id_bases)
    live: Dict[str, CircuitBreaker] = {}
    if retry.breaker_threshold is not None:
        for _, task in items:
            if task.domain not in live:
                live[task.domain] = CircuitBreaker(
                    task.domain,
                    threshold=retry.breaker_threshold,
                    quarantine=retry.breaker_quarantine,
                    snapshot=breakers.get(task.domain),
                )
    outcomes: List[TaskOutcome] = []
    notes: List[Dict] = []
    for index, task in items:
        breaker = live.get(task.domain)
        if breaker is not None and not breaker.allow():
            # Quarantined domain: skip the task deterministically,
            # recording a degraded outcome so no plan index is lost.
            outcome = TaskOutcome(
                index, task, degraded_record(task, "BreakerOpenError"),
                "BreakerOpenError", attempts=0,
            )
        else:
            record, error, attempts = _execute_task(
                crawler, task, context, retry, seeds.get(index),
                lambda attempt, err, index=index: notes.append({
                    "kind": "task-retry", "index": index,
                    "attempt": attempt, "error": err,
                }),
                clock=getattr(network, "clock", None),
            )
            outcome = TaskOutcome(index, task, record, error, attempts)
            if breaker is not None:
                transition = breaker.record(error is None)
                if transition is not None:
                    notes.append(
                        {"kind": f"breaker-{transition}", "index": index}
                    )
        outcomes.append(outcome)
        if on_task is not None:
            on_task(task)
    snapshots = {domain: breaker.snapshot() for domain, breaker in live.items()}
    return outcomes, snapshots, notes


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------

#: Worlds by world key.  The parent inserts its world before its local
#: workers start (and pops it afterwards), so ``fork``-started workers
#: inherit it and skip the rebuild; a ``spawn``-started or external
#: ``worker serve`` worker builds it deterministically from the key.
_WORLDS: Dict[Tuple, object] = {}

#: What a worker's shards share — the stock crawler, plan context and
#: retry policy — built once per worker by :func:`_init_worker_shared`.
_WORKER_SHARED: Dict[str, object] = {}

#: The JSON worker state :meth:`CrawlEngine._worker_state` builds.
_WORKER_STATE = schema.compile({
    "world": [int, Range(float, above=0, max=1), Range(int, min=0)],
    "latency": float,
    "latency_mode": OneOf(("virtual", "real")),
    "bannerclick": schema.fields_shape(BannerClick),
    "language_detector": {"corpora": (None, [[str, [str]]]), "min_confidence": float},
    "ublock_lists": (None, [str]),
    "context": dict,
    "retry": schema.fields_shape(RetryPolicy),
}, lambda text: WireProtocolError(f"malformed worker state: {text}"))


def _init_worker_shared(state: Dict) -> None:
    """Install the JSON worker *state* — every wire worker installs
    through here: check its shape (else :class:`WireProtocolError`),
    then build the world, the crawler with both detectors, and the
    retry policy once for every shard."""
    # Imported lazily — repro.measure.crawl imports this module.
    from repro.measure.crawl import Crawler
    from repro.webgen.evolve import evolve_world
    from repro.webgen.world import build_world

    _WORKER_STATE(state)
    seed, scale, evolution = state["world"]
    world = _WORLDS.get((seed, scale, evolution))
    if world is None:
        world = build_world(scale=scale, seed=seed)
        if evolution:
            world, _ = evolve_world(world, months=evolution)
    world.network.latency = state["latency"]
    world.network.latency_mode = state["latency_mode"]
    lang = state["language_detector"]
    _WORKER_SHARED.update(
        crawler=Crawler(
            world,
            bannerclick=BannerClick(**state["bannerclick"]),
            language_detector=LanguageDetector(
                dict(lang["corpora"] or ()),
                min_confidence=lang["min_confidence"],
            ),
            ublock_lists=state["ublock_lists"],
        ),
        context=state["context"],
        retry=RetryPolicy(**state["retry"]),
    )


def _task_id_base(world_seed: int, task: CrawlTask) -> int:
    """The per-task visit-id stream seed (one derivation, all backends)."""
    return derive_seed(
        world_seed, "engine-task-visits",
        task.vp, task.domain, task.mode, task.repeats,
    )


def _id_stream(base: int) -> Callable[[], int]:
    """The deterministic visit-id stream rooted at *base*."""
    counter = itertools.count()
    return lambda: derive_seed(base, next(counter))


def _run_shard_bundle(bundle: Dict) -> Dict:
    """The worker-process entry point: run one shard bundle — a
    decoded bundle frame, exactly as received.

    Runs :func:`run_shard` on the crawler :func:`_init_worker_shared`
    installed, and dumps each record **once**, here, to its
    canonical JSONL line (:func:`~repro.measure.storage.
    encode_record_line`) — the parent splices those bytes into spools
    and checkpoints without decoding them.  The worker's pid and
    elapsed time ride along for per-process throughput.
    """
    started = time.perf_counter()
    shared = _WORKER_SHARED
    chaos_ctx = shared["context"].get("chaos")
    shared["crawler"].world.network.chaos = (
        ChaosEngine(ChaosSpec.from_context(chaos_ctx)) if chaos_ctx else None
    )
    outcomes, breakers, notes = run_shard(
        shared["crawler"],
        [(entry[0], CrawlTask(*entry[1:])) for entry in bundle["tasks"]],
        shared["context"], shared["retry"],
        bundle["id_bases"], bundle["breakers"],
    )
    return {
        "shard": bundle["shard"],
        "pid": os.getpid(),
        "elapsed": time.perf_counter() - started,
        "outcomes": [
            {
                "index": outcome.index,
                "attempts": outcome.attempts,
                "error": outcome.error,
                "record": None if outcome.record is None
                else encode_record_line(outcome.record),
            }
            for outcome in outcomes
        ],
        "breakers": breakers,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# Streaming checkpoint machinery
#
# A checkpoint is a journal: each shard flush appends one index-sorted
# run of outcome lines, so the file is a concatenation of *sorted
# runs*.  A byte-offset scan recovers the run boundaries of a file
# this process did not write, and the same latest-wins k-way merge the
# output join uses (:func:`~repro.measure.storage.iter_journal_runs`)
# streams each resume's rewrite with one buffered line per run.
# ---------------------------------------------------------------------------

#: Checkpoint outcome (:func:`_journal_outcome`) and breaker lines.
_CHECKPOINT_LINES = {
    "outcome": schema.compile({
        "kind": OneOf(("outcome",)), "index": Range(int, min=0),
        "attempts": Omittable(Range(int, min=0)), "error": Omittable((None, str)),
        "record": Omittable((None, dict)),
    }),
    "breaker": schema.compile({"kind": OneOf(("breaker",)), "domains": {str: SNAPSHOT}}),
}


@dataclass
class _CheckpointScan:
    """Pass 1 of a streaming checkpoint read: structure, not payloads."""

    #: The header line exactly as found (no newline).
    header_line: str
    header: Dict
    #: Byte range of each sorted run; the last one ends just past the
    #: last complete line (a torn trailing line is excluded, as on any
    #: checkpoint read).
    runs: List[Run]
    #: Unique plan indices with a checkpointed outcome.
    indices: Set[int]
    #: Latest-wins circuit-breaker snapshots keyed by domain
    #: (``{"kind": "breaker"}`` lines appended at shard flushes).
    breakers: Dict[str, Dict] = field(default_factory=dict)


def _scan_checkpoint(
    path: Path,
    *,
    validate: Optional[Callable[[int, Dict], None]] = None,
    on_header: Optional[Callable[[Dict], None]] = None,
) -> _CheckpointScan:
    """Scan *path* once, collecting run boundaries and the index set.

    Structural errors raise :class:`ValueError` (mid-file corruption,
    an outcome or breaker line that does not fit its shape) or
    :class:`CheckpointMismatch` (not a checkpoint at all); *validate*
    may add per-outcome checks and *on_header* runs as soon as the
    header parses, so e.g. a fingerprint mismatch is reported before
    the rest of the file is read.  Only integers ever accumulate here —
    record payloads stay on disk.
    """
    header_line: Optional[str] = None
    header: Optional[Dict] = None
    starts: List[int] = []
    end = 0
    indices: Set[int] = set()
    breakers: Dict[str, Dict] = {}
    prev_index: Optional[int] = None
    #: A decode failure held back one line: only if another line
    #: follows is it corruption rather than a torn final write.
    pending: Optional[Tuple[int, Exception]] = None
    offset = 0
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line_start = offset
            offset += len(raw)
            if pending is not None:
                bad_line, error = pending
                raise ValueError(
                    f"{path}:{bad_line}: invalid JSON mid-file ({error})"
                )
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError as error:
                pending = (line_number, error)
                continue
            if not text:
                continue
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as error:
                pending = (line_number, error)
                continue
            kind = (
                payload.get("kind") if isinstance(payload, dict) else None
            )
            if header is None:
                if kind != "header":
                    raise CheckpointMismatch(
                        f"{path}: not a crawl checkpoint "
                        f"(first line is {kind!r})"
                    )
                header_line = text
                header = payload
                if on_header is not None:
                    on_header(header)
                end = offset
                continue
            if kind in _CHECKPOINT_LINES:
                try:
                    _CHECKPOINT_LINES[kind](payload)
                except ValueError as error:
                    raise ValueError(f"{path}:{line_number}: {error}") from None
            if kind == "breaker":
                # Latest-wins by file order: a re-flushed shard's
                # newer snapshot overwrites the stale one.
                breakers.update(payload["domains"])
            if kind != "outcome":
                end = offset
                continue
            index = payload["index"]
            if validate is not None:
                validate(line_number, payload)
            indices.add(index)
            if prev_index is None or index <= prev_index:
                starts.append(line_start)
            prev_index = index
            end = offset
    if pending is not None:
        bad_line, error = pending
        note_torn_line(path, bad_line, error)
    if header is None or header_line is None:
        raise CheckpointMismatch(f"{path}: not a crawl checkpoint (empty)")
    return _CheckpointScan(
        header_line=header_line,
        header=header,
        runs=list(zip(starts, starts[1:] + [end])),
        indices=indices,
        breakers=breakers,
    )


def _breaker_line(snapshots: Dict[str, Dict]) -> str:
    """One ``{"kind": "breaker"}`` checkpoint line for *snapshots*."""
    return json.dumps(
        {"kind": "breaker", "domains": snapshots},
        ensure_ascii=False,
        sort_keys=True,
    ) + "\n"


def _rewrite_checkpoint(
    path: Path,
    *,
    validate: Optional[Callable[[int, Dict], None]] = None,
    on_header: Optional[Callable[[Dict], None]] = None,
) -> Tuple[_CheckpointScan, Run]:
    """The rewrite every resume starts with; returns the scan and the
    byte range of the one sorted run the kept outcomes (one per index
    in ``scan.indices``) form in the rewritten file.

    Scans *path* (corruption is refused as :class:`CheckpointMismatch`),
    then replaces it through :func:`~repro.durable.atomic_write` with
    its canonical, compacted form: the header verbatim, one
    consolidated breaker line (latest-wins already applied by the
    scan), and the latest-wins outcomes in plan order, so repeated
    crash/resume cycles never grow the file with superseded lines.
    A failed rewrite leaves the original file and no scratch behind.
    """
    try:
        scan = _scan_checkpoint(path, validate=validate, on_header=on_header)
    except CheckpointMismatch:
        raise
    except (ValueError, KeyError, TypeError) as error:
        # Mid-file corruption, a malformed outcome line, a bogus record
        # payload — all land on the same refusal path the CLI already
        # handles, instead of a raw traceback.
        raise CheckpointMismatch(
            f"{path}: corrupt checkpoint ({error}); refusing to resume "
            "— rerun without resume to start over"
        ) from error

    def rewrite(handle) -> Run:
        handle.write((scan.header_line + "\n").encode("utf-8"))
        if scan.breakers:
            handle.write(_breaker_line(scan.breakers).encode("utf-8"))
        start = handle.tell()
        for _, _, line in iter_journal_runs(path, scan.runs):
            handle.write((line + "\n").encode("utf-8"))
        return start, handle.tell()

    return scan, atomic_write(path, rewrite)


def _journal_outcome(
    plan: CrawlPlan, index: int, payload: Dict
) -> TaskOutcome:
    """The :class:`TaskOutcome` a journal outcome line records; its
    record stays zero-copy."""
    record = payload.get("record")
    return TaskOutcome(
        index,
        plan.tasks[index],
        None if record is None else RawRecord.from_payload(record),
        payload.get("error"),
        payload.get("attempts", 1),
    )


@dataclass
class EngineResult:
    """One engine run: its counts, its permanent failures, and its
    records in canonical (plan) order.

    An in-memory run holds its records in :attr:`held` (typed, or
    :class:`RawRecord` as a worker shipped them).  A spooled run's
    records, like those of a finished campaign wave reloaded by
    :func:`~repro.measure.longitudinal.reload_completed_wave`, live
    at :attr:`spool_path` and are never held.  Either way
    :meth:`iter_records` streams them and :attr:`records` materialises
    them; nothing else asks where they are.
    """

    #: Tasks in the plan.
    total: int = 0
    #: Records produced (a degraded task still produces one).
    record_count: int = 0
    #: The permanently failed outcomes, in plan order.
    failures: List[TaskOutcome] = field(default_factory=list)
    elapsed: float = 0.0
    #: Tasks replayed (from a checkpoint or a finished wave's file)
    #: rather than executed.
    resumed: int = 0
    #: Where the records were written; ``None`` for an in-memory run.
    spool_path: Optional[Path] = None
    #: An in-memory run's records; ``None`` when they live at
    #: :attr:`spool_path`.
    held: Optional[List[object]] = None

    @property
    def executed(self) -> int:
        """Tasks actually run this invocation (resumed ones excluded)."""
        return self.total - self.resumed

    @property
    def records(self) -> List[object]:
        """The records as a list.  For a spooled result this reads the
        whole file; prefer :meth:`iter_records` at scale."""
        # reprolint: disable=materialized-records -- .records IS the documented materialising consumer API; iter_records is the streaming twin
        return list(self.iter_records())

    def iter_records(self) -> Iterator[object]:
        """Stream the records in plan order.  Records that travelled
        zero-copy are decoded here, at the consumer boundary."""
        if self.held is None:
            yield from iter_records(self.spool_path)
        else:
            yield from map(materialize_record, self.held)

    @property
    def tasks_per_sec(self) -> float:
        """Execution throughput — replayed outcomes took no work, so
        they do not count (a 90%-resumed run is not 10× faster)."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.executed / self.elapsed

    def __len__(self) -> int:
        return self.total


class Executor:
    """A transport: carries shard bundles to :func:`run_shard` and hands
    each finished shard's payload to *on_shard*.

    *shared* is the run-constant half of the work: the live crawler,
    plan tasks, and progress hook for in-process transports; the JSON
    worker state (:meth:`CrawlEngine._worker_state`) that
    :func:`_init_worker_shared` installs, for worker transports.
    """

    #: The :data:`EXECUTOR_BACKENDS` name this transport implements.
    backend = "serial"

    def run_bundles(
        self,
        bundles: List[Dict],
        on_shard: Callable[[Dict], None],
        shared: Dict[str, object],
    ) -> None:
        raise NotImplementedError


def _run_local_bundle(
    bundle: Dict, on_shard: Callable[[Dict], None], shared: Dict
) -> None:
    """Run one bundle on the live crawler; records stay typed."""
    started = time.perf_counter()
    outcomes, breakers, notes = run_shard(
        shared["crawler"],
        [(entry[0], shared["tasks"][entry[0]]) for entry in bundle["tasks"]],
        shared["context"], shared["retry"],
        bundle["id_bases"], bundle["breakers"], shared["on_task"],
    )
    on_shard({
        "shard": bundle["shard"],
        "elapsed": time.perf_counter() - started,
        "outcomes": outcomes,
        "breakers": breakers,
        "notes": notes,
    })


class SerialExecutor(Executor):
    """Runs bundles one after another on the calling thread."""

    def run_bundles(self, bundles, on_shard, shared):
        for bundle in bundles:
            _run_local_bundle(bundle, on_shard, shared)


class CrawlEngine:
    """Compiles nothing, schedules everything: executes a
    :class:`CrawlPlan` through an executor and merges the outcomes.

    Parameters
    ----------
    crawler:
        The :class:`~repro.measure.crawl.Crawler` whose ``run_task``
        performs one task.
    workers:
        Degree of parallelism.  Without an explicit *backend*, ``1``
        (default) selects :class:`SerialExecutor` and ``>1`` a
        :class:`~repro.distributed.DistributedExecutor` with that many
        local worker processes.
    backend:
        Executor backend by name — one of :data:`EXECUTOR_BACKENDS`
        (see the module docstring); ``None`` keeps the workers-based
        rule above.  The distributed backend requires a stock crawler
        over a built world (*Worker state*) and uses per-task visit-id
        streams.
    shards:
        Shard count; defaults to ``1`` when serial and ``4 × workers``
        when parallel.  A shard is the unit of concurrency (tasks
        within it run serially), so effective parallelism is
        ``min(workers, shards)``.  The merged result is independent of
        it for detection crawls (see module docstring).
    retry:
        :class:`RetryPolicy` for transient failures.
    event_log:
        An :class:`~repro.measure.instrumentation.EventLog` receiving
        ``plan`` / ``shard`` / ``task-retry`` / ``progress`` /
        ``throughput`` events.
    progress:
        ``progress(done, total, task)`` called after every completed
        task (serialised under the engine lock).
    spool_path:
        The run's one output.  When set, each finished shard appends
        its outcomes (records *and* permanent failures, with their
        plan indices) once to the checkpoint :attr:`checkpoint`, under
        a :func:`plan_fingerprint` header, and the final file at
        *spool_path* is its k-way plan-order join (module docstring,
        *Merge* and *Spooled runs*) — identical runs produce
        byte-identical files, a crash leaves the previous complete
        output untouched and the run resumable, and memory stays O(one
        shard).  Spooled runs always use per-task visit-id streams,
        even when serial.  The checkpoint is removed on success.
        Without a *spool_path* the result holds the records in memory
        and nothing is written.
    resume:
        With ``resume=True`` (which needs a *spool_path*) an existing
        checkpoint is reconciled against the plan before execution:
        completed tasks are skipped and their outcomes stay in the
        journal the output is joined from.  A fingerprint mismatch
        raises :class:`CheckpointMismatch`; a missing checkpoint
        simply starts fresh.
    executor:
        Override the transport (e.g. a preconfigured
        :class:`~repro.distributed.DistributedExecutor`); its
        ``backend`` then names the run's backend.  By default chosen from
        *backend* and *workers* as described above.
    """

    def __init__(
        self,
        crawler,
        *,
        workers: int = 1,
        shards: Optional[int] = None,
        backend: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        event_log: Optional[EventLog] = None,
        progress: Optional[ProgressHook] = None,
        spool_path: Union[str, Path, None] = None,
        resume: bool = False,
        executor: Optional[Executor] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend is not None and backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r} "
                f"(known: {', '.join(EXECUTOR_BACKENDS)})"
            )
        if backend == "serial" and workers > 1:
            raise ValueError(
                "backend='serial' contradicts workers > 1 "
                "(pick 'distributed' to parallelise)"
            )
        self.crawler = crawler
        self.workers = workers
        self.backend = backend
        self.executor = executor
        #: Parallel runs default to more shards and always use per-task
        #: visit-id streams (see :meth:`_per_task_plan`).
        self._parallel = workers > 1 or self.resolved_backend != "serial"
        self.shards = shards if shards is not None else (
            workers * 4 if self._parallel else 1
        )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self.retry = retry or RetryPolicy()
        self.event_log = event_log
        self.progress = progress
        self.spool_path = Path(spool_path) if spool_path is not None else None
        if resume and self.spool_path is None:
            # A silently ignored resume would re-run everything while
            # the caller believes the checkpoint was honoured.
            raise ValueError("resume=True requires a spool_path (the checkpoint lives beside it)")
        self.resume = resume
        #: The byte range of every outcome run :attr:`checkpoint` holds
        #: for this execution.
        self._runs: List[Run] = []
        #: pid -> [shards, tasks, elapsed] for worker-process runs.
        self._process_stats: Dict[int, List] = {}
        self._lock = threading.Lock()
        #: Separate lock for the caller's progress hook, so a slow (or
        #: engine-reentrant) hook can never stall spool writes or
        #: deadlock against the engine's own lock.
        self._progress_lock = threading.Lock()
        self._done = 0
        self._total = 0
        #: Attempts the absorbed shards made: what an id-free plan in
        #: the per-task regime skips on the shared counter.
        self._attempts = 0
        #: Per-domain circuit breakers, when the retry policy enables
        #: them: restored from checkpoint replays and replaced by every
        #: absorbed shard's final states.
        self._breakers: Dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------------
    @property
    def resolved_backend(self) -> str:
        """The effective backend name: the injected executor's, else the
        explicit one, else the workers rule."""
        if self.executor is not None:
            return self.executor.backend
        if self.backend is not None:
            return self.backend
        return "serial" if self.workers == 1 else "distributed"

    @property
    def checkpoint(self) -> Optional[Path]:
        """A spooled run's journal, ``<spool_path>.checkpoint``."""
        return None if self.spool_path is None else Path(f"{self.spool_path}.checkpoint")

    def _per_task_plan(self, plan: CrawlPlan) -> bool:
        """Whether tasks get private visit-id streams (module docstring):
        when parallel (worker processes cannot share the serial
        counter), spooled (the counter cannot survive a resume
        boundary, since replayed tasks would no longer advance it), or
        running a campaign/chaos plan, which forces it.  The streams
        are seeded by the world's build seed; a world without one
        stays on the shared counter."""
        config = getattr(getattr(self.crawler, "world", None), "config", None)
        return config is not None and (
            self._parallel or self.spool_path is not None
            or campaign_plan(plan) or chaos_plan(plan)
        )

    def fingerprint(self, plan: CrawlPlan) -> str:
        """The :func:`plan_fingerprint` of *plan* under this engine."""
        world = getattr(self.crawler, "world", None)
        config = getattr(world, "config", None)
        return plan_fingerprint(
            plan,
            world_seed=getattr(config, "seed", None),
            world_scale=getattr(config, "scale", None),
            world_evolution=getattr(world, "evolution_months", 0),
        )

    def execute(self, plan: CrawlPlan) -> EngineResult:
        """Run *plan* and return the plan-ordered merged result."""
        sharded = plan.sharded(self.shards)
        self._total = len(plan)
        self._process_stats = {}
        self._runs = []
        completed, breakers = self._reconcile_checkpoint(plan)
        self._breakers = {}
        self._adopt_breakers(breakers)
        if completed:
            sharded = [
                [
                    (index, task) for index, task in shard
                    if index not in completed
                ]
                for shard in sharded
            ]
        self._done = len(completed)
        self._attempts = 0
        self._emit("plan", "engine://plan", {
            "tasks": len(plan),
            "shards": self.shards,
            "workers": self.workers,
            "backend": self.resolved_backend,
            "merge": "memory" if self.spool_path is None else "spool",
        })
        if completed:
            self._emit("resume", "engine://resume", {
                "completed": len(completed),
                "remaining": len(plan) - len(completed),
            })
        executor: Executor = self.executor or self._default_executor()
        bundles = self._bundles(plan, sharded)
        outcomes: List[TaskOutcome] = []

        def on_shard(payload: Dict) -> None:
            absorbed = self._absorb_shard(plan, payload)
            if self.spool_path is None:
                with self._lock:
                    outcomes.extend(absorbed)

        network = getattr(getattr(self.crawler, "world", None), "network", None)
        chaos_ctx = plan.context.get("chaos")
        installed_chaos = False
        if network is not None and isinstance(chaos_ctx, dict):
            network.chaos = ChaosEngine(ChaosSpec.from_context(chaos_ctx))
            installed_chaos = True
        started = time.perf_counter()
        try:
            if executor.backend == "serial":
                executor.run_bundles(bundles, on_shard, {
                    "crawler": self.crawler,
                    "tasks": plan.tasks,
                    "context": plan.context,
                    "retry": self.retry,
                    "on_task": self._advance,
                })
            else:
                self._run_in_workers(executor, plan, bundles, on_shard)
        finally:
            if installed_chaos:
                network.chaos = None
        elapsed = time.perf_counter() - started
        if (
            network is not None and id_free_plan(plan)
            and self._per_task_plan(plan)
        ):
            network.skip_visit_ids(self._attempts)
        self._emit_process_throughput()
        if self.spool_path is not None:
            result = self._join(plan, len(completed), elapsed)
            # The run completed; its durable output is final.
            self.checkpoint.unlink(missing_ok=True)
        else:
            outcomes.sort(key=lambda outcome: outcome.index)
            held = [o.record for o in outcomes if o.record is not None]
            result = EngineResult(
                total=len(plan),
                record_count=len(held),
                failures=[o for o in outcomes if o.error is not None],
                elapsed=elapsed,
                held=held,
            )
        self._emit("throughput", "engine://throughput", {
            "tasks": result.executed,
            "resumed": result.resumed,
            "elapsed": elapsed,
            "tasks_per_sec": result.tasks_per_sec,
        })
        return result

    def _default_executor(self) -> Executor:
        """The executor the resolved backend names.

        Each shard is one unit of concurrency, so workers beyond the
        shard count would only idle.
        """
        if self.resolved_backend == "serial":
            return SerialExecutor()
        # Imported lazily — repro.distributed builds on this module.
        from repro.distributed import DistributedExecutor

        return DistributedExecutor(min(self.workers, self.shards))

    # ------------------------------------------------------------------
    # Bundles, worker transports, and the one absorb path
    # ------------------------------------------------------------------
    def _bundles(
        self, plan: CrawlPlan, sharded: List[List[Tuple[int, CrawlTask]]]
    ) -> List[Dict]:
        """One JSON-data bundle per non-empty shard — what a bundle frame
        carries (:data:`repro.distributed.wire.FRAMES`): task entries,
        ``[index, seed]`` per-task visit-id stream seeds (none in the
        serial regime), and the breaker snapshots entering the shard."""
        config = getattr(getattr(self.crawler, "world", None), "config", None)
        per_task = self._per_task_plan(plan)
        return [
            {
                "shard": shard_id,
                "tasks": [
                    [index, task.vp, task.domain, task.mode, task.repeats]
                    for index, task in items
                ],
                "id_bases": [
                    [index, _task_id_base(config.seed, task)]
                    for index, task in items
                ] if per_task else [],
                "breakers": {
                    task.domain: self._breakers[task.domain].snapshot()
                    for _, task in items if task.domain in self._breakers
                },
            }
            for shard_id, items in enumerate(sharded) if items
        ]

    def _worker_state(self, plan: CrawlPlan) -> Dict:
        """The run-constant JSON state every worker installs once.

        Refused unless JSON carries it unchanged: wire frames carry it
        as JSON, to local and external workers alike.  Corpora travel as
        ordered ``[language, sentences]`` pairs: training order is part
        of the detector, and wire frames sort object keys.
        """
        world, lang = self.crawler.world, self.crawler._lang
        state = {
            "world": [world.config.seed, world.config.scale, getattr(world, "evolution_months", 0)],
            "latency": getattr(world.network, "latency", 0.0),
            "latency_mode": getattr(world.network, "latency_mode", "virtual"),
            "bannerclick": asdict(self.crawler.bannerclick),
            "language_detector": {
                "corpora": [
                    [language, list(sentences)]
                    for language, sentences in (lang.corpora or {}).items()
                ] or None,
                "min_confidence": lang.min_confidence,
            },
            "ublock_lists": self.crawler.ublock_lists,
            "context": plan.context,
            "retry": asdict(self.retry),
        }
        try:
            same = json.loads(json.dumps(state)) == state
        except (TypeError, ValueError):
            same = False
        if not same:
            raise ValueError(
                "workers receive the plan context, detectors and retry "
                "policy as JSON, and this run's are not JSON data "
                "(use workers=1)"
            )
        return state

    def _run_in_workers(
        self,
        executor: Executor,
        plan: CrawlPlan,
        bundles: List[Dict],
        on_shard: Callable[[Dict], None],
    ) -> None:
        """Ship *bundles* to worker processes along with the JSON worker
        state each of them installs once (:func:`_init_worker_shared`)."""
        check_process_portable(self.crawler)
        state = self._worker_state(plan)
        world_key = tuple(state["world"])
        # Fork-started workers inherit this entry and skip the rebuild;
        # spawn-started ones build deterministically from the key.
        _WORLDS[world_key] = self.crawler.world
        try:
            executor.run_bundles(bundles, on_shard, state)
        finally:
            _WORLDS.pop(world_key, None)

    def _absorb_shard(
        self, plan: CrawlPlan, payload: Dict
    ) -> List[TaskOutcome]:
        """Fold one finished shard into the run — every backend's only
        absorb path.

        A worker payload (one carrying a ``pid``) arrives serialized,
        its progress not yet advanced; an in-process payload carries
        typed outcomes whose progress hook already fired task by task.
        """
        pid = payload.get("pid")
        outcomes = payload["outcomes"]
        if pid is not None:
            with self._lock:
                stats = self._process_stats.setdefault(pid, [0, 0, 0.0])
                stats[0] += 1
                stats[1] += len(outcomes)
                stats[2] += payload["elapsed"]
            # The worker shipped canonical serialized lines; wrap them
            # opaque — spool and checkpoint writes splice these bytes
            # straight through, and a decode happens only if a consumer
            # inspects the record's fields.
            outcomes = [
                TaskOutcome(
                    entry["index"],
                    plan.tasks[entry["index"]],
                    None if entry["record"] is None
                    else RawRecord(entry["record"]),
                    entry["error"],
                    entry["attempts"],
                )
                for entry in outcomes
            ]
        with self._lock:
            self._attempts += sum(outcome.attempts for outcome in outcomes)
        for note in payload["notes"]:
            task = plan.tasks[note["index"]]
            if note["kind"] == "task-retry":
                self._emit(note["kind"], f"engine://task/{note['index']}", {
                    "vp": task.vp,
                    "domain": task.domain,
                    "mode": task.mode,
                    "attempt": note["attempt"],
                    "error": note["error"],
                })
            else:
                self._emit(
                    note["kind"],
                    f"engine://breaker/{task.domain}",
                    {"domain": task.domain},
                )
        for outcome in outcomes:
            if outcome.error is not None:
                self._emit("task-degraded", f"engine://task/{outcome.index}", {
                    "index": outcome.index,
                    "domain": outcome.task.domain,
                    "error": outcome.error,
                    "attempts": outcome.attempts,
                })
        self._adopt_breakers(payload["breakers"])
        if outcomes and self.spool_path is not None:
            with self._lock:
                self._append_run(outcomes, payload["breakers"])
        detail = {
            "shard": payload["shard"],
            "tasks": len(outcomes),
            "elapsed": payload["elapsed"],
        }
        if pid is not None:
            detail["pid"] = pid
        self._emit("shard", f"engine://shard/{payload['shard']}", detail)
        if pid is not None:
            for outcome in outcomes:
                self._advance(outcome.task)
        return outcomes

    def _adopt_breakers(self, snapshots: Dict[str, Dict]) -> None:
        """Install breaker *snapshots* — a checkpoint's, or an absorbed
        shard's final states — in the registry the next bundles read.
        Each domain lives in one shard, so absorbing threads never
        write the same entry."""
        if self.retry.breaker_threshold is None:
            return
        for domain, snapshot in snapshots.items():
            self._breakers[domain] = CircuitBreaker(
                domain,
                threshold=self.retry.breaker_threshold,
                quarantine=self.retry.breaker_quarantine,
                snapshot=snapshot,
            )

    def _emit_process_throughput(self) -> None:
        for pid, (shards, tasks, elapsed) in sorted(
            self._process_stats.items()
        ):
            self._emit("process-throughput", f"engine://process/{pid}", {
                "pid": pid,
                "shards": shards,
                "tasks": tasks,
                "elapsed": elapsed,
                "tasks_per_sec": tasks / elapsed if elapsed > 0 else 0.0,
            })

    # ------------------------------------------------------------------
    # The journal and the output join
    # ------------------------------------------------------------------
    def _append_run(
        self, outcomes: List[TaskOutcome], breakers: Dict[str, Dict]
    ) -> None:
        """Append one finished shard's outcomes to the checkpoint as one
        sorted run and note its byte range (caller holds the lock).

        Plan order within a shard makes the run index-sorted, which the
        join requires.  When breakers are enabled the run ends with the
        shard's final breaker states; the scan applies them
        latest-wins, so a resume restores each domain's quarantine
        where it stood at the last completed flush.
        """
        with self.checkpoint.open("ab") as handle:
            start = handle.tell()
            for outcome in outcomes:
                handle.write(self._outcome_line(outcome).encode("utf-8"))
            if breakers:
                handle.write(_breaker_line(breakers).encode("utf-8"))
            self._runs.append((start, handle.tell()))

    def _join(
        self, plan: CrawlPlan, resumed: int, elapsed: float
    ) -> EngineResult:
        """Join the checkpoint's runs into :attr:`spool_path`; the same
        pass reports the permanent failures, replayed ones included."""
        failures: List[TaskOutcome] = []
        count = merge_record_spools(
            self.checkpoint, self._runs, self.spool_path,
            on_failure=lambda index, payload: failures.append(
                _journal_outcome(plan, index, payload)
            ),
        )
        return EngineResult(
            total=len(plan),
            record_count=count,
            failures=failures,
            elapsed=elapsed,
            resumed=resumed,
            spool_path=self.spool_path,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_header(self, fingerprint: str, tasks: int) -> str:
        header = {
            "kind": "header",
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "tasks": tasks,
        }
        return json.dumps(header, ensure_ascii=False) + "\n"

    def _reconcile_checkpoint(
        self, plan: CrawlPlan
    ) -> Tuple[Set[int], Dict[str, Dict]]:
        """Streaming resume: reconcile the checkpoint, (re)start the file.

        The checkpoint is rewritten as header + latest-wins outcomes in
        plan order (so it stays canonical — and compact — across
        repeated resumes) in one k-way streaming pass over its sorted
        runs.  That rewritten run is the first run of this execution's
        journal, so what is returned is the completed plan indices,
        never the records, plus the circuit-breaker snapshots (keyed by
        domain) that let quarantine survive a kill/resume.
        """
        if self.spool_path is None:
            return set(), {}
        fingerprint = self.fingerprint(plan)
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
        if self.resume and self.checkpoint.exists():
            return self._streaming_reconcile(plan, fingerprint)
        with self.checkpoint.open("w", encoding="utf-8") as handle:
            handle.write(self._checkpoint_header(fingerprint, len(plan)))
        return set(), {}

    def _streaming_reconcile(
        self, plan: CrawlPlan, fingerprint: str
    ) -> Tuple[Set[int], Dict[str, Dict]]:
        path = self.checkpoint

        def on_header(header: Dict) -> None:
            found = header.get("fingerprint")
            if found != fingerprint:
                raise CheckpointMismatch(
                    f"{path}: fingerprint {found} does "
                    f"not match this plan/world/config ({fingerprint}); "
                    "refusing to resume — rerun without resume to start "
                    "over"
                )

        def validate(line_number: int, payload: Dict) -> None:
            if payload["index"] >= len(plan.tasks):  # the line's shape bounds it below
                raise CheckpointMismatch(
                    f"{path}:{line_number}: outcome index "
                    f"{payload['index']} outside the plan"
                )
            record_payload = payload.get("record")
            if record_payload is not None:
                # Structural refusal (unknown type, missing body) keeps
                # the corrupt-checkpoint error path without ever
                # deserialising a record.
                validate_record_payload(record_payload)

        scan, run = _rewrite_checkpoint(
            path, validate=validate, on_header=on_header
        )
        if scan.indices:
            self._runs.append(run)
        return scan.indices, dict(scan.breakers)

    @staticmethod
    def _outcome_line(outcome: TaskOutcome) -> str:
        head = {
            "kind": "outcome",
            "index": outcome.index,
            "attempts": outcome.attempts,
            "error": outcome.error,
        }
        if outcome.record is None:
            head["record"] = None
            return json.dumps(head, ensure_ascii=False) + "\n"
        # Splice the record's canonical serialized bytes into the
        # outcome envelope instead of re-dumping a nested payload —
        # byte-identical to the single json.dumps (same key order and
        # separators), and for a RawRecord entirely decode-free.
        raw = encode_record_line(outcome.record)
        return (
            json.dumps(head, ensure_ascii=False)[:-1]
            + ', "record": ' + raw + "}\n"
        )

    # ------------------------------------------------------------------
    def _advance(self, task: CrawlTask) -> None:
        with self._lock:
            self._done += 1
            done, total = self._done, self._total
            if done % PROGRESS_EVERY == 0 or done == total:
                self._emit_locked("progress", "engine://progress", {
                    "done": done, "total": total,
                })
        if self.progress is not None:
            # Hook calls are serialised (so wrapper closures need no
            # locking of their own) but run outside the engine lock;
            # under parallel execution consecutive calls may observe
            # `done` snapshots out of order.
            with self._progress_lock:
                self.progress(done, total, task)

    # ------------------------------------------------------------------
    def _emit(self, kind: str, url: str, detail: Dict[str, object]) -> None:
        if self.event_log is None:
            return
        with self._lock:
            self._emit_locked(kind, url, detail)

    def _emit_locked(self, kind: str, url: str, detail: Dict[str, object]) -> None:
        if self.event_log is not None:
            self.event_log.events.append(Event(kind, 0, url, detail))
