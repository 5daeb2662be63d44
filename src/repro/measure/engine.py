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
   The engine packs each shard into a plain-data *bundle*; an executor,
   selected by ``backend`` (``EngineSpec.executor`` / ``--executor``),
   is only the transport that carries it:

   - ``"serial"`` — :class:`SerialExecutor`, shard by shard on the
     calling thread, on the live crawler.
   - ``"distributed"`` — :class:`repro.distributed.DistributedExecutor`
     carries each bundle as a JSON frame to a socket worker
     (:func:`_run_shard_bundle` behind the wire) that rebuilds the
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
     once, as one plan-index-sorted run, to the run's *journal*: the
     checkpoint when there is one, else a private ``<path>.journal``
     that never outlives the run.  The engine notes each run's byte
     range as it appends, and the final file is a latest-wins k-way
     plan-order join over those runs (:func:`~repro.measure.storage.
     merge_record_spools`) written through an atomic rename, so peak
     memory is O(one shard's buffer) rather than O(world) and an
     interrupted run never clobbers a previous complete output.  The
     returned :class:`EngineResult` carries counts and the (small)
     failure list the join reports instead of materialised outcomes;
     records stream lazily from the final file.
   - Without one, the merge holds every outcome in memory.

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

Checkpoints and resume
----------------------
With a ``checkpoint_path``, the engine is additionally *resumable*: a
JSONL checkpoint records a header (a :func:`plan_fingerprint` binding
the file to this exact plan, world seed, and visit-id regime) followed
by one line per completed task outcome, appended as each shard
finishes (for a spooled run the checkpoint *is* the journal the output
is joined from).  A crashed run leaves the completed outcomes there;
starting the engine again with ``resume=True`` reconciles the
checkpoint against the plan — already-completed tasks are skipped and
their recorded outcomes replayed into the plan-order merge — so a
resumed run produces **byte-identical** final output to an
uninterrupted one.
A fingerprint mismatch (different plan, world seed, or id regime)
raises :class:`CheckpointMismatch` rather than silently mixing two
different runs.  On success the checkpoint is removed.

Checkpointed runs always use the per-task visit-id streams (the
parallel regime below) regardless of ``workers``, because the serial
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

- **Serial** (``workers=1``, the default): browsers draw from the
  network's shared monotonic counter in plan order — byte-for-byte the
  pre-engine serial harness.
- **Parallel** (``workers>1``): every task gets a private visit-id
  stream derived from (world seed, vp, domain, mode, repeats), so the
  records are a pure function of the world and the plan — identical
  across reruns and across *any* parallel worker/shard combination,
  never dependent on worker scheduling.  (Parallel values differ from
  the serial stream's, since the ids differ; each regime is internally
  deterministic.)

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
    load_records,
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
    per-task visit-id regime — like checkpointed runs — to keep the
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


class CheckpointMismatch(RuntimeError):
    """A checkpoint was produced by a different plan, world, or engine
    configuration; resuming it would silently mix two runs."""


def plan_fingerprint(
    plan: "CrawlPlan",
    *,
    world_seed: Optional[int] = None,
    world_scale: Optional[float] = None,
    world_evolution: int = 0,
    per_task_ids: bool = True,
) -> str:
    """A stable hash binding a checkpoint to one resumable run.

    Covers everything the merged output is a function of: the full
    task list (order included — outcome indices are plan positions),
    the plan context, the world identity (seed, scale, and months of
    :func:`~repro.webgen.evolve.evolve_world` drift — two snapshots
    share a seed but not a web), and the visit-id regime.  It
    deliberately excludes ``workers``/``shards``/retry settings: in
    the per-task id regime those change scheduling, never results, so
    a crawl may be resumed with a different worker count.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "world_seed": world_seed,
        "world_scale": world_scale,
        "world_evolution": world_evolution,
        "visit_ids": "per-task" if per_task_ids else "serial",
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


@dataclass
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
    per-domain circuit breakers; ``None`` disables them.  Every field
    is a number or flag, so ``RetryPolicy(**asdict(policy))`` round-trips.
    """

    max_attempts: int = 2
    retry_unreachable: bool = False
    #: Exponential-backoff schedule (virtual seconds); base <= 0 means
    #: no inter-attempt delay.
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: Deterministic jitter fraction in [0, 1]: each delay is scaled by
    #: ``1 - jitter * roll`` where roll derives from the task identity.
    jitter: float = 0.1
    #: Virtual-seconds budget for one attempt (None = unlimited); the
    #: clock raises TimeoutError when an attempt exceeds it.
    attempt_deadline: Optional[float] = None
    #: Virtual-seconds budget for one task across all attempts + backoff
    #: (None = unlimited); breached budgets degrade to DeadlineExceeded.
    task_deadline: Optional[float] = None
    #: Open a domain's circuit after this many consecutive task
    #: failures (None disables breakers entirely).
    breaker_threshold: Optional[int] = None
    #: How many tasks an open breaker skips before a half-open probe.
    breaker_quarantine: int = 4

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
    id_bases: Dict[int, int],
    breakers: Dict[str, Dict],
    on_task: Optional[Callable[[CrawlTask], None]] = None,
) -> Tuple[List[TaskOutcome], Dict[str, Dict], List[Dict]]:
    """Run one shard's ``(plan_index, task)`` *items* in plan order — the
    only task loop, whichever backend carries the shard.

    *id_bases* maps plan indices to per-task visit-id stream seeds
    (empty: the serial regime's shared counter); *breakers* holds the
    per-domain breaker snapshots entering the shard; *on_task* runs
    after every task.  Returns the outcomes, the final breaker
    snapshots, and the ordered ``task-retry``/``breaker-*`` notes (a
    degraded task needs no note: its outcome's error records it).
    """
    network = getattr(getattr(crawler, "world", None), "network", None)
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
                crawler, task, context, retry, id_bases.get(index),
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
    """The worker-process entry point: run one shard bundle.

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
        bundle["id_bases"], bundle.get("breakers") or {},
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


@dataclass(frozen=True)
class CheckpointCompaction:
    """What :meth:`CrawlEngine.compact_checkpoint` did to one file."""

    path: Path
    #: Outcome lines kept (the latest per plan index).
    kept: int
    #: Superseded/duplicate outcome lines dropped.
    dropped: int
    fingerprint: str

    def render(self) -> str:
        return (
            f"{self.path}: kept {self.kept} outcomes, dropped "
            f"{self.dropped} (fingerprint {self.fingerprint})"
        )


# ---------------------------------------------------------------------------
# Streaming checkpoint machinery
#
# A checkpoint is a journal: each shard flush appends one index-sorted
# run of outcome lines, so the file is a concatenation of *sorted
# runs*.  A byte-offset scan recovers the run boundaries of a file
# this process did not write, and the same latest-wins k-way merge the
# output join uses (:func:`~repro.measure.storage.iter_journal_runs`)
# streams resume and compaction with one buffered line per run.
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
    #: Total outcome lines (duplicates included).
    outcome_lines: int
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
    outcome_lines = 0
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
            outcome_lines += 1
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
        outcome_lines=outcome_lines,
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
    refusal: str,
    *,
    validate: Optional[Callable[[int, Dict], None]] = None,
    on_header: Optional[Callable[[Dict], None]] = None,
    on_outcome: Optional[Callable[[int, Dict], None]] = None,
) -> Tuple[_CheckpointScan, int, Run]:
    """The checkpoint file's one rewrite, shared by resume and
    compaction; returns the scan, the outcome lines kept, and the byte
    range of the one sorted run they form in the rewritten file.

    Scans *path* (corruption is refused as :class:`CheckpointMismatch`
    ending in *refusal*), then atomically replaces it through a temp
    sibling with its canonical form: the header verbatim, one
    consolidated breaker line (latest-wins already applied by the
    scan), and the latest-wins outcomes in plan order, each of which
    *on_outcome* also sees.  A failed rewrite leaves the original
    file and no temp behind.
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
            f"{path}: corrupt checkpoint ({error}); {refusal}"
        ) from error
    tmp = path.with_name(path.name + ".rewrite")
    kept = 0
    try:
        with tmp.open("wb") as handle:
            handle.write((scan.header_line + "\n").encode("utf-8"))
            if scan.breakers:
                handle.write(_breaker_line(scan.breakers).encode("utf-8"))
            start = handle.tell()
            for index, payload, line in iter_journal_runs(path, scan.runs):
                handle.write((line + "\n").encode("utf-8"))
                kept += 1
                if on_outcome is not None:
                    on_outcome(index, payload)
            run = (start, handle.tell())
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)
    return scan, kept, run


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
class CheckpointReplay:
    """What a streaming reconcile replays into the current run.

    A spooled run's resume path holds no outcomes at all, only the
    completed *indices* (ints): the replayed outcomes stay in the
    rewritten checkpoint, whose one sorted run the output join reads.
    Only the in-memory merge materialises replayed outcomes, and even
    those carry zero-copy :class:`~repro.measure.storage.RawRecord`
    payloads until a consumer looks inside.
    """

    completed: Set[int] = field(default_factory=set)
    #: In-memory merge only: every replayed outcome, records zero-copy.
    outcomes: List["TaskOutcome"] = field(default_factory=list)
    #: Circuit-breaker snapshots restored from the checkpoint, keyed
    #: by domain — adopted into the engine's registry before execution
    #: so quarantine survives a kill/resume.
    breakers: Dict[str, Dict] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.completed)


@dataclass
class EngineResult:
    """Merged outcomes of one engine run, in canonical (plan) order.

    Without a ``spool_path``, :attr:`outcomes` holds every
    :class:`TaskOutcome`.  With one, the outcomes were streamed to
    disk instead: :attr:`outcomes` is ``None``, the final
    records live at :attr:`spool_path` (stream them with
    :meth:`iter_records`; :attr:`records` materialises them on
    demand), and only the counts plus the — small — permanent-failure
    list are kept in memory.
    """

    outcomes: Optional[List[TaskOutcome]] = field(default_factory=list)
    elapsed: float = 0.0
    #: Outcomes replayed from a checkpoint rather than executed.
    resumed: int = 0
    #: Spooled runs only: where the merged records were written.
    spool_path: Optional[Path] = None
    #: Spooled runs only: total task count (``len(plan)``).
    total: Optional[int] = None
    #: Spooled runs only: records written to :attr:`spool_path`.
    spooled_records: int = 0
    #: Spooled runs only: the permanently failed outcomes, as the join
    #: read them back from the journal.
    spooled_failures: List[TaskOutcome] = field(default_factory=list)

    @property
    def streamed(self) -> bool:
        """True when this result was spool-merged (outcomes on disk)."""
        return self.outcomes is None

    @property
    def executed(self) -> int:
        """Tasks actually run this invocation (resumed ones excluded)."""
        return len(self) - self.resumed

    @property
    def records(self) -> List[object]:
        """The produced records, plan-ordered, skipping failed tasks.

        For a spool-merged result this *materialises* the full list
        from disk — prefer :meth:`iter_records` at scale.  Outcomes
        that travelled zero-copy (process workers, checkpoint replay)
        are decoded here, at the consumer boundary — the first time
        anyone actually needs the typed objects.
        """
        if self.outcomes is None:
            # reprolint: disable=materialized-records -- .records IS the documented materialising consumer API; iter_records is the streaming twin
            return load_records(self.spool_path)
        return [
            materialize_record(o.record)
            for o in self.outcomes
            if o.record is not None
        ]

    def iter_records(self) -> Iterator[object]:
        """Stream the records in plan order without materialising."""
        if self.outcomes is None:
            yield from iter_records(self.spool_path)
            return
        for outcome in self.outcomes:
            if outcome.record is not None:
                yield materialize_record(outcome.record)

    @property
    def record_count(self) -> int:
        """Number of produced records (no materialisation needed)."""
        if self.outcomes is None:
            return self.spooled_records
        return sum(1 for o in self.outcomes if o.record is not None)

    @property
    def failures(self) -> List[TaskOutcome]:
        if self.outcomes is None:
            return list(self.spooled_failures)
        return [o for o in self.outcomes if o.error is not None]

    @property
    def tasks_per_sec(self) -> float:
        """Execution throughput — replayed outcomes took no work, so
        they do not count (a 90%-resumed run is not 10× faster)."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.executed / self.elapsed

    def __len__(self) -> int:
        if self.outcomes is None:
            return self.total if self.total is not None else 0
        return len(self.outcomes)


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


class FaultInjectingExecutor(SerialExecutor):
    """Chaos harness for the checkpoint/resume path: kills the chosen
    shards either before they run or — with ``partial=True`` — after
    half their tasks completed (and were checkpointed), which is what a
    worker dying mid-shard looks like.  Every other shard runs and
    checkpoints normally; the first injected crash is raised after the
    last shard, exactly as under a real crash of one worker.
    Used by the crash-safety tests and benchmarks; never the default.
    """

    def __init__(self, fail_shards, *, partial: bool = False):
        self.fail_shards = set(fail_shards)
        self.partial = partial

    def run_bundles(self, bundles, on_shard, shared):
        crashed = [b["shard"] for b in bundles if b["shard"] in self.fail_shards]
        for bundle in bundles:
            if bundle["shard"] in crashed:
                if not self.partial:
                    continue
                tasks = bundle["tasks"]
                bundle = dict(bundle, tasks=tasks[: len(tasks) // 2])
            _run_local_bundle(bundle, on_shard, shared)
        if crashed:
            raise RuntimeError(f"injected crash in shard {crashed[0]}")


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
        When set, each finished shard appends its outcomes once to the
        run's journal and the final file at *spool_path* is the
        journal's k-way plan-order join (module docstring, *Merge*) —
        identical runs produce byte-identical files, a crash leaves
        the previous complete output untouched, and memory stays
        O(one shard).  Without it the outcomes are merged in memory.
    checkpoint_path:
        When set, completed task outcomes (records *and* permanent
        failures, with their plan indices) are appended to this JSONL
        checkpoint as shards finish, under a :func:`plan_fingerprint`
        header; a spooled run joins its output from it.  Enables
        crash-safe resume — see the module docstring.
        Checkpointed runs always use per-task visit-id streams, even
        when serial.  Removed on success.
    resume:
        With ``resume=True`` an existing checkpoint is reconciled
        against the plan before execution: completed tasks are skipped
        and their outcomes replayed into the merge.  A fingerprint
        mismatch raises :class:`CheckpointMismatch`; a missing
        checkpoint simply starts fresh.
    executor:
        Override the transport (e.g. a preconfigured
        :class:`~repro.distributed.DistributedExecutor`, or the serial
        :class:`FaultInjectingExecutor` crash harness); its ``backend``
        then names the run's backend.  By default chosen from
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
        progress_every: int = 1000,
        spool_path=None,
        checkpoint_path: Union[str, Path, None] = None,
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
        #: visit-id streams (see :attr:`per_task_ids`).
        self._parallel = workers > 1 or self.resolved_backend != "serial"
        self.shards = shards if shards is not None else (
            workers * 4 if self._parallel else 1
        )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self.retry = retry or RetryPolicy()
        self.event_log = event_log
        self.progress = progress
        self.progress_every = max(progress_every, 1)
        self.spool_path = Path(spool_path) if spool_path is not None else None
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        if resume and self.checkpoint_path is None:
            # A silently ignored resume would re-run everything while
            # the caller believes the checkpoint was honoured.
            raise ValueError("resume=True requires a checkpoint_path")
        self.resume = resume
        #: The file each absorbed shard appends its outcome run to (the
        #: checkpoint, or a spooled run's private journal), and the byte
        #: range of every run it holds for this execution.
        self._journal: Optional[Path] = None
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
    def per_task_ids(self) -> bool:
        """Whether tasks get private visit-id streams (module docstring).

        True in parallel mode (the distributed backend included:
        worker processes cannot share the serial counter) and
        for every checkpointed run: the serial shared-counter stream
        cannot survive a resume boundary, since replayed tasks would no
        longer advance it.
        """
        return self._parallel or self.checkpoint_path is not None

    def _per_task_plan(self, plan: CrawlPlan) -> bool:
        """Whether *plan* runs in the per-task visit-id regime: this
        engine's rule, or a campaign/chaos plan that forces it."""
        return self.per_task_ids or campaign_plan(plan) or chaos_plan(plan)

    def fingerprint(self, plan: CrawlPlan) -> str:
        """The :func:`plan_fingerprint` of *plan* under this engine."""
        world = getattr(self.crawler, "world", None)
        config = getattr(world, "config", None)
        return plan_fingerprint(
            plan,
            world_seed=getattr(config, "seed", None),
            world_scale=getattr(config, "scale", None),
            world_evolution=getattr(world, "evolution_months", 0),
            per_task_ids=self._per_task_plan(plan),
        )

    def execute(self, plan: CrawlPlan) -> EngineResult:
        """Run *plan* and return the plan-ordered merged result."""
        private = self.spool_path is not None and self.checkpoint_path is None
        self._journal = (
            Path(f"{self.spool_path}.journal") if private
            else self.checkpoint_path
        )
        self._runs = []
        if private:
            # Only this run's join reads a private journal: it starts
            # empty (whatever a crashed run left is stale) and never
            # outlives the run, so it makes nothing resumable.
            self.spool_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal.write_bytes(b"")
        try:
            return self._execute(plan)
        finally:
            if private:
                self._journal.unlink(missing_ok=True)

    def _execute(self, plan: CrawlPlan) -> EngineResult:
        sharded = plan.sharded(self.shards)
        self._total = len(plan)
        self._process_stats = {}
        replay = self._reconcile_checkpoint(plan)
        self._breakers = {}
        self._adopt_breakers(replay.breakers)
        if replay.completed:
            sharded = [
                [
                    (index, task) for index, task in shard
                    if index not in replay.completed
                ]
                for shard in sharded
            ]
        self._done = replay.count
        self._emit("plan", "engine://plan", {
            "tasks": len(plan),
            "shards": self.shards,
            "workers": self.workers,
            "backend": self.resolved_backend,
            "merge": "memory" if self.spool_path is None else "spool",
        })
        if replay.count:
            self._emit("resume", "engine://resume", {
                "completed": replay.count,
                "remaining": len(plan) - replay.count,
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
        self._emit_process_throughput()
        if self.spool_path is not None:
            result = self._join(plan, replay.count, elapsed)
        else:
            outcomes.extend(replay.outcomes)
            outcomes.sort(key=lambda outcome: outcome.index)
            result = EngineResult(
                outcomes=outcomes, elapsed=elapsed, resumed=replay.count
            )
        if self.checkpoint_path is not None:
            # The run completed; its durable output (if any) is final.
            self.checkpoint_path.unlink(missing_ok=True)
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
        """One plain-data bundle per non-empty shard: task tuples, per-task
        visit-id stream seeds (none in the serial regime), and the
        breaker snapshots entering the shard."""
        config = getattr(getattr(self.crawler, "world", None), "config", None)
        per_task = config is not None and self._per_task_plan(plan)
        return [
            {
                "shard": shard_id,
                "tasks": [
                    (index, task.vp, task.domain, task.mode, task.repeats)
                    for index, task in items
                ],
                "id_bases": {
                    index: _task_id_base(config.seed, task)
                    for index, task in items
                } if per_task else {},
                "breakers": {
                    task.domain: self._breakers[task.domain].snapshot()
                    for _, task in items if task.domain in self._breakers
                },
            }
            for shard_id, items in enumerate(sharded) if items
        ]

    def _check_process_portable(self) -> None:
        """Refuse crawls a worker process cannot reconstruct."""
        from repro.measure.crawl import Crawler

        crawler = self.crawler
        for part, stock in ((crawler, Crawler), (getattr(crawler, "bannerclick", None), BannerClick),
                            (getattr(crawler, "_lang", None), LanguageDetector)):
            if type(part) is not stock:
                raise ValueError(
                    "the distributed backend rebuilds the stock Crawler and detectors in each worker "
                    f"from plain data; {type(part).__name__} cannot cross the process boundary "
                    "(use workers=1)"
                )
        config = getattr(getattr(self.crawler, "world", None), "config", None)
        if config is None or getattr(config, "seed", None) is None:
            raise ValueError(
                "the distributed backend rebuilds the world from its "
                "(seed, scale, evolution) key; this crawler's world has "
                "no build config"
            )
        from repro.webgen.config import WorldConfig

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
        self._check_process_portable()
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
        if outcomes and self._journal is not None:
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
        """Append one finished shard's outcomes to the journal as one
        sorted run and note its byte range (caller holds the lock).

        Plan order within a shard makes the run index-sorted, which the
        join requires.  When breakers are enabled the run ends with the
        shard's final breaker states; the scan applies them
        latest-wins, so a resume restores each domain's quarantine
        where it stood at the last completed flush.
        """
        with self._journal.open("ab") as handle:
            start = handle.tell()
            for outcome in outcomes:
                handle.write(self._outcome_line(outcome).encode("utf-8"))
            if breakers:
                handle.write(_breaker_line(breakers).encode("utf-8"))
            self._runs.append((start, handle.tell()))

    def _join(
        self, plan: CrawlPlan, resumed: int, elapsed: float
    ) -> EngineResult:
        """Join the journal's runs into :attr:`spool_path`; the same
        pass reports the permanent failures, replayed ones included."""
        failures: List[TaskOutcome] = []
        count = merge_record_spools(
            self._journal, self._runs, self.spool_path,
            on_failure=lambda index, payload: failures.append(
                _journal_outcome(plan, index, payload)
            ),
        )
        return EngineResult(
            outcomes=None,
            elapsed=elapsed,
            resumed=resumed,
            spool_path=self.spool_path,
            total=len(plan),
            spooled_records=count,
            spooled_failures=failures,
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

    def _reconcile_checkpoint(self, plan: CrawlPlan) -> CheckpointReplay:
        """Streaming resume: reconcile the checkpoint, (re)start the file.

        The checkpoint is rewritten as header + latest-wins outcomes in
        plan order (so it stays canonical — and compact — across
        repeated resumes) in one k-way streaming pass over its sorted
        runs.  That rewritten run is the first run of this execution's
        journal, so a spooled run's :class:`CheckpointReplay` carries
        the completed index set, never the records.
        """
        replay = CheckpointReplay()
        if self.checkpoint_path is None:
            return replay
        fingerprint = self.fingerprint(plan)
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        if self.resume and self.checkpoint_path.exists():
            replay = self._streaming_reconcile(plan, fingerprint)
        else:
            with self.checkpoint_path.open("w", encoding="utf-8") as handle:
                handle.write(self._checkpoint_header(fingerprint, len(plan)))
        return replay

    def _streaming_reconcile(
        self, plan: CrawlPlan, fingerprint: str
    ) -> CheckpointReplay:
        path = self.checkpoint_path

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

        replay = CheckpointReplay()

        def on_outcome(index: int, payload: Dict) -> None:
            replay.outcomes.append(_journal_outcome(plan, index, payload))

        scan, kept, run = _rewrite_checkpoint(
            path,
            "refusing to resume — rerun without resume to start over",
            validate=validate,
            on_header=on_header,
            # A spooled run's join reads the replayed outcomes straight
            # from the rewritten file; only the in-memory merge holds them.
            on_outcome=on_outcome if self.spool_path is None else None,
        )
        if kept:
            self._runs.append(run)
        replay.completed = scan.indices
        replay.breakers = dict(scan.breakers)
        return replay

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

    @staticmethod
    def compact_checkpoint(path: Union[str, Path]) -> CheckpointCompaction:
        """Rewrite an append-only checkpoint, keeping only the latest
        outcome per task.

        Long crash/resume cycles grow the checkpoint: a shard that
        died after checkpointing half its tasks re-runs them on
        resume, so later lines supersede earlier ones for the same
        plan index.  Compaction keeps the **last** outcome per index
        (the append order is the authority), preserves the
        :func:`plan_fingerprint` header verbatim, sorts outcomes into
        plan order, and replaces the file atomically — a compacted
        checkpoint resumes exactly like the original.  A torn trailing
        line (crashed writer) is dropped, as on any checkpoint read.

        Raises :class:`CheckpointMismatch` when *path* is not a crawl
        checkpoint (no header / mid-file corruption).

        Shares its one rewrite with the resume reconcile: a boundary
        scan plus the latest-wins k-way merge over the sorted runs
        (:func:`~repro.measure.storage.iter_journal_runs`), so compaction
        memory is one buffered line per run (plus the index set), never
        the outcome payloads.
        """
        path = Path(path)
        scan, kept, _ = _rewrite_checkpoint(path, "refusing to compact")
        return CheckpointCompaction(
            path=path,
            kept=kept,
            dropped=scan.outcome_lines - kept,
            fingerprint=str(scan.header.get("fingerprint")),
        )

    # ------------------------------------------------------------------
    def _advance(self, task: CrawlTask) -> None:
        with self._lock:
            self._done += 1
            done, total = self._done, self._total
            if done % self.progress_every == 0 or done == total:
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
