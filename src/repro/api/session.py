"""The Session facade: one object that owns world, engine, and output.

Every entry point of the project — the CLI subcommands, the
experiment drivers, the longitudinal campaigns, library embedders —
funnels through a :class:`Session`.  The session owns world
construction (lazily, so building a spec never builds a 45k-site
web), crawler wiring, engine configuration, spooling, and
checkpointing, and exposes one method per campaign kind plus the
generic :meth:`Session.run`:

>>> from repro.api import RunSpec, Session, WorldSpec
>>> spec = RunSpec(kind="crawl", world=WorldSpec(scale=0.01, seed=3))
>>> result = Session(spec).run()
>>> result.summary()["kind"]
'crawl'

Determinism contract: for a fixed world seed, running a spec through
``Session.run``, through the CLI flags, or through a ``--config``
file produces byte-identical spooled JSONL — the session is a thin,
deterministic compiler from spec to engine invocation, never a third
behaviour.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Union

from repro.api.result import RunFailure, RunResult
from repro.api.spec import (
    ChaosSpec,
    CrawlSpec,
    EngineSpec,
    LongitudinalSpec,
    MeasureSpec,
    MultiVantageSpec,
    OutputSpec,
    ResilienceSpec,
    RunSpec,
    SpecError,
    WorldSpec,
)
from repro.measure.crawl import Crawler, CrawlResult, cookiewall_domains
from repro.measure.engine import CrawlEngine, CrawlPlan, EngineResult
from repro.measure.instrumentation import EventLog
from repro.measure.longitudinal import (
    LongitudinalRun,
    LongitudinalWave,
    MultiVantageRun,
    MultiVantageWave,
    mark_wave_finished,
    reload_completed_wave,
    wave_fingerprint_file,
)
from repro.vantage import VP_ORDER, get_vantage_point
from repro.webgen.evolve import evolve_world
from repro.webgen.world import World, build_world

#: Raw engine progress hook: ``(done, total, task)`` per completed task.
ProgressHook = Callable[[int, int, object], None]


def _failure(outcome, wave: Optional[int] = None) -> RunFailure:
    return RunFailure(
        index=outcome.index,
        vp=outcome.task.vp,
        domain=outcome.task.domain,
        mode=outcome.task.mode,
        error=outcome.error,
        attempts=outcome.attempts,
        wave=wave,
    )


@dataclasses.dataclass
class _Wave:
    """One wave of a campaign, as produced by ``Session._execute_waves``:
    a live engine run, or a finished wave reloaded from its file."""

    month: int
    world: World
    summary: Optional[object]
    result: EngineResult


@dataclasses.dataclass
class _CampaignTally:
    """Accumulates the cross-wave totals a campaign RunResult reports."""

    spool_paths: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    elapsed: float = 0.0
    executed: int = 0
    resumed: int = 0
    record_count: int = 0

    def absorb(self, wave: _Wave) -> None:
        result = wave.result
        if result.spool_path is not None:
            self.spool_paths.append(result.spool_path)
        self.failures.extend(
            _failure(outcome, wave.month) for outcome in result.failures
        )
        self.elapsed += result.elapsed
        self.executed += result.executed
        self.resumed += result.resumed
        self.record_count += result.record_count

    def run_result(self, spec: RunSpec, **fields) -> RunResult:
        return RunResult(
            spec,
            spool_paths=self.spool_paths,
            failures=self.failures,
            elapsed=self.elapsed,
            executed=self.executed,
            resumed=self.resumed,
            record_count=self.record_count,
            **fields,
        )


class Session:
    """Owns world construction, engine wiring, spooling, checkpointing.

    Parameters
    ----------
    world:
        What to measure: a :class:`RunSpec` (adopts its world and
        engine sections and becomes the default for :meth:`run`), a
        :class:`WorldSpec`, an already-built
        :class:`~repro.webgen.world.World`, or ``None`` for the
        default small world.  Worlds build lazily on first use and are
        cached for the session's lifetime.
    engine:
        Execution policy (:class:`EngineSpec`); overrides the
        RunSpec's engine section when both are given.
    crawler:
        Override the crawler (tests inject fault-injecting subclasses).
    event_log:
        Receives the engine's ``plan``/``shard``/``progress``/…
        events on every run started by this session.
    progress:
        Default per-task progress hook ``(done, total, task)`` wired
        into every engine this session builds — the single event path
        all entry points share.
    spool_dir:
        Directory for *named* products (``session.execute(plan,
        name=...)`` spools to ``<spool_dir>/<name>.jsonl``) — the
        :class:`~repro.experiments.context.ExperimentContext`
        persistence mode.
    """

    def __init__(
        self,
        world: Union[RunSpec, WorldSpec, World, None] = None,
        *,
        engine: Optional[EngineSpec] = None,
        resilience: Optional[ResilienceSpec] = None,
        chaos: Optional[ChaosSpec] = None,
        crawler: Optional[Crawler] = None,
        event_log: Optional[EventLog] = None,
        progress: Optional[ProgressHook] = None,
        spool_dir: Union[str, Path, None] = None,
    ) -> None:
        self._default_spec: Optional[RunSpec] = None
        if isinstance(world, RunSpec):
            self._default_spec = world.validate()
            engine = engine if engine is not None else world.engine
            resilience = (
                resilience if resilience is not None else world.resilience
            )
            chaos = chaos if chaos is not None else world.chaos
            world = world.world
        self._world: Optional[World] = None
        if isinstance(world, World):
            self._world = world
            self.world_spec = WorldSpec(
                scale=world.config.scale, seed=world.config.seed
            )
        elif isinstance(world, WorldSpec):
            self.world_spec = world
        elif world is None:
            self.world_spec = WorldSpec()
        else:
            raise SpecError(
                "world must be a RunSpec, WorldSpec, World, or None, "
                f"got {type(world).__name__}"
            )
        self.world_spec.validate()
        self.engine_spec = engine if engine is not None else EngineSpec()
        self.engine_spec.validate()
        self.resilience_spec = (
            resilience if resilience is not None else ResilienceSpec()
        )
        self.resilience_spec.validate()
        self.chaos_spec = chaos if chaos is not None else ChaosSpec()
        self.chaos_spec.validate()
        self.event_log = event_log
        self.progress = progress
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._crawler = crawler

    # ------------------------------------------------------------------
    # Owned resources
    # ------------------------------------------------------------------
    @property
    def world(self) -> World:
        """The session's world, built on first access and cached."""
        if self._world is None:
            self._world = build_world(
                scale=self.world_spec.scale, seed=self.world_spec.seed
            )
        return self._world

    @property
    def crawler(self) -> Crawler:
        if self._crawler is None:
            self._crawler = Crawler(self.world)
        return self._crawler

    def _with_engine(
        self,
        engine: EngineSpec,
        resilience: Optional[ResilienceSpec] = None,
        chaos: Optional[ChaosSpec] = None,
    ) -> "Session":
        """A sibling session sharing the world but re-targeted engine."""
        return Session(
            self._world if self._world is not None else self.world_spec,
            engine=engine,
            resilience=(
                resilience if resilience is not None else self.resilience_spec
            ),
            chaos=chaos if chaos is not None else self.chaos_spec,
            crawler=self._crawler,
            event_log=self.event_log,
            progress=self.progress,
            spool_dir=self.spool_dir,
        )

    # ------------------------------------------------------------------
    # Engine wiring (the one place spool/checkpoint paths are derived)
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: CrawlPlan,
        *,
        name: Optional[str] = None,
        output: Optional[OutputSpec] = None,
        spool_path: Union[str, Path, None] = None,
        crawler: Optional[Crawler] = None,
        progress: Optional[ProgressHook] = None,
    ) -> EngineResult:
        """Run a compiled plan through an engine with this session's
        configuration.

        The spool path comes from, in order: an explicit *spool_path*,
        ``output.path``, or ``<spool_dir>/<name>.jsonl``.  A spooled
        run checkpoints to ``<spool>.checkpoint`` and honours the
        engine spec's ``resume``; an in-memory run writes nothing,
        which keeps the serial visit-id regime — and therefore
        byte-identical records — of the pre-session harness.
        """
        self._add_chaos(plan)
        if spool_path is None and output is not None and output.path:
            spool_path = output.path
        if spool_path is None and self.spool_dir is not None and name:
            spool_path = self.spool_dir / f"{name}.jsonl"
        if self.engine_spec.resume and spool_path is None:
            # Silently re-running everything while the caller believes
            # the checkpoint was honoured is the one behaviour resume
            # must never have.
            raise SpecError(
                "--resume requires an output path (--out / output.path: "
                "the checkpoint lives next to the spool)"
            )
        if self.engine_spec.merge == "spool" and spool_path is None:
            # The spec asserts this run streams; silently merging in
            # memory instead would be the resume-ignored bug all over
            # again.
            raise SpecError(
                'engine.merge = "spool" requires an output path (--out / '
                "output.path: the run's journal is joined into it)"
            )
        engine = CrawlEngine(
            crawler if crawler is not None else self.crawler,
            workers=self.engine_spec.workers,
            shards=self.engine_spec.shards,
            backend=self.engine_spec.executor,
            # The resilience section is a RetryPolicy: it is the policy.
            retry=self.resilience_spec,
            event_log=self.event_log,
            progress=progress if progress is not None else self.progress,
            spool_path=spool_path,
            resume=self.engine_spec.resume,
        )
        return engine.execute(plan)

    def _add_chaos(self, plan: CrawlPlan) -> CrawlPlan:
        """Put the chaos plane in *plan*'s context: the checkpoint
        fingerprint covers it (a chaos run never resumes a fault-free
        checkpoint, or vice versa) and distributed workers inherit it
        verbatim."""
        if self.chaos_spec.seed is not None:
            plan.context.setdefault("chaos", self.chaos_spec.to_context())
        return plan

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def _execute_waves(
        self,
        kind: str,
        months,
        build_plan: Callable[[Crawler, int], CrawlPlan],
        output: OutputSpec,
        progress: Optional[ProgressHook],
    ):
        """The shared wave loop behind the campaign kinds.

        Yields one :class:`_Wave` per month: the world is evolved from
        the baseline snapshot, *build_plan* compiles the wave's plan,
        the spool path is derived under ``out_dir``, a completed wave
        whose fingerprint file matches its plan is reloaded under
        resume, and everything else runs through :meth:`execute` — so
        every campaign shards, retries, spools, and resumes
        identically, and there is exactly one place that derives wave
        paths.
        """
        out_dir = Path(output.out_dir) if output.out_dir else None
        if self.engine_spec.resume and out_dir is None:
            raise SpecError(
                f"{kind} resume requires out_dir (the wave "
                "checkpoints live next to the spools)"
            )
        base_world = self.world
        for month in months:
            if month == 0:
                wave_world, summary = base_world, None
            else:
                wave_world, summary = evolve_world(base_world, months=month)
            crawler = Crawler(wave_world)
            plan = self._add_chaos(build_plan(crawler, month))
            spool_path = fingerprint = None
            if out_dir is not None:
                spool_path = out_dir / f"wave-{month:02d}.jsonl"
                fingerprint = CrawlEngine(crawler).fingerprint(plan)
            if self.engine_spec.resume:
                finished = reload_completed_wave(spool_path, fingerprint, plan)
                if finished is not None:
                    yield _Wave(month, wave_world, summary, finished)
                    continue
            if spool_path is not None:
                # Until this run finishes, the wave file is not its output.
                wave_fingerprint_file(spool_path).unlink(missing_ok=True)
            result = self.execute(
                plan, spool_path=spool_path, crawler=crawler, progress=progress,
            )
            if spool_path is not None:
                mark_wave_finished(spool_path, fingerprint, result.failures)
            yield _Wave(month, wave_world, summary, result)

    def crawl(
        self,
        spec: Optional[CrawlSpec] = None,
        *,
        output: Optional[OutputSpec] = None,
        progress: Optional[ProgressHook] = None,
    ) -> RunResult:
        """Run a multi-vantage-point detection crawl."""
        spec = spec if spec is not None else CrawlSpec()
        spec.validate()
        output = output if output is not None else OutputSpec()
        plan = self.crawler.plan_detection_crawl(
            list(spec.vps) if spec.vps is not None else None,
            list(spec.domains) if spec.domains is not None else None,
        )
        result = self.execute(plan, output=output, progress=progress)
        return self._result("crawl", {"crawl": spec}, output, result)

    def measure(
        self,
        spec: Optional[MeasureSpec] = None,
        *,
        output: Optional[OutputSpec] = None,
        progress: Optional[ProgressHook] = None,
    ) -> RunResult:
        """Run cookie or uBlock measurements (``spec.mode``).

        With ``spec.domains=None`` the targets are the cookiewall
        domains a fresh in-memory detection crawl from ``spec.vp``
        finds — the same pre-pass the CLI has always run.
        """
        spec = spec if spec is not None else MeasureSpec()
        spec.validate()
        output = output if output is not None else OutputSpec()
        domains = list(spec.domains) if spec.domains is not None else None
        if domains is None:
            # The in-memory pre-pass never spools; only the
            # measurement plan itself resumes/streams.
            finder_engine = self.engine_spec.in_memory()
            finder = (
                self._with_engine(finder_engine)
                if finder_engine != self.engine_spec else self
            )
            detection = finder.crawl(CrawlSpec(vps=(spec.vp,)))
            domains = cookiewall_domains(detection.iter_records())
        if spec.mode == "ublock":
            plan = self.crawler.plan_ublock(
                spec.vp, domains, iterations=spec.repeats
            )
        else:
            plan = self.crawler.plan_cookie_measurements(
                spec.vp, domains, mode=spec.mode, repeats=spec.repeats
            )
        result = self.execute(plan, output=output, progress=progress)
        return self._result("measure", {"measure": spec}, output, result)

    def longitudinal(
        self,
        spec: Optional[LongitudinalSpec] = None,
        *,
        output: Optional[OutputSpec] = None,
        progress: Optional[ProgressHook] = None,
    ) -> RunResult:
        """Crawl the world and its evolved snapshots, wave by wave.

        Every wave detection-crawls the same target list (defaulting
        to the baseline world's reachable union) against an
        :func:`~repro.webgen.evolve.evolve_world` snapshot, through an
        engine configured by this session — so the campaign shards,
        parallelises, retries, spools, and resumes like any crawl.
        The returned result's :attr:`~RunResult.campaign` is the live
        :class:`~repro.measure.longitudinal.LongitudinalRun`.

        Note on memory: the wave *files* are produced by the streaming
        join (byte-identical, resumable), but the drift analysis
        (``compare_rounds``/``smp_growth``) consumes every wave's
        records, so this method materialises them — longitudinal
        memory is O(campaign records).  Streaming the analysis layer
        is a ROADMAP direction, not a promise this method makes.
        """
        spec = spec if spec is not None else LongitudinalSpec()
        spec.validate()
        output = output if output is not None else OutputSpec()
        targets = (
            list(spec.domains) if spec.domains is not None
            else list(self.world.crawl_targets)
        )
        run = LongitudinalRun(vp=spec.vp)
        tally = _CampaignTally()
        waves = self._execute_waves(
            "longitudinal",
            spec.months,
            lambda crawler, month: crawler.plan_detection_crawl(
                [spec.vp], targets
            ),
            output,
            progress,
        )
        for wave in waves:
            run.waves.append(LongitudinalWave(
                months=wave.month,
                world=wave.world,
                crawl=CrawlResult(records=wave.result.records),
                summary=wave.summary,
                resumed=wave.result.resumed,
            ))
            tally.absorb(wave)
        return tally.run_result(
            self._spec("longitudinal", {"longitudinal": spec}, output),
            records=[r for wave in run.waves for r in wave.crawl.records],
            campaign=run,
            extra={"waves": [
                {
                    "months": wave.months,
                    "visits": len(wave.crawl),
                    "cookiewall_domains": len(
                        wave.crawl.cookiewall_domains(spec.vp)
                    ),
                    "resumed": wave.resumed,
                }
                for wave in run.waves
            ]},
        )

    def multivantage(
        self,
        spec: Optional[MultiVantageSpec] = None,
        *,
        output: Optional[OutputSpec] = None,
        progress: Optional[ProgressHook] = None,
    ) -> RunResult:
        """One campaign, N vantage points: the VP × domain × wave
        cross-product through the engine, folded into a streaming
        geo-discrepancy report.

        Every wave compiles the full ``len(vps) × len(targets)``
        detection plan (vp-major, the ordinary multi-VP plan order),
        so sharding, parallelism, retry, spooling, and
        checkpoint/resume work exactly like single-VP runs — and the
        scenario (regulation regime, relocations, geo-blocking) rides
        in ``CrawlPlan.context``, which the checkpoint fingerprint
        covers and the worker processes receive verbatim.  Records
        stream straight into a
        :class:`~repro.analysis.StreamingDiscrepancyReport` (returned
        as :attr:`RunResult.campaign`'s ``report``); with an
        ``out_dir`` the campaign never materialises a wave's record
        list in memory.
        """
        # Imported here, not at module top: the analysis layer is a
        # consumer of the measurement stack, not a dependency of it.
        from repro.analysis.discrepancy import StreamingDiscrepancyReport

        spec = spec if spec is not None else MultiVantageSpec()
        spec.validate()
        output = output if output is not None else OutputSpec()
        scenario = spec.scenario()
        vps = [
            get_vantage_point(code).code
            for code in (spec.vps if spec.vps is not None else VP_ORDER)
        ]
        targets = (
            list(spec.domains) if spec.domains is not None
            else list(self.world.crawl_targets)
        )
        report = StreamingDiscrepancyReport()
        run = MultiVantageRun(vps=tuple(vps), regime=spec.regime, report=report)
        materialise = not output.out_dir
        all_records = [] if materialise else None
        tally = _CampaignTally()

        def build_plan(crawler: Crawler, month: int) -> CrawlPlan:
            plan = crawler.plan_detection_crawl(vps, targets)
            plan.context["multivantage"] = {
                "wave": month,
                "scenario": scenario.to_context(),
            }
            return plan

        waves = self._execute_waves(
            "multivantage", spec.months, build_plan, output, progress
        )
        for wave in waves:
            visits = 0
            for record in wave.result.iter_records():
                report.add(record, wave=wave.month)
                visits += 1
                if materialise:
                    all_records.append(record)
            run.waves.append(MultiVantageWave(
                months=wave.month, visits=visits, resumed=wave.result.resumed,
            ))
            tally.absorb(wave)
        return tally.run_result(
            self._spec("multivantage", {"multivantage": spec}, output),
            records=all_records,
            campaign=run,
            extra={
                "waves": [
                    {
                        "months": wave.months,
                        "visits": wave.visits,
                        "resumed": wave.resumed,
                        "walls": report.wall_counts(wave.months),
                    }
                    for wave in run.waves
                ],
                "discrepancy": report.summary(),
            },
        )

    def run(self, spec: Optional[RunSpec] = None) -> RunResult:
        """Execute a full :class:`RunSpec` (kind-dispatched).

        With no argument the session's construction spec runs under
        the session's own engine configuration (the
        ``Session(spec).run()`` idiom — an explicit ``engine=``
        constructor override stays in force, as promised there).  For
        a spec passed *in*, that spec's engine section is
        authoritative: different engine settings run through a sibling
        session sharing the same (already-built) world.  A spec for a
        *different* world is refused — worlds are expensive; build a
        new session for one.
        """
        external = spec is not None
        spec = spec if spec is not None else self._default_spec
        if spec is None:
            raise SpecError(
                "nothing to run: pass a RunSpec, or build the session "
                "from one (Session(spec).run())"
            )
        spec.validate()
        if spec.world != self.world_spec:
            raise SpecError(
                f"spec.world {spec.world} differs from this session's "
                f"{self.world_spec}; create a new Session for it"
            )
        if external and (
            spec.engine != self.engine_spec
            or spec.resilience != self.resilience_spec
            or spec.chaos != self.chaos_spec
        ):
            return self._with_engine(
                spec.engine, spec.resilience, spec.chaos
            ).run(spec)
        if spec.kind == "crawl":
            return self.crawl(spec.crawl, output=spec.output)
        if spec.kind == "measure":
            return self.measure(spec.measure, output=spec.output)
        if spec.kind == "multivantage":
            return self.multivantage(spec.multivantage, output=spec.output)
        return self.longitudinal(spec.longitudinal, output=spec.output)

    # ------------------------------------------------------------------
    def _spec(
        self, kind: str, sections: Dict[str, object], output: OutputSpec
    ) -> RunSpec:
        return RunSpec(
            kind=kind,
            world=self.world_spec,
            engine=self.engine_spec,
            resilience=self.resilience_spec,
            chaos=self.chaos_spec,
            output=output,
            **sections,
        )

    def _result(
        self,
        kind: str,
        sections: Dict[str, object],
        output: OutputSpec,
        result: EngineResult,
    ) -> RunResult:
        # A spooled run holds no records, so the RunResult stays lazy
        # over the final JSONL: O(shard buffer) memory end to end.
        return RunResult(
            self._spec(kind, sections, output),
            records=result.held,
            spool_paths=(output.path,) if output.path else (),
            failures=[_failure(o) for o in result.failures],
            elapsed=result.elapsed,
            executed=result.executed,
            resumed=result.resumed,
            record_count=result.record_count,
        )


def run(spec: RunSpec) -> RunResult:
    """One-shot convenience: ``Session(spec).run()``."""
    return Session(spec).run()


def iter_run_records(manifest: Union[str, Path]) -> Iterable:
    """Stream the records of a saved :class:`RunResult` manifest."""
    return RunResult.load(manifest).iter_records()
