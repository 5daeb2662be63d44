"""Longitudinal measurement: repeated crawl rounds over an evolving web.

The paper notes ecosystem drift between its May and September 2023
snapshots (§4.4 footnote 5: contentpass 219→270, freechoice 167→184
partners) and nearly doubled German top-1k prevalence versus 2022
(§4.1).  This module measures exactly that kind of movement:
:meth:`repro.api.Session.longitudinal` re-crawls the same target list
against successive :func:`~repro.webgen.evolve.evolve_world` snapshots
("waves") into a :class:`LongitudinalRun`, and :func:`compare_rounds` /
:func:`smp_growth` diff the rounds.

Every wave is compiled into a
:class:`~repro.measure.engine.CrawlPlan` and executed through the
sharded :class:`~repro.measure.engine.CrawlEngine`, so the
longitudinal workload inherits sharding, parallelism, per-task retry,
JSONL spooling, and checkpoint/resume — a months-long re-measurement
campaign can die mid-wave and pick up where it stopped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro import schema
from repro.durable import atomic_write_text
from repro.measure.crawl import CrawlResult
from repro.measure.engine import CheckpointMismatch, EngineResult, TaskOutcome
from repro.measure.storage import iter_jsonl, validate_record_payload
from repro.webgen.evolve import EvolutionSummary
from repro.webgen.world import World


@dataclass
class RoundComparison:
    """Cookiewall movement between two crawl rounds."""

    walls_round1: int = 0
    walls_round2: int = 0
    appeared: List[str] = field(default_factory=list)
    disappeared: List[str] = field(default_factory=list)
    stable: List[str] = field(default_factory=list)

    @property
    def growth(self) -> float:
        if self.walls_round1 == 0:
            return 0.0
        return (self.walls_round2 - self.walls_round1) / self.walls_round1

    def render(self) -> str:
        return "\n".join(
            [
                "Longitudinal cookiewall comparison",
                f"  round 1 walls: {self.walls_round1}",
                f"  round 2 walls: {self.walls_round2} "
                f"({self.growth * +100:+.1f}%)",
                f"  appeared:      {len(self.appeared)}",
                f"  disappeared:   {len(self.disappeared)}",
                f"  stable:        {len(self.stable)}",
            ]
        )


def compare_rounds(
    round1: CrawlResult, round2: CrawlResult, *, vp: str = "DE"
) -> RoundComparison:
    """Diff the cookiewall populations seen from *vp* in two rounds."""
    first: Set[str] = set(round1.cookiewall_domains(vp))
    second: Set[str] = set(round2.cookiewall_domains(vp))
    comparison = RoundComparison(
        walls_round1=len(first),
        walls_round2=len(second),
        appeared=sorted(second - first),
        disappeared=sorted(first - second),
        stable=sorted(first & second),
    )
    return comparison


@dataclass
class SMPGrowth:
    """Partner-roster growth per platform between two world snapshots."""

    rosters: Dict[str, tuple] = field(default_factory=dict)  # name -> (before, after)

    def render(self) -> str:
        lines = ["SMP roster growth (paper §4.4 footnote 5)"]
        for name, (before, after) in sorted(self.rosters.items()):
            growth = (after - before) / before * 100 if before else 0.0
            lines.append(
                f"  {name}: {before} -> {after} partners ({growth:+.1f}%)"
            )
        return "\n".join(lines)


def smp_growth(world_before, world_after) -> SMPGrowth:
    """Roster sizes before/after (worlds from :func:`evolve_world`)."""
    growth = SMPGrowth()
    for name, platform in world_before.platforms.items():
        after = world_after.platforms.get(name)
        growth.rosters[name] = (
            len(platform.partner_domains),
            len(after.partner_domains) if after is not None else 0,
        )
    return growth


# ---------------------------------------------------------------------------
# The longitudinal workload, routed through the crawl engine
# ---------------------------------------------------------------------------

@dataclass
class LongitudinalWave:
    """One measurement round: a world snapshot plus its crawl."""

    months: int
    world: World
    crawl: CrawlResult
    #: Drift applied to reach this snapshot (``None`` for the baseline).
    summary: Optional[EvolutionSummary] = None
    #: Outcomes replayed from a checkpoint rather than re-crawled.
    resumed: int = 0


@dataclass
class LongitudinalRun:
    """All waves of one longitudinal campaign, oldest first."""

    vp: str
    waves: List[LongitudinalWave] = field(default_factory=list)

    def comparisons(self) -> List[RoundComparison]:
        """Wall movement between each pair of consecutive waves."""
        return [
            compare_rounds(earlier.crawl, later.crawl, vp=self.vp)
            for earlier, later in zip(self.waves, self.waves[1:])
        ]

    def roster_growth(self) -> SMPGrowth:
        """SMP roster movement from the first to the last snapshot."""
        return smp_growth(self.waves[0].world, self.waves[-1].world)

    def render(self) -> str:
        lines = [f"Longitudinal campaign ({len(self.waves)} waves, vp={self.vp})"]
        for wave in self.waves:
            walls = len(wave.crawl.cookiewall_domains(self.vp))
            lines.append(
                f"  month {wave.months}: {len(wave.crawl)} visits, "
                f"{walls} cookiewall domains"
            )
        for (earlier, later), comparison in zip(
            zip(self.waves, self.waves[1:]), self.comparisons()
        ):
            lines.append("")
            lines.append(f"month {earlier.months} -> month {later.months}:")
            lines.append(comparison.render())
        lines.append("")
        lines.append(self.roster_growth().render())
        return "\n".join(lines)


@dataclass
class MultiVantageWave:
    """One wave of a multi-vantage campaign (all VPs, one snapshot)."""

    months: int
    visits: int = 0
    #: Outcomes replayed (checkpoint or completed spool) not re-crawled.
    resumed: int = 0


@dataclass
class MultiVantageRun:
    """All waves of one multi-vantage campaign plus its report.

    ``report`` is the streaming
    :class:`~repro.analysis.StreamingDiscrepancyReport` the session fed
    while the waves executed (duck-typed here so the measurement layer
    does not import the analysis layer).
    """

    vps: tuple
    regime: str
    report: object
    waves: List[MultiVantageWave] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"Multi-vantage campaign ({len(self.waves)} waves, "
            f"{len(self.vps)} VPs, regime={self.regime})"
        ]
        for wave in self.waves:
            note = f" ({wave.resumed} replayed)" if wave.resumed else ""
            lines.append(f"  month {wave.months}: {wave.visits} visits{note}")
        lines.append("")
        lines.append(self.report.render())
        return "\n".join(lines)


def wave_fingerprint_file(spool_path: Path) -> Path:
    """Where a finished wave's plan fingerprint is kept: beside its
    spool, as ``wave-MM.jsonl.fingerprint``."""
    return Path(f"{spool_path}.fingerprint")


def mark_wave_finished(
    spool_path: Path, fingerprint: str, failures: List[TaskOutcome]
) -> None:
    """Write the fingerprint file that marks a wave finished: the
    fingerprint line, then one JSON line per permanent failure (plan
    index, error, attempts), which :func:`reload_completed_wave`
    rebuilds.  The wave file itself holds records only."""
    lines = [fingerprint] + [
        json.dumps(
            {"index": o.index, "error": o.error, "attempts": o.attempts},
            sort_keys=True,
        )
        for o in failures
    ]
    atomic_write_text(
        wave_fingerprint_file(spool_path), "".join(f"{line}\n" for line in lines)
    )


def reload_completed_wave(spool_path, fingerprint, plan) -> Optional[EngineResult]:
    """A wave that already finished, as an
    :class:`~repro.measure.engine.EngineResult` over its file, or ``None``.

    A wave is complete when its fingerprint file holds *fingerprint*
    (the wave's :func:`~repro.measure.engine.plan_fingerprint`, written
    when the wave finished) and its spool holds one record per plan
    task.  A missing fingerprint file, spool, or short or over-long
    file re-runs the wave through the engine; a different fingerprint
    (another regime, plan or world) raises
    :class:`~repro.measure.engine.CheckpointMismatch`.  The records are
    counted and structurally checked, never held: the result streams
    them from the file like any spooled run's.  The wave's failures
    are rebuilt from the lines after the fingerprint
    (:func:`mark_wave_finished`); a one-line file, as written before
    failures were kept, reloads with none.
    """
    marker = wave_fingerprint_file(spool_path)
    try:
        found, *failure_lines = marker.read_text(encoding="utf-8").splitlines() or [""]
    except FileNotFoundError:
        return None
    found = found.strip()
    if found != fingerprint:
        raise CheckpointMismatch(
            f"{spool_path}: completed with fingerprint {found}, which does "
            f"not match this plan/world/config ({fingerprint}); refusing "
            "to resume — rerun without resume to start over"
        )
    if not spool_path.exists():
        return None
    count = 0
    for line_number, payload in iter_jsonl(spool_path):
        try:
            validate_record_payload(payload)
        except ValueError as error:
            raise ValueError(f"{spool_path}:{line_number}: {error}") from None
        count += 1
    if count != len(plan.tasks):
        return None
    check = schema.compile({
        "index": schema.Range(int, min=0, max=count - 1),
        "error": str,
        "attempts": schema.Range(int, min=0),
    })
    failures = []
    for line_number, line in enumerate(failure_lines, start=2):
        try:
            entry = check(json.loads(line))
        except ValueError as error:
            raise ValueError(f"{marker}:{line_number}: {error}") from None
        index = entry["index"]
        failures.append(TaskOutcome(
            index, plan.tasks[index], error=entry["error"],
            attempts=entry["attempts"],
        ))
    return EngineResult(
        total=count, record_count=count, failures=failures, resumed=count,
        spool_path=spool_path,
    )
