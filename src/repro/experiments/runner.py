"""Experiment registry: run any table/figure of the paper by id.

Every driver reads its artefact from the shared
:class:`~repro.experiments.context.ExperimentContext`, which computes
it in one streaming pass over the record stream.  A driver only calls
the context's artefact methods, so any object with those methods can
stand in for it (the differential tests pass the list-based
``compute_*`` oracles this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.experiments.context import ExperimentContext
from repro.measure.accuracy import evaluate_records, random_audit
from repro.webgen.world import World, build_world


@dataclass
class ExperimentResult:
    """One regenerated paper artefact."""

    experiment_id: str
    title: str
    rendered: str
    data: Dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.rendered


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _table1(ctx: ExperimentContext) -> ExperimentResult:
    table = ctx.table1()
    return ExperimentResult(
        "table1",
        "Table 1: cookiewalls per vantage point",
        table.render(),
        {
            "rows": {
                row.vp: {
                    "cookiewalls": row.cookiewalls,
                    "toplist": row.toplist,
                    "cctld": row.cctld,
                    "language": row.language,
                }
                for row in table.rows
            },
            "unique_walls": table.total_unique_walls,
        },
    )


def _fig1(ctx: ExperimentContext) -> ExperimentResult:
    figure = ctx.figure1()
    return ExperimentResult(
        "fig1",
        "Figure 1: categories of cookiewall websites",
        figure.render(),
        {"shares": dict(figure.shares), "total": figure.total_sites},
    )


def _fig2(ctx: ExperimentContext) -> ExperimentResult:
    figure = ctx.figure2()
    return ExperimentResult(
        "fig2",
        "Figure 2: monthly subscription price distribution",
        figure.render(),
        {
            "heatmap": figure.heatmap,
            "le3": figure.fraction_at_most(3.0),
            "le4": figure.fraction_at_most(4.0),
            "modal_bucket": figure.modal_bucket(),
            "unparsed": list(figure.unparsed_domains),
        },
    )


def _fig3(ctx: ExperimentContext) -> ExperimentResult:
    figure = ctx.figure3()
    return ExperimentResult(
        "fig3",
        "Figure 3: website category vs subscription price",
        figure.render(),
        {
            "by_category": {
                category: prices
                for category, prices in figure.by_category.items()
            }
        },
    )


def _fig4(ctx: ExperimentContext) -> ExperimentResult:
    comparison = ctx.comparison_fig4()
    data = {
        "regular_medians": comparison.medians("a"),
        "wall_medians": comparison.medians("b"),
        "third_party_ratio": comparison.ratio("third_party"),
        "tracking_ratio": comparison.ratio("tracking"),
    }
    return ExperimentResult(
        "fig4", "Figure 4: cookies — regular vs cookiewall sites",
        comparison.render(), data,
    )


def _fig5(ctx: ExperimentContext) -> ExperimentResult:
    comparison = ctx.comparison_fig5()
    data = {
        "accept_medians": comparison.medians("a"),
        "subscription_medians": comparison.medians("b"),
        "max_tracking_accept": comparison.max_tracking("a"),
    }
    return ExperimentResult(
        "fig5", "Figure 5: contentpass — accept vs subscription",
        comparison.render(), data,
    )


def _fig6(ctx: ExperimentContext) -> ExperimentResult:
    figure = ctx.figure6()
    return ExperimentResult(
        "fig6", "Figure 6: tracking cookies vs subscription price",
        figure.render(),
        {"points": figure.points, "pearson_r": figure.correlation},
    )


def _accuracy(ctx: ExperimentContext) -> ExperimentResult:
    full = evaluate_records(ctx.world, ctx.iter_detection_records("DE"))
    audit = random_audit(
        ctx.world, ctx.crawler, vp="DE",
        sample_size=min(1000, len(ctx.world.crawl_targets)),
    )
    rendered = "\n".join(
        [
            "Detection accuracy (§3)",
            f"  full run:   {full.detected} detected, "
            f"{full.true_positives} true "
            f"=> precision {full.precision * 100:.1f}%, "
            f"recall {full.recall * 100:.1f}%",
            f"  1000-site random audit: {audit.detected} detected, "
            f"precision {audit.precision * 100:.1f}%, "
            f"recall {audit.recall * 100:.1f}%",
        ]
    )
    return ExperimentResult(
        "accuracy", "§3 detection accuracy", rendered,
        {
            "full_detected": full.detected,
            "full_true_positives": full.true_positives,
            "full_precision": full.precision,
            "full_recall": full.recall,
            "audit_precision": audit.precision,
            "audit_recall": audit.recall,
        },
    )


def _ublock(ctx: ExperimentContext) -> ExperimentResult:
    tested = 0
    suppressed = 0
    broken = []
    for record in ctx.iter_ublock_records():
        tested += 1
        if record.suppressed:
            suppressed += 1
            if record.broken:
                broken.append((record.domain, record.broken_reason))
    share = suppressed / tested if tested else 0.0
    rendered = "\n".join(
        [
            "Bypassing cookiewalls with uBlock Origin (§4.5)",
            f"  walls tested:     {tested}",
            f"  suppressed:       {suppressed} ({share * 100:.0f}%)",
            f"  broken pages:     {len(broken)} "
            f"({', '.join(reason for _, reason in broken)})",
        ]
    )
    return ExperimentResult(
        "ublock", "§4.5 uBlock bypass", rendered,
        {
            "tested": tested,
            "suppressed": suppressed,
            "suppressed_share": share,
            "broken": broken,
        },
    )


def _landscape(ctx: ExperimentContext) -> ExperimentResult:
    report = ctx.landscape()
    return ExperimentResult(
        "landscape", "§4.1 cookiewall landscape", report.render(),
        {
            "unique_walls": report.unique_walls,
            "overall_rate": report.overall_rate,
            "germany_top10k_rate": report.germany_top10k_rate,
            "germany_top1k_rate": report.germany_top1k_rate,
            "countrywise_top1k_rate": report.countrywise_top1k_rate,
            "placement_counts": dict(report.placement_counts),
        },
    )


def _smp(ctx: ExperimentContext) -> ExperimentResult:
    world = ctx.world
    lines = ["Subscription Management Platforms (§4.4)"]
    data = {}
    detected = set(ctx.verified_wall_domains())
    for name, platform in sorted(world.platforms.items()):
        partners = platform.partner_domains
        on_list = [d for d in partners if world.sites[d].listings]
        lines.append(
            f"  {name}: {len(partners)} partner websites, "
            f"{len(on_list)} on the merged toplists, "
            f"monthly fee {platform.monthly_price_cents / 100:.2f} EUR"
        )
        data[name] = {
            "partners": len(partners),
            "on_toplist": len(on_list),
            "detected_as_walls": len(detected & set(on_list)),
        }
    return ExperimentResult("smp", "§4.4 SMP rosters", "\n".join(lines), data)


EXPERIMENTS: Dict[str, Callable[[ExperimentContext], ExperimentResult]] = {
    "table1": _table1,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "accuracy": _accuracy,
    "ublock": _ublock,
    "landscape": _landscape,
    "smp": _smp,
}


def run_experiment(
    experiment_id: str,
    *,
    world: Optional[World] = None,
    context: Optional[ExperimentContext] = None,
    scale: float = 1.0,
    seed: int = 2023,
) -> ExperimentResult:
    """Run one experiment by id (building a world if none is given)."""
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    if context is None:
        if world is None:
            world = build_world(scale=scale, seed=seed)
        context = ExperimentContext(world)
    return EXPERIMENTS[experiment_id](context)
