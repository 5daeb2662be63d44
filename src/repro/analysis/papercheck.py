"""Paper-vs-measured comparison (the EXPERIMENTS.md generator).

Holds the paper's reported values for every artefact and compares a
set of :class:`~repro.experiments.runner.ExperimentResult` objects
against them, flagging where the reproduced *shape* holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentResult

#: The numbers the paper reports, with the tolerance that still counts
#: as "same shape".  ``kind`` controls the comparison:
#:   ratio  — measured within [paper/factor, paper*factor]
#:   exact  — equal
#:   band   — absolute difference <= tolerance
@dataclass(frozen=True)
class PaperValue:
    experiment: str
    metric: str
    paper: float
    kind: str = "ratio"
    tolerance: float = 2.0
    extract: Optional[Callable[[Dict], float]] = None
    note: str = ""

    def measured_from(self, data: Dict) -> Optional[float]:
        if self.extract is not None:
            try:
                return float(self.extract(data))
            except (KeyError, IndexError, TypeError, ZeroDivisionError):
                return None
        value = data.get(self.metric)
        return float(value) if value is not None else None

    def holds(self, measured: Optional[float]) -> bool:
        if measured is None:
            return False
        if self.kind == "exact":
            return measured == self.paper
        if self.kind == "band":
            return abs(measured - self.paper) <= self.tolerance
        if self.paper == 0:
            return measured == 0
        low = self.paper / self.tolerance
        high = self.paper * self.tolerance
        return low <= measured <= high


PAPER_VALUES: List[PaperValue] = [
    # §4.1 landscape
    PaperValue("landscape", "unique cookiewalls", 280, "ratio", 1.15,
               lambda d: d["unique_walls"], "found on 45k targets"),
    PaperValue("landscape", "overall rate", 0.006, "ratio", 2.0,
               lambda d: d["overall_rate"], "0.6% of targets"),
    PaperValue("landscape", "DE top-10k rate", 0.029, "ratio", 1.5,
               lambda d: d["germany_top10k_rate"], "2.9%"),
    PaperValue("landscape", "DE top-1k rate", 0.085, "ratio", 1.5,
               lambda d: d["germany_top1k_rate"], "8.5%"),
    PaperValue("landscape", "country-wise top-1k rate", 0.017, "ratio", 2.0,
               lambda d: d["countrywise_top1k_rate"], "1.7%"),
    # Table 1
    PaperValue("table1", "DE detections", 280, "ratio", 1.15,
               lambda d: d["rows"]["DE"]["cookiewalls"]),
    PaperValue("table1", "SE detections", 276, "ratio", 1.15,
               lambda d: d["rows"]["SE"]["cookiewalls"]),
    PaperValue("table1", "USE detections", 197, "ratio", 1.25,
               lambda d: d["rows"]["USE"]["cookiewalls"]),
    PaperValue("table1", "DE toplist column", 259, "ratio", 1.2,
               lambda d: d["rows"]["DE"]["toplist"]),
    PaperValue("table1", "DE ccTLD column", 233, "ratio", 1.2,
               lambda d: d["rows"]["DE"]["cctld"]),
    PaperValue("table1", "DE language column", 252, "ratio", 1.2,
               lambda d: d["rows"]["DE"]["language"]),
    PaperValue("table1", "US toplist column", 0, "exact", 0,
               lambda d: d["rows"]["USE"]["toplist"]),
    # §3 accuracy
    PaperValue("accuracy", "precision", 0.982, "band", 0.05,
               lambda d: d["full_precision"], "285 detected, 280 true"),
    PaperValue("accuracy", "recall", 1.0, "exact", 0,
               lambda d: d["full_recall"], "no false negatives found"),
    # Figure 2
    PaperValue("fig2", "modal price bucket (EUR)", 3, "exact", 0,
               lambda d: d["modal_bucket"], "most walls charge ~3 EUR"),
    PaperValue("fig2", "share <= 4 EUR", 0.90, "band", 0.10,
               lambda d: d["le4"]),
    PaperValue("fig2", "share <= 3 EUR", 0.80, "band", 0.12,
               lambda d: d["le3"]),
    # Figure 4
    PaperValue("fig4", "regular median tracking", 1.0, "band", 1.5,
               lambda d: d["regular_medians"][2]),
    PaperValue("fig4", "wall median tracking", 43.0, "ratio", 1.6,
               lambda d: d["wall_medians"][2]),
    PaperValue("fig4", "third-party ratio", 6.4, "ratio", 2.0,
               lambda d: d["third_party_ratio"], "walls send 6.4x more TP"),
    PaperValue("fig4", "tracking ratio", 42.0, "ratio", 2.5,
               lambda d: d["tracking_ratio"], "walls send 42x more tracking"),
    # Figure 5
    PaperValue("fig5", "accept median tracking", 16.0, "ratio", 1.6,
               lambda d: d["accept_medians"][2]),
    PaperValue("fig5", "subscription median tracking", 0.0, "exact", 0,
               lambda d: d["subscription_medians"][2],
               "subscribers see no tracking cookies"),
    PaperValue("fig5", "max tracking on accept", 100.0, "ratio", 3.0,
               lambda d: d["max_tracking_accept"], "extremes >100"),
    # Figure 6
    PaperValue("fig6", "|Pearson r|", 0.0, "band", 0.35,
               lambda d: abs(d["pearson_r"]), "no meaningful correlation"),
    # §4.5 uBlock
    PaperValue("ublock", "suppressed share", 0.70, "band", 0.12,
               lambda d: d["suppressed_share"], "196/280 walls blocked"),
    PaperValue("ublock", "broken sites", 2, "band", 1,
               lambda d: len(d["broken"]), "hausbau-forum / promipool"),
    # §4.4 SMPs
    PaperValue("smp", "contentpass partners", 219, "ratio", 1.1,
               lambda d: d["contentpass"]["partners"]),
    PaperValue("smp", "freechoice partners", 167, "ratio", 1.1,
               lambda d: d["freechoice"]["partners"]),
    PaperValue("smp", "contentpass on toplist", 76, "ratio", 1.2,
               lambda d: d["contentpass"]["on_toplist"]),
]


@dataclass
class ComparisonRow:
    experiment: str
    metric: str
    paper: float
    measured: Optional[float]
    holds: bool
    note: str = ""


@dataclass
class PaperComparison:
    rows: List[ComparisonRow] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def holding(self) -> int:
        return sum(1 for row in self.rows if row.holds)

    def render_markdown(self) -> str:
        lines = [
            "| Experiment | Metric | Paper | Measured | Shape holds |",
            "|---|---|---|---|---|",
        ]
        for row in self.rows:
            measured = "n/a" if row.measured is None else f"{row.measured:g}"
            check = "yes" if row.holds else "**NO**"
            note = f" ({row.note})" if row.note else ""
            lines.append(
                f"| {row.experiment} | {row.metric}{note} | "
                f"{row.paper:g} | {measured} | {check} |"
            )
        lines.append("")
        lines.append(
            f"**{self.holding}/{self.total}** paper observations reproduced."
        )
        return "\n".join(lines)

    def render_text(self) -> str:
        lines = []
        for row in self.rows:
            measured = "n/a" if row.measured is None else f"{row.measured:g}"
            mark = "ok " if row.holds else "FAIL"
            lines.append(
                f"[{mark}] {row.experiment:<10} {row.metric:<32} "
                f"paper={row.paper:<10g} measured={measured}"
            )
        lines.append(f"{self.holding}/{self.total} observations hold")
        return "\n".join(lines)


def compare_with_paper(
    results: Sequence[ExperimentResult],
    values: Optional[List[PaperValue]] = None,
) -> PaperComparison:
    """Check measured experiment data against the paper's numbers."""
    by_id = {r.experiment_id: r for r in results}
    comparison = PaperComparison()
    for value in values if values is not None else PAPER_VALUES:
        result = by_id.get(value.experiment)
        measured = (
            value.measured_from(result.data) if result is not None else None
        )
        comparison.rows.append(
            ComparisonRow(
                experiment=value.experiment,
                metric=value.metric,
                paper=value.paper,
                measured=measured,
                holds=value.holds(measured),
                note=value.note,
            )
        )
    return comparison
