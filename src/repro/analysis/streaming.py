"""One-pass analysis: every paper artefact from a single record stream.

The list-based computations in :mod:`repro.analysis.figures`,
:mod:`~repro.analysis.tables` and :mod:`~repro.analysis.report` take a
materialised crawl — a list the size of the whole measurement (8 VPs ×
45k sites at paper scale) — and walk it once per artefact.  The
classes here consume the record stream exactly once with state bounded
by the *result* of the analysis (detected wall domains, category
counts, distinct cookie-count values), not by the stream length, so a
crawl spooled to JSONL can be analysed at any world scale with flat
memory:

* :class:`StreamingCrawlAnalysis` — one pass over detection
  :class:`~repro.measure.records.VisitRecord` streams producing
  Table 1, the §4.1 landscape report, and Figures 1–3.
* :class:`StreamingCookieComparison` — one pass per measurement group
  producing the Figure 4/5 comparisons from
  :class:`~repro.analysis.stats.StreamingECDF` sketches.

Exactness: both classes reduce to the same aggregates the list-based
oracles reduce to (shared finalisers in ``tables``/``report``; the
same interpolation arithmetic in ``stats``), so every render and data
product is byte-identical to the materialised path — a property CI
checks differentially.  Records are decoded by the storage layer just
before they reach :meth:`add`; nothing here retains them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.figures import (
    Figure1,
    Figure2,
    Figure3,
    Figure6,
    compute_fig1,
    compute_fig3,
    compute_fig6,
)
from repro.analysis.report import LandscapeReport, landscape_from_aggregates
from repro.analysis.stats import StreamingECDF
from repro.analysis.tables import Table1, table1_from_aggregates
from repro.measure.records import CookieMeasurement, VisitRecord
from repro.vantage import VANTAGE_POINTS
from repro.webgen.world import World


class StreamingCrawlAnalysis:
    """Single pass over detection records → Table 1, §4.1, Figures 1–3.

    Feed the full multi-VP detection stream through :meth:`consume`
    (or record-by-record through :meth:`add`), then read any artefact.
    State is O(detected wall domains + sites with banners), never
    O(visit records): the stream itself is not retained.

    Verification note: Figure 1–3 inputs are the detections that
    survive the paper's manual check (§3).  A wall record is verified
    exactly when its domain is in ``world.wall_domains`` — the
    predicate is record-local, which is what makes the single
    filtering pass possible.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self.record_count = 0
        #: First-seen-ordered unique wall domains across all VPs.
        self._wall_seen: Set[str] = set()
        self._wall_order: List[str] = []
        #: Per-VP wall-domain sets and language-match counts (Table 1).
        self._vp_wall_domains: Dict[str, Set[str]] = {}
        self._vp_language_counts: Dict[str, int] = {}
        #: Banner placement counts over DE wall records (§4.1).
        self._placement_counts: Dict[str, int] = {}
        #: Figure 2 built incrementally from verified DE wall records.
        self._figure2 = Figure2()
        #: DE regular-banner domains in record order (§4.3 sample pool).
        self._regular_banner_de: List[str] = []

    # ------------------------------------------------------------------
    # The single pass
    # ------------------------------------------------------------------
    def add(self, record: VisitRecord) -> "StreamingCrawlAnalysis":
        self.record_count += 1
        if record.is_cookiewall:
            if record.domain not in self._wall_seen:
                self._wall_seen.add(record.domain)
                self._wall_order.append(record.domain)
            self._vp_wall_domains.setdefault(record.vp, set()).add(
                record.domain
            )
            vp = VANTAGE_POINTS.get(record.vp)
            if vp is not None and record.detected_language == vp.language:
                self._vp_language_counts[record.vp] = (
                    self._vp_language_counts.get(record.vp, 0) + 1
                )
            if record.vp == "DE":
                location = record.banner_location
                self._placement_counts[location] = (
                    self._placement_counts.get(location, 0) + 1
                )
                if record.domain in self.world.wall_domains:
                    self._figure2.add_visit(record)
        elif record.vp == "DE" and record.banner_found and record.has_accept:
            self._regular_banner_de.append(record.domain)
        return self

    def consume(self, records: Iterable[VisitRecord]) -> "StreamingCrawlAnalysis":
        for record in records:
            self.add(record)
        return self

    # ------------------------------------------------------------------
    # Finalisers (all O(aggregate), stream already consumed)
    # ------------------------------------------------------------------
    def verified_wall_domains(self) -> List[str]:
        """Detections surviving the §3 manual verification."""
        return [
            d for d in self._wall_order if d in self.world.wall_domains
        ]

    def regular_banner_domains_de(self) -> List[str]:
        """DE domains with a regular (accept-able) banner, record order."""
        return list(self._regular_banner_de)

    def table1(self) -> Table1:
        return table1_from_aggregates(
            self.world, self._vp_wall_domains, self._vp_language_counts
        )

    def landscape(self) -> LandscapeReport:
        return landscape_from_aggregates(
            self.world, set(self._wall_seen), self._placement_counts
        )

    def figure1(self) -> Figure1:
        return compute_fig1(
            self.verified_wall_domains(), self.world.category_db
        )

    def figure2(self) -> Figure2:
        return self._figure2

    def figure3(self) -> Figure3:
        return compute_fig3(self._figure2, self.world.category_db)

    def figure6(
        self, wall_measurements: Iterable[CookieMeasurement]
    ) -> Figure6:
        """Figure 6 from a measurement stream joined against fig2 prices."""
        return compute_fig6(wall_measurements, self._figure2)


#: CookieMeasurement attributes in figure order.
_COOKIE_METRICS: Tuple[str, ...] = (
    "avg_first_party", "avg_third_party", "avg_tracking",
)


class _GroupSketch:
    """Per-group distribution state: one ECDF per cookie metric."""

    def __init__(self, max_points: int) -> None:
        self.ecdfs = [StreamingECDF(max_points) for _ in _COOKIE_METRICS]

    def add(self, measurement: CookieMeasurement) -> None:
        for ecdf, attribute in zip(self.ecdfs, _COOKIE_METRICS):
            ecdf.add(getattr(measurement, attribute))


class StreamingCookieComparison:
    """Bounded-memory stand-in for
    :class:`~repro.analysis.figures.CookieComparison` (Figs 4/5).

    Instead of retaining both measurement groups, each group folds
    into :class:`~repro.analysis.stats.StreamingECDF` sketches per
    metric.  While the sketches stay exact (distinct cookie-count
    averages under the point budget — always true at paper scale),
    :meth:`medians`, :meth:`ratio`, :meth:`max_tracking` and
    :meth:`render` are byte-identical to the materialised class over
    the same streams.
    """

    def __init__(
        self,
        title: str,
        label_a: str,
        label_b: str,
        *,
        max_points: int = 4096,
    ) -> None:
        self.title = title
        self.label_a = label_a
        self.label_b = label_b
        self._groups = {
            "a": _GroupSketch(max_points),
            "b": _GroupSketch(max_points),
        }

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def add(self, group: str, measurement: CookieMeasurement) -> None:
        self._groups[group].add(measurement)

    def consume(
        self, group: str, measurements: Iterable[CookieMeasurement]
    ) -> "StreamingCookieComparison":
        sketch = self._groups[group]
        for measurement in measurements:
            sketch.add(measurement)
        return self

    # ------------------------------------------------------------------
    # CookieComparison-compatible aggregations
    # ------------------------------------------------------------------
    def medians(self, group: str) -> Tuple[float, float, float]:
        sketch = self._groups["a" if group == "a" else "b"]
        first, third, tracking = (ecdf.median() for ecdf in sketch.ecdfs)
        return (first, third, tracking)

    def ratio(self, metric: str) -> float:
        index = {"first_party": 0, "third_party": 1, "tracking": 2}[metric]
        a = self.medians("a")[index]
        b = self.medians("b")[index]
        if a == 0:
            return float("inf") if b > 0 else 1.0
        return b / a

    def max_tracking(self, group: str) -> float:
        sketch = self._groups["a" if group == "a" else "b"]
        ecdf = sketch.ecdfs[2]
        if ecdf.count == 0:
            return 0.0
        return ecdf.quantile(1.0)

    def render(self) -> str:
        lines = [self.title]
        header = (
            f"{'':<26}{'First-party':>12}{'Third-party':>13}{'Tracking':>10}"
        )
        lines.append(header)
        for label, group in ((self.label_a, "a"), (self.label_b, "b")):
            fp, tp, tr = self.medians(group)
            lines.append(f"{label:<26}{fp:>12.1f}{tp:>13.1f}{tr:>10.1f}")
        return "\n".join(lines)


def streaming_fig4(*, max_points: int = 4096) -> StreamingCookieComparison:
    """An empty Figure 4 comparison (regular banners vs cookiewalls)."""
    return StreamingCookieComparison(
        "Figure 4: average cookies — regular banners vs cookiewalls "
        "(median of per-site 5-visit averages)",
        "Regular cookie banner",
        "Cookiewall",
        max_points=max_points,
    )


def streaming_fig5(*, max_points: int = 4096) -> StreamingCookieComparison:
    """An empty Figure 5 comparison (accept vs subscription)."""
    return StreamingCookieComparison(
        "Figure 5: contentpass partners — accept vs subscription "
        "(median of per-site 5-visit averages)",
        "Accept",
        "Subscription",
        max_points=max_points,
    )
