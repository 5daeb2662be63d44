"""Figures 1–6: data computation plus ASCII rendering.

Every figure is produced from *measured* inputs (detection records,
extracted prices, cookie measurements) — ground truth is never read
during analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.stats import ecdf_at, mean, median, pearson
from repro.categorize import WebFilterDB
from repro.measure.records import CookieMeasurement, VisitRecord
from repro.pricing import extract_price
from repro.urlkit import public_suffix


def _bar(fraction: float, width: int = 30) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


# ---------------------------------------------------------------------------
# Figure 1 — categories of cookiewall websites
# ---------------------------------------------------------------------------

@dataclass
class Figure1:
    """Category shares among detected cookiewall sites."""

    shares: List[Tuple[str, float]] = field(default_factory=list)
    total_sites: int = 0

    def render(self) -> str:
        lines = ["Figure 1: categories of websites showing cookiewalls"]
        for name, share in self.shares:
            lines.append(f"{name:<28}{share * 100:6.1f}%  {_bar(share)}")
        return "\n".join(lines)


def compute_fig1(
    wall_domains: Sequence[str], category_db: WebFilterDB
) -> Figure1:
    counts: Dict[str, int] = {}
    for domain in wall_domains:
        category = category_db.lookup(domain)
        counts[category] = counts.get(category, 0) + 1
    total = max(len(wall_domains), 1)
    shares = sorted(
        ((name, count / total) for name, count in counts.items()),
        key=lambda item: item[1],
        reverse=True,
    )
    return Figure1(shares=shares, total_sites=len(wall_domains))


# ---------------------------------------------------------------------------
# Figure 2 — price distribution: TLD×bucket heatmap + ECDF
# ---------------------------------------------------------------------------

@dataclass
class PriceRecord:
    domain: str
    tld: str
    monthly_eur_cents: int

    @property
    def bucket(self) -> int:
        return max((self.monthly_eur_cents + 99) // 100, 1)

    @property
    def monthly_eur(self) -> float:
        return self.monthly_eur_cents / 100.0


@dataclass
class Figure2:
    records: List[PriceRecord] = field(default_factory=list)
    unparsed_domains: List[str] = field(default_factory=list)

    def add_visit(self, record: VisitRecord) -> None:
        """Fold one wall record in (price extraction + normalisation).

        Both :func:`compute_fig2` and the streaming analysis pass feed
        records through this single entry point, so the two paths
        produce identical figures by construction.
        """
        price = extract_price(record.banner_text)
        if price is None:
            self.unparsed_domains.append(record.domain)
            return
        tld = public_suffix(record.domain) or "?"
        self.records.append(
            PriceRecord(
                domain=record.domain,
                tld=tld,
                monthly_eur_cents=price.monthly_eur_cents,
            )
        )

    @property
    def heatmap(self) -> Dict[str, Dict[int, int]]:
        out: Dict[str, Dict[int, int]] = {}
        for record in self.records:
            row = out.setdefault(record.tld, {})
            row[record.bucket] = row.get(record.bucket, 0) + 1
        return out

    def fraction_at_most(self, euros: float) -> float:
        return ecdf_at([r.monthly_eur for r in self.records], euros)

    def modal_bucket(self) -> int:
        counts: Dict[int, int] = {}
        for record in self.records:
            counts[record.bucket] = counts.get(record.bucket, 0) + 1
        return max(counts, key=lambda b: counts[b])

    def render(self) -> str:
        heat = self.heatmap
        buckets = list(range(1, 11))
        lines = ["Figure 2: monthly subscription price distribution (EUR)"]
        header = "TLD    " + "".join(f"{b:>5}" for b in buckets)
        lines.append(header)
        for tld in sorted(heat, key=lambda t: -sum(heat[t].values())):
            row = heat[tld]
            cells = "".join(
                f"{row.get(b, ''):>5}" if row.get(b) else f"{'':>5}"
                for b in buckets
            )
            lines.append(f"{tld:<7}" + cells)
        lines.append("")
        lines.append("ECDF:")
        for euros in (1, 2, 3, 4, 5, 9, 10):
            frac = self.fraction_at_most(euros)
            lines.append(f"  <= {euros:>2} EUR: {frac * 100:5.1f}%  {_bar(frac)}")
        return "\n".join(lines)


# reprolint: disable=test-only-definition -- oracle: the list path the streaming analysis is tested against
def compute_fig2(wall_records: Iterable[VisitRecord]) -> Figure2:
    """Extract and normalise prices from detected wall banner text.

    *wall_records* may be any iterable (including a one-shot record
    stream): it is consumed exactly once.
    """
    figure = Figure2()
    for record in wall_records:
        figure.add_visit(record)
    return figure


# ---------------------------------------------------------------------------
# Figure 3 — category vs price
# ---------------------------------------------------------------------------

@dataclass
class Figure3:
    #: category -> list of monthly prices (EUR)
    by_category: Dict[str, List[float]] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Figure 3: website category vs subscription price"]
        for category in sorted(
            self.by_category, key=lambda c: -len(self.by_category[c])
        ):
            prices = self.by_category[category]
            lines.append(
                f"{category:<28} n={len(prices):>3}  "
                f"mean={mean(prices):5.2f} EUR  median={median(prices):5.2f} EUR"
            )
        return "\n".join(lines)


def compute_fig3(figure2: Figure2, category_db: WebFilterDB) -> Figure3:
    figure = Figure3()
    for record in figure2.records:
        category = category_db.lookup(record.domain)
        figure.by_category.setdefault(category, []).append(record.monthly_eur)
    return figure


# ---------------------------------------------------------------------------
# Figures 4 & 5 — cookie count comparisons
# ---------------------------------------------------------------------------

@dataclass
class CookieComparison:
    """Median comparison of two measurement groups."""

    title: str
    label_a: str
    label_b: str
    group_a: List[CookieMeasurement] = field(default_factory=list)
    group_b: List[CookieMeasurement] = field(default_factory=list)

    def medians(self, group: str) -> Tuple[float, float, float]:
        items = self.group_a if group == "a" else self.group_b
        return (
            median([m.avg_first_party for m in items]),
            median([m.avg_third_party for m in items]),
            median([m.avg_tracking for m in items]),
        )

    def ratio(self, metric: str) -> float:
        index = {"first_party": 0, "third_party": 1, "tracking": 2}[metric]
        a = self.medians("a")[index]
        b = self.medians("b")[index]
        if a == 0:
            return float("inf") if b > 0 else 1.0
        return b / a

    def max_tracking(self, group: str) -> float:
        items = self.group_a if group == "a" else self.group_b
        return max((m.avg_tracking for m in items), default=0.0)

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


# reprolint: disable=test-only-definition -- oracle: the list path the streaming analysis is tested against
def compute_fig4(
    regular: Sequence[CookieMeasurement], walls: Sequence[CookieMeasurement]
) -> CookieComparison:
    return CookieComparison(
        title="Figure 4: average cookies — regular banners vs cookiewalls "
              "(median of per-site 5-visit averages)",
        label_a="Regular cookie banner",
        label_b="Cookiewall",
        group_a=list(regular),
        group_b=list(walls),
    )


# reprolint: disable=test-only-definition -- oracle: the list path the streaming analysis is tested against
def compute_fig5(
    accept: Sequence[CookieMeasurement],
    subscription: Sequence[CookieMeasurement],
) -> CookieComparison:
    return CookieComparison(
        title="Figure 5: contentpass partners — accept vs subscription "
              "(median of per-site 5-visit averages)",
        label_a="Accept",
        label_b="Subscription",
        group_a=list(accept),
        group_b=list(subscription),
    )


# ---------------------------------------------------------------------------
# Figure 6 — tracking cookies vs price correlation
# ---------------------------------------------------------------------------

@dataclass
class Figure6:
    points: List[Tuple[float, float]] = field(default_factory=list)  # (tracking, price)

    @property
    def correlation(self) -> float:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        if len(xs) < 2:
            return 0.0
        return pearson(xs, ys)

    def render(self) -> str:
        lines = [
            "Figure 6: tracking cookies vs subscription price",
            f"n = {len(self.points)} sites, "
            f"Pearson r = {self.correlation:+.3f}",
        ]
        return "\n".join(lines)


def compute_fig6(
    wall_measurements: Iterable[CookieMeasurement], figure2: Figure2
) -> Figure6:
    """Join tracking-cookie counts against fig2 prices.

    *wall_measurements* is consumed in a single pass; only the joined
    (tracking, price) points — one pair per priced wall site — are
    retained, so the correlation works off a measurement *stream*.
    """
    prices = {r.domain: r.monthly_eur for r in figure2.records}
    figure = Figure6()
    for measurement in wall_measurements:
        price = prices.get(measurement.domain)
        if price is None:
            continue
        figure.points.append((measurement.avg_tracking, price))
    return figure
