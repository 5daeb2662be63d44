"""Tests for statistics and table/figure computation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.figures import (
    Figure2,
    PriceRecord,
    compute_fig1,
    compute_fig2,
    compute_fig3,
    compute_fig4,
    compute_fig6,
)
from repro.analysis.stats import ecdf, ecdf_at, mean, median, pearson, quantile
from repro.categorize import WebFilterDB
from repro.errors import AnalysisError
from repro.measure.records import CookieMeasurement, VisitRecord


class TestStats:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5

    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_empty_raises(self):
        for fn in (median, mean, ecdf):
            with pytest.raises(AnalysisError):
                fn([])

    def test_quantile(self):
        data = [1, 2, 3, 4, 5]
        assert quantile(data, 0.0) == 1
        assert quantile(data, 1.0) == 5
        assert quantile(data, 0.5) == 3

    def test_quantile_bad_q(self):
        with pytest.raises(AnalysisError):
            quantile([1], 1.5)

    def test_ecdf_monotone(self):
        points = ecdf([3, 1, 2, 2])
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_ecdf_at(self):
        assert ecdf_at([1, 2, 3, 4], 2) == 0.5

    def test_pearson_perfect(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_property_median_bounds(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=40))
    def test_property_ecdf_final_is_one(self, values):
        assert ecdf(values)[-1][1] == pytest.approx(1.0)


class TestFigureComputation:
    def test_fig1_shares_sum_to_one(self):
        db = WebFilterDB({"a.de": "Sports", "b.de": "Games", "c.de": "Sports"})
        figure = compute_fig1(["a.de", "b.de", "c.de"], db)
        assert sum(s for _, s in figure.shares) == pytest.approx(1.0)
        assert dict(figure.shares)["Sports"] == pytest.approx(2 / 3)
        assert "Sports" in figure.render()

    def test_fig2_extraction_and_buckets(self):
        records = [
            VisitRecord(vp="DE", domain="a.de", is_cookiewall=True,
                        banner_text="Pur-Abo für 2,99 € im Monat"),
            VisitRecord(vp="DE", domain="b.com", is_cookiewall=True,
                        banner_text="subscribe for $9.75 per month"),
            VisitRecord(vp="DE", domain="c.de", is_cookiewall=True,
                        banner_text="no price at all"),
        ]
        figure = compute_fig2(records)
        assert len(figure.records) == 2
        assert figure.unparsed_domains == ["c.de"]
        assert figure.heatmap["de"][3] == 1
        assert figure.modal_bucket() in (3, 9)
        assert 0 < figure.fraction_at_most(3.0) < 1

    def test_fig3_groups_by_category(self):
        figure2 = Figure2(records=[
            PriceRecord("a.de", "de", 299),
            PriceRecord("b.de", "de", 499),
        ])
        db = WebFilterDB({"a.de": "Sports", "b.de": "Sports"})
        figure = compute_fig3(figure2, db)
        assert mean(figure.by_category["Sports"]) == pytest.approx(3.99)

    def test_fig4_ratios(self):
        regular = [
            CookieMeasurement(vp="DE", domain=f"r{i}.de", mode="accept",
                              avg_first_party=15, avg_third_party=7,
                              avg_tracking=1)
            for i in range(5)
        ]
        walls = [
            CookieMeasurement(vp="DE", domain=f"w{i}.de", mode="accept",
                              avg_first_party=19, avg_third_party=49,
                              avg_tracking=42)
            for i in range(5)
        ]
        comparison = compute_fig4(regular, walls)
        assert comparison.medians("a") == (15, 7, 1)
        assert comparison.ratio("third_party") == pytest.approx(7.0)
        assert comparison.ratio("tracking") == pytest.approx(42.0)
        assert "Cookiewall" in comparison.render()

    def test_fig6_no_points_zero_correlation(self):
        figure = compute_fig6([], Figure2())
        assert figure.correlation == 0.0

    def test_fig6_joins_on_domain(self):
        measurements = [
            CookieMeasurement(vp="DE", domain="a.de", mode="accept",
                              avg_tracking=40),
            CookieMeasurement(vp="DE", domain="missing.de", mode="accept",
                              avg_tracking=10),
        ]
        figure2 = Figure2(records=[PriceRecord("a.de", "de", 299)])
        figure = compute_fig6(measurements, figure2)
        assert figure.points == [(40, 2.99)]


class TestTable1:
    def test_table1_on_medium_world(self, medium_world, medium_context):
        from repro.analysis.tables import compute_table1
        from repro.measure.crawl import CrawlResult

        crawl = CrawlResult(records=medium_context.detection_result().records)
        table = compute_table1(medium_world, crawl)
        de_row = table.row("DE")
        se_row = table.row("SE")
        use_row = table.row("USE")
        # Germany sees every wall (plus bait FPs); others see fewer.
        assert de_row.cookiewalls >= se_row.cookiewalls >= use_row.cookiewalls
        assert de_row.toplist > 0
        assert use_row.toplist == 0
        assert use_row.cctld == 0
        assert de_row.cctld > 0
        rendered = table.render()
        assert "Frankfurt" in rendered and "Unique cookiewall" in rendered
