"""Rendering coverage for report/figure artefacts + determinism."""

import pytest

from repro.analysis.figures import (
    CookieComparison,
    Figure1,
    Figure2,
    Figure3,
    PriceRecord,
)
from repro.analysis.report import LandscapeReport
from repro.measure.records import CookieMeasurement


class TestRenderOutputs:
    def test_landscape_render_fields(self):
        report = LandscapeReport(
            total_targets=45222,
            unique_walls=280,
            overall_rate=0.0062,
            germany_top10k_rate=0.029,
            germany_top1k_rate=0.085,
            countrywise_top1k_rate=0.017,
            placement_counts={"iframe": 132, "main": 72},
        )
        text = report.render()
        assert "45222" in text
        assert "0.62%" in text
        assert "2.90%" in text
        assert "8.50%" in text
        assert "iframe" in text

    def test_figure1_render_order(self):
        figure = Figure1(shares=[("News and Media", 0.27), ("Business", 0.09)])
        text = figure.render()
        assert text.index("News and Media") < text.index("Business")
        assert "27.0%" in text

    def test_figure2_render_heatmap_and_ecdf(self):
        figure = Figure2(records=[
            PriceRecord("a.de", "de", 299),
            PriceRecord("b.de", "de", 299),
            PriceRecord("c.it", "it", 99),
        ])
        text = figure.render()
        assert "TLD" in text
        assert "ECDF" in text
        assert "<=  3 EUR: 100.0%" in text

    def test_figure3_render(self):
        figure = Figure3(by_category={"Sports": [2.99, 3.99]})
        text = figure.render()
        assert "Sports" in text and "mean= 3.49" in text

    def test_comparison_handles_uneven_groups(self):
        a = [CookieMeasurement(vp="DE", domain="a.de", mode="accept",
                               avg_first_party=10, avg_third_party=5,
                               avg_tracking=1)]
        b = [CookieMeasurement(vp="DE", domain=f"b{i}.de", mode="accept",
                               avg_first_party=20, avg_third_party=50,
                               avg_tracking=40 + i) for i in range(3)]
        comparison = CookieComparison("t", "A", "B", a, b)
        assert comparison.medians("b")[2] == 41
        assert comparison.max_tracking("b") == 42
        assert comparison.ratio("tracking") == pytest.approx(41.0)

    def test_ratio_with_zero_baseline(self):
        a = [CookieMeasurement(vp="DE", domain="a.de", mode="x",
                               avg_tracking=0)]
        b = [CookieMeasurement(vp="DE", domain="b.de", mode="x",
                               avg_tracking=5)]
        comparison = CookieComparison("t", "A", "B", a, b)
        assert comparison.ratio("tracking") == float("inf")
        zero_b = CookieComparison("t", "A", "B", a, a)
        assert zero_b.ratio("tracking") == 1.0


class TestExperimentDeterminism:
    def test_same_seed_same_artifact(self):
        from repro.experiments import ExperimentContext, run_experiment
        from repro.webgen import build_world

        results = []
        for _ in range(2):
            world = build_world(scale=0.01, seed=77)
            ctx = ExperimentContext(world, vps=["DE", "USE"])
            results.append(run_experiment("landscape", context=ctx).data)
        assert results[0] == results[1]

    def test_visit_records_deterministic(self):
        from repro.api import Session
        from repro.measure.crawl import Crawler
        from repro.webgen import build_world

        snapshots = []
        for _ in range(2):
            world = build_world(scale=0.01, seed=77)
            crawler = Crawler(world)
            records = Session(world, crawler=crawler).execute(
                crawler.plan_detection_crawl(["DE"], world.crawl_targets[:40])
            ).records
            snapshots.append([
                (r.domain, r.banner_found, r.is_cookiewall) for r in records
            ])
        assert snapshots[0] == snapshots[1]
