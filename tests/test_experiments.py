"""Integration tests: every experiment reproduces the paper's shape."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment


@pytest.fixture(scope="module")
def results(medium_context):
    """Run every experiment once on the shared 5% world."""
    return {
        experiment_id: run_experiment(experiment_id, context=medium_context)
        for experiment_id in EXPERIMENTS
    }


class TestRunner:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "accuracy", "ublock", "landscape", "smp",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99", scale=0.01)

    def test_results_render(self, results):
        for result in results.values():
            assert result.rendered
            assert str(result) == result.rendered


class TestTable1Shape(object):
    def test_germany_sees_most_walls(self, results):
        rows = results["table1"].data["rows"]
        de = rows["DE"]["cookiewalls"]
        for vp in ("USE", "USW", "BR", "ZA", "IN", "AU"):
            assert rows[vp]["cookiewalls"] < de

    def test_eu_vps_comparable(self, results):
        rows = results["table1"].data["rows"]
        assert rows["SE"]["cookiewalls"] >= rows["USE"]["cookiewalls"]

    def test_us_columns_zero(self, results):
        rows = results["table1"].data["rows"]
        for vp in ("USE", "USW"):
            assert rows[vp]["toplist"] == 0
            assert rows[vp]["cctld"] == 0

    def test_german_columns_dominate(self, results):
        rows = results["table1"].data["rows"]
        assert rows["DE"]["toplist"] > 0
        assert rows["DE"]["cctld"] > 0
        assert rows["DE"]["language"] > 0


class TestLandscapeShape:
    def test_overall_rate_below_two_percent(self, results):
        rate = results["landscape"].data["overall_rate"]
        assert 0.001 < rate < 0.02  # paper: 0.6%

    def test_germany_rates_ordered(self, results):
        data = results["landscape"].data
        # top-1k prevalence exceeds top-10k prevalence (paper: 8.5 vs 2.9).
        assert data["germany_top1k_rate"] > data["germany_top10k_rate"]
        assert data["germany_top10k_rate"] > data["overall_rate"]

    def test_placements_all_present(self, results):
        placements = results["landscape"].data["placement_counts"]
        assert placements.get("iframe", 0) > 0
        assert placements.get("main", 0) > 0
        shadow = placements.get("shadow-open", 0) + placements.get(
            "shadow-closed", 0
        )
        assert shadow > 0


class TestAccuracyShape:
    def test_full_recall(self, results):
        assert results["accuracy"].data["full_recall"] == 1.0

    def test_precision_high_but_imperfect(self, results):
        precision = results["accuracy"].data["full_precision"]
        assert 0.8 < precision < 1.0  # bait sites create known FPs


class TestFigureShapes:
    def test_fig1_news_is_top_category(self, results):
        shares = results["fig1"].data["shares"]
        top = max(shares, key=lambda k: shares[k])
        assert top == "News and Media"

    def test_fig2_modal_bucket_is_three(self, results):
        assert results["fig2"].data["modal_bucket"] == 3

    def test_fig2_ecdf_shape(self, results):
        data = results["fig2"].data
        assert data["le3"] >= 0.6         # paper: ~80% <= 3 EUR
        assert data["le4"] >= data["le3"]
        assert data["unparsed"] == []     # every wall price extracts

    def test_fig4_ratios(self, results):
        data = results["fig4"].data
        assert data["third_party_ratio"] > 3      # paper: 6.4x
        assert data["tracking_ratio"] > 10        # paper: 42x

    def test_fig5_subscription_clean(self, results):
        data = results["fig5"].data
        accept_tracking = data["accept_medians"][2]
        subscription_tracking = data["subscription_medians"][2]
        assert subscription_tracking == 0.0
        assert accept_tracking > 5

    def test_fig6_no_strong_correlation(self, results):
        r = results["fig6"].data["pearson_r"]
        assert abs(r) < 0.5  # paper: no meaningful linear correlation

    def test_ublock_majority_suppressed(self, results):
        share = results["ublock"].data["suppressed_share"]
        assert 0.5 < share < 0.9  # paper: 70%

    def test_smp_rosters(self, results):
        data = results["smp"].data
        assert data["contentpass"]["partners"] > data["contentpass"]["on_toplist"]
        assert data["freechoice"]["partners"] > 0


class TestPaperFidelity:
    def test_small_world_holds_at_least_17_observations(self):
        """A floor on paper fidelity: at scale 0.03, seed 1, 17 of the
        paper's 30 observations hold (the rest need a larger web).
        Fewer means a change broke an observation that held."""
        from repro.analysis.papercheck import compare_with_paper
        from repro.experiments import ExperimentContext
        from repro.webgen import build_world

        context = ExperimentContext(build_world(scale=0.03, seed=1))
        results = [
            run_experiment(e, context=context) for e in sorted(EXPERIMENTS)
        ]
        assert compare_with_paper(results).holding >= 17


class TestParallelDetectionCrawl:
    def test_every_experiment_is_identical_for_any_workers(self, monkeypatch):
        """Only the detection crawl runs on the context's workers, and it
        leaves the serial visit-id counter where a one-core run does, so
        every artefact and the counter are the same for 1 and 2 workers."""
        import json

        from repro.experiments import ExperimentContext, context as context_module
        from repro.webgen import build_world

        def run_all(workers):
            monkeypatch.setattr(
                context_module, "default_workers", lambda crawler: workers
            )
            context = ExperimentContext(build_world(scale=0.02, seed=7))
            assert context.workers == workers
            data = {
                e: run_experiment(e, context=context).data
                for e in sorted(EXPERIMENTS)
            }
            return (
                json.dumps(data, sort_keys=True, default=str),
                context.world.network.next_visit_id(),
            )

        assert run_all(2) == run_all(1)

    def test_default_workers(self, monkeypatch):
        import os

        from repro.experiments import ExperimentContext
        from repro.experiments.context import default_workers
        from repro.measure import Crawler
        from repro.webgen import build_world

        class Tuned(Crawler):
            pass

        world = build_world(scale=0.01, seed=7)
        for cpus, workers in (({0}, 1), ({0, 1}, 2), (set(range(8)), 2)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert default_workers(Crawler(world)) == workers
            assert ExperimentContext(world).workers == workers
            # A crawler the wire cannot rebuild crawls in-process.
            assert default_workers(Tuned(world)) == 1
            assert ExperimentContext(world, crawler=Tuned(world)).workers == 1
