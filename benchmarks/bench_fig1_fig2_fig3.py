"""Benchmarks + artefacts: Figures 1–3 (categories, prices)."""

from conftest import run_once, write_artifact

from repro.analysis.figures import compute_fig1, compute_fig2, compute_fig3
from repro.analysis.stats import mean


def test_fig1_categories(benchmark, bench_world, bench_context, warm_crawl):
    def produce():
        return compute_fig1(
            bench_context.verified_wall_domains(), bench_world.category_db
        )

    figure = run_once(benchmark, produce)
    write_artifact("fig1", figure.render())
    print()
    print(figure.render())
    top_category, top_share = figure.shares[0]
    assert top_category == "News and Media"      # paper: >25%
    assert top_share > 0.2


def test_fig2_price_distribution(benchmark, verified_walls_de):
    def produce():
        return compute_fig2(verified_walls_de)

    figure = run_once(benchmark, produce)
    write_artifact("fig2", figure.render())
    print()
    print(figure.render())
    assert figure.unparsed_domains == []
    assert figure.modal_bucket() == 3            # paper: 3 EUR dominates
    assert figure.fraction_at_most(4.0) >= 0.8   # paper: ~90% <= 4 EUR


def test_fig3_category_vs_price(benchmark, bench_world, verified_walls_de):
    figure2 = compute_fig2(verified_walls_de)

    def produce():
        return compute_fig3(figure2, bench_world.category_db)

    figure = run_once(benchmark, produce)
    write_artifact("fig3", figure.render())
    print()
    print(figure.render())
    # Paper: no obvious relationship — category means stay in a band
    # far narrower than the 1–10 EUR price range itself.  Small
    # categories can catch one of the few >=9 EUR outliers, so the
    # band check uses categories with a meaningful sample.
    means = [mean(prices) for prices in figure.by_category.values()
             if len(prices) >= 5]
    assert means
    assert max(means) - min(means) < 5.0
