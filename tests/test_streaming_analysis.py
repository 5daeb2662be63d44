"""Differential tests: streaming aggregators vs the list-based oracles.

The streaming analysis layer claims byte-identical outputs to the
materialised computations.  These tests hold it to that claim at
every level: the raw aggregators against the ``stats`` oracle
functions, the figure/table/report objects against the ``compute_*``
oracles, and the full experiment + papercheck pipeline between an
:class:`ExperimentContext` and a test-side stand-in that computes every
artefact with the ``compute_*`` oracles over the same records.
"""

import random
from types import SimpleNamespace

import pytest

from repro.analysis.figures import (
    compute_fig1,
    compute_fig2,
    compute_fig3,
    compute_fig4,
    compute_fig5,
    compute_fig6,
)
from repro.analysis.papercheck import compare_with_paper
from repro.analysis.report import compute_landscape
from repro.analysis.stats import (
    OnlineStats,
    StreamingECDF,
    ecdf,
    ecdf_at,
    mean,
    median,
    quantile,
)
from repro.analysis.streaming import streaming_fig4
from repro.analysis.tables import compute_table1
from repro.errors import AnalysisError
from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from repro.measure.crawl import CrawlResult
from repro.measure.records import CookieMeasurement


# ---------------------------------------------------------------------------
# Aggregator units vs the stats oracles
# ---------------------------------------------------------------------------

def _value_streams():
    rng = random.Random(42)
    return [
        [1.0],
        [3.0, 1.0, 2.0],
        [5.0, 5.0, 5.0, 5.0],
        [rng.uniform(0, 100) for _ in range(257)],
        [float(rng.randint(0, 9)) for _ in range(100)],
    ]


def test_online_stats_matches_two_pass():
    for values in _value_streams():
        stats = OnlineStats().extend(values)
        assert stats.count == len(values)
        assert stats.min == min(values)
        assert stats.max == max(values)
        assert stats.mean == pytest.approx(mean(values), abs=1e-12)


def test_online_stats_merge_matches_single_stream():
    values = [random.Random(7).uniform(-5, 5) for _ in range(100)]
    left = OnlineStats().extend(values[:37])
    right = OnlineStats().extend(values[37:])
    merged = left.merge(right)
    single = OnlineStats().extend(values)
    assert merged.count == single.count
    assert merged.mean == pytest.approx(single.mean, abs=1e-12)
    assert merged.min == single.min and merged.max == single.max


def test_streaming_ecdf_exact_regime_byte_identical():
    """Under the point budget every query equals the list oracle exactly."""
    for values in _value_streams():
        sketch = StreamingECDF().extend(values)
        assert sketch.exact
        assert sketch.count == len(values)
        assert sketch.median() == median(values)
        for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert sketch.quantile(q) == quantile(values, q)
        for threshold in (min(values), max(values), 2.0, 50.0):
            assert sketch.fraction_at_most(threshold) == ecdf_at(
                values, threshold
            )
        assert sketch.ecdf() == ecdf(values)


def test_streaming_ecdf_budget_collapse_is_bounded_and_flagged():
    sketch = StreamingECDF(max_points=16)
    for i in range(1000):
        sketch.add(float(i))
    assert not sketch.exact
    assert len(sketch._counts) <= 16
    assert sketch.count == 1000
    # The sketch still answers sanely: quantiles are monotone and
    # within the observed range.
    qs = [sketch.quantile(q) for q in (0.1, 0.5, 0.9)]
    assert qs == sorted(qs)
    assert 0.0 <= qs[0] and qs[-1] <= 999.0


def test_streaming_ecdf_merge():
    values = [float(v) for v in random.Random(3).choices(range(20), k=200)]
    left = StreamingECDF().extend(values[:80])
    right = StreamingECDF().extend(values[80:])
    merged = left.merge(right)
    assert merged.median() == median(values)
    assert merged.quantile(0.75) == quantile(values, 0.75)


def test_streaming_ecdf_empty_raises():
    with pytest.raises(AnalysisError):
        StreamingECDF().median()
    with pytest.raises(AnalysisError):
        StreamingECDF().quantile(0.5)
    with pytest.raises(AnalysisError):
        StreamingECDF(max_points=1)


# ---------------------------------------------------------------------------
# Crawl-level differential: streaming pass vs materialised oracles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def context():
    from repro.webgen import build_world

    return ExperimentContext(build_world(scale=0.02, seed=7))


def list_oracle(ctx):
    """A stand-in for *ctx* whose artefacts come from the list-based
    ``compute_*`` oracles over *ctx*'s materialised records.

    Every accessor reads the context's memoised products lazily, so the
    products run in the order the context's own experiments ask for
    them, and both sides see the very same records.
    """
    world = ctx.world
    crawl = CrawlResult(records=list(ctx.iter_detection_records()))
    verified = [
        d for d in crawl.cookiewall_domains() if d in world.wall_domains
    ]

    def figure2():
        verified_set = set(verified)
        return compute_fig2(
            [r for r in crawl.cookiewalls("DE") if r.domain in verified_set]
        )

    return SimpleNamespace(
        world=world,
        crawler=ctx.crawler,
        iter_detection_records=lambda vp=None: iter(
            crawl.records if vp is None else crawl.by_vp(vp)
        ),
        iter_ublock_records=ctx.iter_ublock_records,
        verified_wall_domains=lambda: verified,
        table1=lambda: compute_table1(world, crawl),
        landscape=lambda: compute_landscape(world, crawl),
        figure1=lambda: compute_fig1(verified, world.category_db),
        figure2=figure2,
        figure3=lambda: compute_fig3(figure2(), world.category_db),
        comparison_fig4=lambda: compute_fig4(
            list(ctx.iter_regular_measurements()),
            list(ctx.iter_wall_measurements()),
        ),
        comparison_fig5=lambda: compute_fig5(
            list(ctx.iter_contentpass_accept()),
            list(ctx.iter_contentpass_subscription()),
        ),
        figure6=lambda: compute_fig6(
            list(ctx.iter_wall_measurements()), figure2()
        ),
    )


@pytest.fixture(scope="module")
def runs(context):
    """Every experiment on the context, then on its list oracle."""
    ids = sorted(EXPERIMENTS)
    streamed = [run_experiment(e, context=context) for e in ids]
    oracle = list_oracle(context)
    return streamed, [run_experiment(e, context=oracle) for e in ids]


def test_streaming_crawl_analysis_matches_oracles(context):
    analysis = context.detection_analysis()
    crawl = CrawlResult(records=list(context.iter_detection_records()))
    assert analysis.record_count == len(crawl.records)
    assert analysis.verified_wall_domains() == [
        d for d in crawl.cookiewall_domains() if d in context.world.wall_domains
    ]
    assert (
        analysis.regular_banner_domains_de()
        == crawl.regular_banner_domains("DE")
    )
    oracle = list_oracle(context)
    assert context.verified_wall_domains() == oracle.verified_wall_domains()
    for artefact in ("table1", "landscape", "figure1", "figure2", "figure3"):
        assert (
            getattr(analysis, artefact)().render()
            == getattr(oracle, artefact)().render()
        ), artefact


def test_all_experiments_byte_identical_to_list_oracle(runs):
    streamed, oracle = runs
    assert len(streamed) == len(EXPERIMENTS)
    for got, want in zip(streamed, oracle):
        assert got.experiment_id == want.experiment_id
        assert got.rendered == want.rendered, got.experiment_id
        assert got.data == want.data, got.experiment_id


def test_papercheck_byte_identical_to_list_oracle(runs):
    streamed, oracle = runs
    got = compare_with_paper(streamed)
    want = compare_with_paper(oracle)
    assert got.render_markdown() == want.render_markdown()
    assert got.render_text() == want.render_text()


# ---------------------------------------------------------------------------
# Cookie comparison differential (figures 4/5 machinery)
# ---------------------------------------------------------------------------

def _measurements(seed, n, label):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        out.append(
            CookieMeasurement(
                vp="DE",
                domain=f"{label}-{i}.example",
                mode="accept",
                repeats=5,
                avg_first_party=round(rng.uniform(0, 12), 1),
                avg_third_party=round(rng.uniform(0, 40), 1),
                avg_tracking=round(rng.uniform(0, 80), 1),
            )
        )
    return out


def test_streaming_cookie_comparison_byte_identical():
    group_a = _measurements(1, 41, "regular")
    group_b = _measurements(2, 37, "wall")
    oracle = compute_fig4(group_a, group_b)
    streaming = (
        streaming_fig4()
        .consume("a", iter(group_a))
        .consume("b", iter(group_b))
    )
    assert streaming.medians("a") == oracle.medians("a")
    assert streaming.medians("b") == oracle.medians("b")
    for metric in ("first_party", "third_party", "tracking"):
        assert streaming.ratio(metric) == oracle.ratio(metric)
    assert streaming.max_tracking("a") == oracle.max_tracking("a")
    assert streaming.max_tracking("b") == oracle.max_tracking("b")
    assert streaming.render() == oracle.render()


def test_streaming_cookie_comparison_one_empty_group():
    group_a = _measurements(3, 11, "only")
    oracle = compute_fig4(group_a, [])
    streaming = streaming_fig4().consume("a", iter(group_a))
    assert streaming.max_tracking("b") == oracle.max_tracking("b") == 0.0
    # An empty group has no medians: both paths refuse identically.
    with pytest.raises(AnalysisError):
        oracle.render()
    with pytest.raises(AnalysisError):
        streaming.render()
