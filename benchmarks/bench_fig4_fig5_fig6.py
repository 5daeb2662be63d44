"""Benchmarks + artefacts: Figures 4–6 (cookie measurements)."""

from conftest import run_once, write_artifact

from repro.analysis.figures import compute_fig2, compute_fig4, compute_fig5, compute_fig6


def test_fig4_cookie_comparison(benchmark, bench_context, warm_crawl):
    """Regular-banner vs cookiewall cookie counts (280 + 280 sites x5)."""

    def produce():
        return compute_fig4(
            list(bench_context.iter_regular_measurements()),
            list(bench_context.iter_wall_measurements()),
        )

    comparison = run_once(benchmark, produce)
    text = comparison.render() + (
        f"\nthird-party ratio: {comparison.ratio('third_party'):.1f}x"
        f"\ntracking ratio:    {comparison.ratio('tracking'):.1f}x"
    )
    write_artifact("fig4", text)
    print()
    print(text)
    assert comparison.ratio("third_party") > 3     # paper: 6.4x
    assert comparison.ratio("tracking") > 10       # paper: 42x


def test_fig5_contentpass(benchmark, bench_context, warm_crawl):
    """contentpass accept vs subscription (all partners x5 repeats)."""

    def produce():
        return compute_fig5(
            list(bench_context.iter_contentpass_accept()),
            list(bench_context.iter_contentpass_subscription()),
        )

    comparison = run_once(benchmark, produce)
    text = comparison.render() + (
        f"\nmax tracking on accept: {comparison.max_tracking('a'):.1f}"
    )
    write_artifact("fig5", text)
    print()
    print(text)
    _, _, accept_tracking = comparison.medians("a")
    _, _, subscription_tracking = comparison.medians("b")
    assert subscription_tracking == 0.0            # paper: none
    assert accept_tracking > 5                     # paper: median 16
    assert comparison.max_tracking("a") > 25       # paper: some >100


def test_fig6_tracking_vs_price(benchmark, bench_context, verified_walls_de):
    figure2 = compute_fig2(verified_walls_de)

    def produce():
        return compute_fig6(list(bench_context.iter_wall_measurements()), figure2)

    figure = run_once(benchmark, produce)
    write_artifact("fig6", figure.render())
    print()
    print(figure.render())
    assert abs(figure.correlation) < 0.4           # paper: no correlation
