"""Chaos-plane benchmarks: idle overhead + recovery throughput.

Two gates, each asserted by its test, which also records the
measurement in ``benchmarks/output/BENCH_chaos.json``:

* **Idle overhead** — a seeded chaos spec with every rate at zero
  installs the plane but never injects; ``ChaosEngine.idle``
  short-circuits per request, so the crawl must cost within a few
  percent of the chaos-free run.  Both sides run serially in this
  process, with no pool start-up to blur the ratio, so it isolates
  the plane itself.
* **Recovery throughput** — visits/sec under the pinned recoverable
  regime with a generous retry budget: every fault retries into a
  clean record (the differential oracle's happy half), and the floor
  keeps the retry/backoff machinery from quietly becoming the
  bottleneck.
"""

import time

from conftest import BENCH_SEED, run_once, update_bench_json, write_artifact

from repro.measure.crawl import Crawler
from repro.measure.engine import CrawlEngine, RetryPolicy
from repro.resilience.chaos import ChaosSpec
from repro.webgen import build_world

#: CI gate: idle-chaos crawl time over chaos-free crawl time.  36 runs
#: at REPRO_BENCH_SCALE=0.05 on a 2-CPU Xeon VM measured 0.67-1.40
#: (median 1.02), 11 of them above this ceiling: best-of-3 over ~60 ms
#: crawls is noisier than the gap it guards (see ROADMAP item 2).
_IDLE_RATIO_CEILING = 1.05
#: CI gate: visits/sec under the recoverable regime.  12 runs at
#: REPRO_BENCH_SCALE=0.05 on a 2-CPU Xeon VM measured 628-969 (median
#: 659); the floor sits ~20% below that low end.
_RECOVERY_FLOOR_VISITS_PER_SEC = 500

_SHARDS = 8
_SAMPLE_SIZE = 160
_ROUNDS = 3

#: The pinned recoverable regime (mirrors tests/test_chaos.py).
_RECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, disconnect_rate=0.03,
    truncate_rate=0.02,
)
_IDLE = ChaosSpec(seed=99)


def _bench_world():
    world = build_world(scale=0.05, seed=BENCH_SEED)
    return world, Crawler(world)


def _timed_run(crawler, sample, chaos=None, retry=None):
    plan = crawler.plan_detection_crawl(["DE"], sample)
    if chaos is not None:
        plan.context["chaos"] = chaos.to_context()
    engine = CrawlEngine(
        crawler, shards=_SHARDS,
        retry=retry or RetryPolicy(),
    )
    started = time.perf_counter()
    result = engine.execute(plan)
    elapsed = time.perf_counter() - started
    assert result.record_count == len(plan)
    return result, elapsed


def test_idle_chaos_overhead():
    """An installed-but-quiet chaos plane must cost ~nothing.

    Best-of-N timing on both sides (plus one untimed warmup) keeps the
    ratio meaningful on noisy CI runners: the idle path is a single
    attribute check per request, so the true delta is ~0."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    _timed_run(crawler, sample)  # warmup: caches, lazy imports

    baseline = min(
        _timed_run(crawler, sample)[1] for _ in range(_ROUNDS)
    )
    idle = min(
        _timed_run(crawler, sample, chaos=_IDLE)[1] for _ in range(_ROUNDS)
    )
    ratio = idle / baseline if baseline else 0.0
    update_bench_json("BENCH_chaos.json", "idle", {
        "baseline_sec": round(baseline, 4),
        "idle_sec": round(idle, 4),
        "ratio": round(ratio, 4),
        "ratio_ceiling": _IDLE_RATIO_CEILING,
        "visits": _SAMPLE_SIZE,
    })
    write_artifact(
        "chaos_idle_overhead",
        f"sample: {_SAMPLE_SIZE} visits, serial\n"
        f"chaos-free: {baseline:.3f}s\n"
        f"idle chaos plane: {idle:.3f}s\n"
        f"overhead: {ratio:.3f}x (ceiling {_IDLE_RATIO_CEILING}x)",
    )
    assert ratio <= _IDLE_RATIO_CEILING


def test_recovery_throughput(benchmark):
    """Visits/sec while the recoverable regime is actively faulting."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    retry = RetryPolicy(max_attempts=8)

    def chaos_sweep():
        return _timed_run(
            crawler, sample, chaos=_RECOVERABLE, retry=retry
        )[0]

    result = run_once(benchmark, chaos_sweep)
    elapsed = benchmark.stats.stats.total
    rate = len(sample) / elapsed if elapsed else 0.0
    # The oracle's happy half: everything recovered, nothing degraded.
    assert not result.failures
    # And faults really flowed through the retry layer (visible as
    # multi-attempt outcomes), or this measures nothing.
    retried = sum(1 for o in result.outcomes if o.attempts > 1)
    assert retried > 0, "pinned recoverable regime injected no faults"
    update_bench_json("BENCH_chaos.json", "recovery", {
        "visits": _SAMPLE_SIZE,
        "retried_tasks": retried,
        "seconds": round(elapsed, 4),
        "visits_per_sec": round(rate, 1),
        "floor_visits_per_sec": _RECOVERY_FLOOR_VISITS_PER_SEC,
    })
    write_artifact(
        "chaos_recovery_throughput",
        f"sample: {_SAMPLE_SIZE} visits, {retried} retried tasks\n"
        f"throughput under recoverable chaos: {rate:.1f} visits/sec\n"
        f"floor: {_RECOVERY_FLOOR_VISITS_PER_SEC} visits/sec",
    )
    assert rate >= _RECOVERY_FLOOR_VISITS_PER_SEC
