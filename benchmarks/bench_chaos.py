"""Chaos-plane benchmarks: idle overhead + recovery throughput.

Two gates, each asserted by its test, which also records the
measurement in ``benchmarks/output/BENCH_chaos.json``:

* **Idle overhead** — a seeded chaos spec with every rate at zero
  installs the plane but never injects; ``ChaosEngine.idle``
  short-circuits per request, so the crawl must cost within a few
  percent of the chaos-free run.  Both sides run serially in this
  process, timed as interleaved pairs, so neither pool start-up nor a
  host stall blurs the ratio; it still includes the per-task
  visit-id regime a seeded chaos plan runs in.
* **Recovery throughput** — visits/sec under the pinned recoverable
  regime with a generous retry budget: every fault retries into a
  clean record (the differential oracle's happy half), and the floor
  keeps the retry/backoff machinery from quietly becoming the
  bottleneck.
"""

import statistics
import time

from conftest import BENCH_SEED, run_once, update_bench_json, write_artifact

from repro.measure.crawl import Crawler
from repro.measure.engine import CrawlEngine, RetryPolicy
from repro.measure.instrumentation import EventLog
from repro.resilience.chaos import ChaosSpec
from repro.webgen import build_world

#: CI gate: idle-chaos crawl time over chaos-free crawl time, the median
#: of interleaved pair ratios.  22 runs at REPRO_BENCH_SCALE=0.05 on a
#: 2-CPU Xeon VM measured 0.97-1.10 (median 1.04, quartiles 1.02-1.06),
#: 8 of them above this ceiling: the sides differ by more than the
#: plane, since the idle plan runs in the per-task visit-id regime and
#: the baseline on the shared counter (see ROADMAP items 2 and 3b).
_IDLE_RATIO_CEILING = 1.05
#: CI gate: visits/sec under the recoverable regime.  12 runs at
#: REPRO_BENCH_SCALE=0.05 on a 2-CPU Xeon VM measured 628-969 (median
#: 659); the floor sits ~20% below that low end.
_RECOVERY_FLOOR_VISITS_PER_SEC = 500

_SHARDS = 8
_SAMPLE_SIZE = 160
#: Interleaved (baseline, idle) timing pairs behind the idle gate.
_PAIRS = 11

#: The pinned recoverable regime (mirrors tests/test_chaos.py).
_RECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, disconnect_rate=0.03,
    truncate_rate=0.02,
)
_IDLE = ChaosSpec(seed=99)


def _bench_world():
    world = build_world(scale=0.05, seed=BENCH_SEED)
    return world, Crawler(world)


def _timed_run(crawler, sample, chaos=None, retry=None, event_log=None):
    plan = crawler.plan_detection_crawl(["DE"], sample)
    if chaos is not None:
        plan.context["chaos"] = chaos.to_context()
    engine = CrawlEngine(
        crawler, shards=_SHARDS,
        retry=retry or RetryPolicy(),
        event_log=event_log,
    )
    started = time.perf_counter()
    result = engine.execute(plan)
    elapsed = time.perf_counter() - started
    assert result.record_count == len(plan)
    return result, elapsed


def test_idle_chaos_overhead():
    """An installed-but-quiet chaos plane must cost ~nothing.

    The two sides are timed as interleaved (baseline, idle) pairs, the
    first side alternating from pair to pair, after one untimed warmup;
    the gate is the median of the per-pair ratios.  A host stall then
    skews one pair, not one side, so the ratio measures the plane: the
    idle path is a single attribute check per request, so the true
    delta is ~0.  The idle plan runs in the per-task visit-id regime
    (``chaos_plan`` forces it for any seeded spec) while the chaos-free
    baseline uses the shared serial counter, so the ratio also covers
    that regime's per-task seed derivation."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    _timed_run(crawler, sample)  # warmup: caches, lazy imports

    pairs = []
    for turn in range(_PAIRS):
        timed = {
            idle: _timed_run(crawler, sample, chaos=_IDLE if idle else None)[1]
            for idle in ((False, True) if turn % 2 == 0 else (True, False))
        }
        pairs.append((timed[False], timed[True]))
    ratio = statistics.median(idle / baseline for baseline, idle in pairs)
    baseline = statistics.median(baseline for baseline, _ in pairs)
    idle = statistics.median(idle for _, idle in pairs)
    update_bench_json("BENCH_chaos.json", "idle", {
        "baseline_sec": round(baseline, 4),
        "idle_sec": round(idle, 4),
        "ratio": round(ratio, 4),
        "ratio_ceiling": _IDLE_RATIO_CEILING,
        "pairs": _PAIRS,
        "visits": _SAMPLE_SIZE,
    })
    write_artifact(
        "chaos_idle_overhead",
        f"sample: {_SAMPLE_SIZE} visits, serial, {_PAIRS} interleaved pairs\n"
        f"chaos-free (median): {baseline:.3f}s\n"
        f"idle chaos plane (median): {idle:.3f}s\n"
        f"overhead (median pair ratio): {ratio:.3f}x "
        f"(ceiling {_IDLE_RATIO_CEILING}x)",
    )
    assert ratio <= _IDLE_RATIO_CEILING


def test_recovery_throughput(benchmark):
    """Visits/sec while the recoverable regime is actively faulting."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    retry = RetryPolicy(max_attempts=8)
    log = EventLog()

    def chaos_sweep():
        return _timed_run(
            crawler, sample, chaos=_RECOVERABLE, retry=retry, event_log=log
        )[0]

    result = run_once(benchmark, chaos_sweep)
    elapsed = benchmark.stats.stats.total
    rate = len(sample) / elapsed if elapsed else 0.0
    # The oracle's happy half: everything recovered, nothing degraded.
    assert not result.failures
    # And faults really flowed through the retry layer (visible as
    # task-retry events; one task's all share its URL), or this
    # measures nothing.
    retried = len({event.url for event in log.by_kind("task-retry")})
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
