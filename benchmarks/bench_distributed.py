"""Distributed-executor benchmarks: dispatch overhead + throughput.

Two gates, each asserted by its test, which also records the
measurement in ``benchmarks/output/BENCH_distributed.json``:

* **Dispatch overhead** — a near-empty plan through the distributed
  backend measures everything that is *not* crawling: forking the
  local workers (they inherit the built world), the socket handshake,
  shipping the JSON worker state, and the result merge.  The ceiling
  keeps that fixed cost bounded (a regression here taxes every
  distributed campaign, however large).
* **Throughput** — tasks/sec on a real plan through one coordinator
  plus two socket workers.

Both gates sit just outside the range of 13 local runs on a 2-CPU
Xeon VM (dispatch 0.076–0.096 s, throughput 675–1055 tasks/s), so a
return of the per-worker interpreter start and world rebuild (0.83–1.24
s, 234–275 tasks/s) trips them.

Both runs also re-assert the byte-identity contract against a serial
reference; a fast-but-wrong distributed plane must never pass the
bench.
"""

import time

from conftest import BENCH_SEED, update_bench_json, write_artifact

from repro.measure.crawl import Crawler
from repro.measure.engine import CrawlEngine
from repro.webgen import build_world

#: CI gate: wall-clock seconds for the overhead-dominated tiny plan
#: (worker fork + handshake + merge; crawling is negligible).
_DISPATCH_CEILING_SEC = 0.1
#: CI gate: tasks/sec through 2 socket workers on the real plan.
_THROUGHPUT_FLOOR_TASKS_PER_SEC = 650

_WORKERS = 2
_SHARDS = 8
_TINY_TASKS = 8
_SAMPLE_SIZE = 240


def _bench_world():
    world = build_world(scale=0.05, seed=BENCH_SEED)
    return world, Crawler(world)


def _serial_spool(crawler, sample, path):
    plan = crawler.plan_detection_crawl(["DE"], sample)
    CrawlEngine(crawler, spool_path=path).execute(plan)
    return path.read_bytes()


def _distributed_run(crawler, sample, path):
    plan = crawler.plan_detection_crawl(["DE"], sample)
    engine = CrawlEngine(
        crawler, workers=_WORKERS, shards=_SHARDS,
        backend="distributed", spool_path=path,
    )
    started = time.perf_counter()
    result = engine.execute(plan)
    elapsed = time.perf_counter() - started
    assert result.record_count == len(plan)
    return path.read_bytes(), elapsed


def test_dispatch_overhead(tmp_path):
    """The fixed cost of standing up the distributed plane."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_TINY_TASKS]
    spool, elapsed = _distributed_run(
        crawler, sample, tmp_path / "distributed.jsonl"
    )
    # Correctness before speed: the tiny run must still match serial.
    assert spool == _serial_spool(
        crawler, sample, tmp_path / "serial.jsonl"
    )
    update_bench_json("BENCH_distributed.json", "dispatch", {
        "tasks": _TINY_TASKS,
        "seconds": round(elapsed, 4),
        "ceiling_sec": _DISPATCH_CEILING_SEC,
    }, workers=_WORKERS, shards=_SHARDS)
    write_artifact(
        "distributed_dispatch_overhead",
        f"tiny plan: {_TINY_TASKS} tasks, {_WORKERS} socket workers\n"
        f"fork + handshake + merge: {elapsed:.3f}s\n"
        f"ceiling: {_DISPATCH_CEILING_SEC}s",
    )
    assert elapsed <= _DISPATCH_CEILING_SEC


def test_distributed_throughput(tmp_path):
    """Tasks/sec through one coordinator and two socket workers."""
    world, crawler = _bench_world()
    sample = world.crawl_targets[:_SAMPLE_SIZE]
    spool, elapsed = _distributed_run(
        crawler, sample, tmp_path / "distributed.jsonl"
    )
    assert spool == _serial_spool(
        crawler, sample, tmp_path / "serial.jsonl"
    )
    rate = _SAMPLE_SIZE / elapsed if elapsed else 0.0
    update_bench_json("BENCH_distributed.json", "throughput", {
        "tasks": _SAMPLE_SIZE,
        "seconds": round(elapsed, 4),
        "tasks_per_sec": round(rate, 1),
        "floor_tasks_per_sec": _THROUGHPUT_FLOOR_TASKS_PER_SEC,
    }, workers=_WORKERS, shards=_SHARDS)
    write_artifact(
        "distributed_throughput",
        f"plan: {_SAMPLE_SIZE} tasks, {_WORKERS} socket workers, "
        f"{_SHARDS} shards\n"
        f"throughput: {rate:.1f} tasks/sec\n"
        f"floor: {_THROUGHPUT_FLOOR_TASKS_PER_SEC} tasks/sec",
    )
    assert rate >= _THROUGHPUT_FLOOR_TASKS_PER_SEC
