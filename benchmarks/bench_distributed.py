"""Distributed-executor benchmarks: dispatch overhead + throughput.

Two gates, each asserted by its test, which also records the
measurement in ``benchmarks/output/BENCH_distributed.json``:

* **Dispatch overhead** — a near-empty plan through the distributed
  backend measures everything that is *not* crawling: spawning the
  worker processes, the socket handshake, shipping the JSON worker
  state, the workers' deterministic world rebuild, and the result
  merge.  The ceiling keeps that fixed cost bounded (a regression
  here taxes every distributed campaign, however large).
* **Throughput** — tasks/sec on a real plan through one coordinator
  plus two socket workers.  The floor is deliberately conservative
  (local runs sustain far more) so only a genuine collapse — e.g. the
  wire layer serialising per task instead of per shard — trips it.

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
#: (worker spawn + handshake + world rebuild + merge; crawling is
#: negligible).  Local runs take ~2-4s; the ceiling leaves room for
#: slow shared runners without ever tolerating a pathological plane.
_DISPATCH_CEILING_SEC = 30.0
#: CI gate: tasks/sec through 2 socket workers on the real plan.
_THROUGHPUT_FLOOR_TASKS_PER_SEC = 15

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
        f"spawn + handshake + rebuild + merge: {elapsed:.2f}s\n"
        f"ceiling: {_DISPATCH_CEILING_SEC:.0f}s",
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
