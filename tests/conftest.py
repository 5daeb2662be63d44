"""Shared fixtures: small worlds reused across the test suite, and
the process-pool worker kill harness."""

import contextlib
import multiprocessing
import os
import signal

import pytest

import repro.measure.engine as engine_mod
from repro.experiments import ExperimentContext
from repro.measure.crawl import Crawler
from repro.webgen import build_world

#: Shards whose process-pool worker SIGKILLs itself (see kill_workers).
_ARMED_SHARDS = set()
_run_shard_bundle = engine_mod._run_shard_bundle


def _kill_armed_shard(bundle):
    """The worker entry point, except that a pool worker (never the
    test process itself) handed an armed shard SIGKILLs itself first —
    no cleanup, no exception, just gone, the way the OOM killer or a
    pod eviction takes a worker."""
    if (
        bundle["shard"] in _ARMED_SHARDS
        and multiprocessing.parent_process() is not None
    ):
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_shard_bundle(bundle)


@pytest.fixture
def kill_workers(monkeypatch):
    """``with kill_workers(1, 4): engine.execute(plan)`` SIGKILLs the
    process-pool worker that starts shard 1 or 4.

    Fork-started pool workers inherit the patched entry point and the
    armed set; the parent only ever sees whole shards, so a kill at the
    start of a shard looks to it exactly like one halfway through.  The
    run raises the pool's ``BrokenProcessPool``.  Other backends never
    call the entry point in a pool worker, so arming is a no-op there.
    """
    monkeypatch.setattr(engine_mod, "_run_shard_bundle", _kill_armed_shard)

    @contextlib.contextmanager
    def arm(*shards):
        _ARMED_SHARDS.update(shards)
        try:
            yield
        finally:
            _ARMED_SHARDS.clear()

    return arm


@pytest.fixture(scope="session")
def small_world():
    """A ~1k-site world (2% scale) for fast integration tests."""
    return build_world(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def medium_world():
    """A ~2.5k-site world (5% scale) with a richer wall population."""
    return build_world(scale=0.05, seed=7)


@pytest.fixture(scope="session")
def medium_crawler(medium_world):
    return Crawler(medium_world)


@pytest.fixture(scope="session")
def medium_context(medium_world, medium_crawler):
    return ExperimentContext(medium_world, crawler=medium_crawler)
