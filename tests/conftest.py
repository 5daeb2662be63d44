"""Shared fixtures: small worlds reused across the test suite, the
wire-worker kill harness, and the one crash harness every backend
matrix uses."""

import contextlib
import multiprocessing
import os
import signal

import pytest

import repro.distributed.worker as worker_mod
from repro.errors import WorkerLostError
from repro.experiments import ExperimentContext
from repro.measure import CrawlEngine
from repro.measure.crawl import Crawler
from repro.webgen import build_world
from tests.faults import FaultInjectingExecutor

#: Armed shard -> the marker files of its kills, one per worker it
#: may take (see kill_workers).
_ARMED_SHARDS = {}
_run_shard_bundle = worker_mod._run_shard_bundle


def _kill_armed_shard(bundle):
    """The worker entry point, except that the first local wire workers
    (never the test process itself) handed an armed shard SIGKILL
    themselves — no cleanup, no exception, just gone, the way the OOM
    killer or a pod eviction takes a worker.  Each kill claims one of
    the shard's marker files, so a shard kills as many workers as it
    has markers across the forked workers."""
    if multiprocessing.parent_process() is not None:
        for marker in _ARMED_SHARDS.get(bundle["shard"], ()):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                continue
            os.kill(os.getpid(), signal.SIGKILL)
    return _run_shard_bundle(bundle)


@pytest.fixture
def kill_workers(monkeypatch, tmp_path):
    """``with kill_workers(1, 4): engine.execute(plan)`` SIGKILLs the
    first local wire worker that starts shard 1, and the first that
    starts shard 4; ``kill_workers(1, kills=2)`` SIGKILLs the first two
    workers that start shard 1.

    The worker loop calls the entry point it imported by name, so the
    patch goes on :mod:`repro.distributed.worker`.  Fork-started
    workers inherit it and the armed shards; the coordinator only ever
    sees whole shards, so a kill at the start of a shard looks to it
    exactly like one halfway through.  A lost worker's shard is
    re-dispatched to a live one; once no local worker is left, the run
    raises :class:`~repro.errors.WorkerLostError`.  The serial backend
    never calls the entry point in a worker, so arming is a no-op
    there.
    """
    monkeypatch.setattr(worker_mod, "_run_shard_bundle", _kill_armed_shard)

    @contextlib.contextmanager
    def arm(*shards, kills=1):
        for shard in shards:
            marker = tmp_path / f"killed-shard-{shard}"
            _ARMED_SHARDS[shard] = [str(marker)] + [
                f"{marker}-{kill}" for kill in range(2, kills + 1)
            ]
        try:
            yield
        finally:
            _ARMED_SHARDS.clear()

    return arm


#: Workers of the ``process`` crash leg: each is killed in turn, and
#: the lost shard's re-dispatch must stay under the executor's
#: ``max_dispatches`` (3), or it would degrade instead of failing.
_PROCESS_CRASH_WORKERS = 2


@pytest.fixture
def crash_engine(kill_workers):
    """``crash_engine(backend, crawler, plan, fail_shards, shards=N,
    **engine_kwargs)`` runs *plan* and asserts it dies in *fail_shards*
    the way the backend-matrix leg *backend* does.

    - ``distributed``: one local wire worker is SIGKILLed when it
      starts the first of them.  With one worker the shards run in
      submission order, so every shard before it is deterministically
      checkpointed, and the run ends with
      :class:`~repro.errors.WorkerLostError` since no worker is left to
      re-dispatch to.
    - ``process``: the ``--workers N`` leg — no backend named, two
      local workers, and each of the first two workers that start a
      failing shard is SIGKILLed.  The first loss is re-dispatched to
      the survivor while other shards complete out of order; the
      second leaves no worker, and the run ends with
      ``WorkerLostError``.
    - ``serial``: the in-process crash harness, which runs half of each
      failing shard.
    """
    def crash(backend, crawler, plan, fail_shards, *, shards, **kwargs):
        if backend == "serial":
            engine = CrawlEngine(
                crawler, shards=shards,
                executor=FaultInjectingExecutor(fail_shards, partial=True),
                **kwargs,
            )
            with pytest.raises(RuntimeError, match="injected crash"):
                engine.execute(plan)
            return
        if backend == "process":
            engine = CrawlEngine(
                crawler, workers=_PROCESS_CRASH_WORKERS, shards=shards,
                **kwargs,
            )
            kills = _PROCESS_CRASH_WORKERS
        else:
            engine = CrawlEngine(
                crawler, workers=1, shards=shards, backend=backend, **kwargs
            )
            kills = 1
        with kill_workers(*fail_shards, kills=kills), \
                pytest.raises(WorkerLostError):
            engine.execute(plan)

    return crash


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
