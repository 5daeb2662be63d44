"""The chaos differential oracle, per executor backend.

The load-bearing invariant of the resilience plane: a run under a
seeded chaos regime whose faults are all *recoverable* produces a
spool **byte-identical** to the fault-free run — across every executor
backend, worker count, and kill/resume — while a regime with
*unrecoverable* faults produces deterministic degraded output (same
bytes on every backend, record count still equal to the plan size).
Storage-layer chaos rides along: torn checkpoint tails must be
tolerated, never silently dropped, and a crash at each of the
journal's write sites must resume to the same bytes.

Like ``test_executor_backends.py``, CI runs this module once per
backend (``REPRO_EXECUTOR_BACKEND=serial|distributed``) under
pinned chaos seeds; locally, with the variable unset, both backends
run in one pass.  The distributed job also runs the ``process`` leg:
``--workers N`` with no backend named, which the engine sends over the
wire.
"""

import json
import os
from pathlib import Path

import pytest

from repro.measure import (
    EXECUTOR_BACKENDS,
    CrawlEngine,
    Crawler,
    RetryPolicy,
)
from repro.measure.storage import (
    TornRecordWarning,
    iter_records,
    torn_line_count,
)
from repro.resilience.chaos import ChaosSpec
from repro.rng import derive_seed
from tests.faults import FaultInjectingExecutor

_ENV_BACKEND = os.environ.get("REPRO_EXECUTOR_BACKEND")
if _ENV_BACKEND is not None and _ENV_BACKEND not in EXECUTOR_BACKENDS:
    raise RuntimeError(
        f"REPRO_EXECUTOR_BACKEND={_ENV_BACKEND!r} is not one of "
        f"{EXECUTOR_BACKENDS}"
    )
#: The matrix legs and the backend each runs on.  ``process`` is the
#: ``--workers N`` leg: it names no backend, so the engine's workers
#: rule sends it over the wire to locally forked worker processes.
LEG_BACKENDS = {
    "serial": "serial", "process": "distributed", "distributed": "distributed"
}
BACKENDS = tuple(
    leg for leg, backend in LEG_BACKENDS.items()
    if _ENV_BACKEND in (None, backend)
)

SHARDS = 6
WORKERS = 3

#: The pinned chaos regimes of the oracle.  RECOVERABLE's rates are
#: low enough (and the retry budget generous enough) that no task
#: exhausts its attempts; UNRECOVERABLE mixes in permanent faults that
#: deterministically do.
RECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, disconnect_rate=0.03,
    truncate_rate=0.02,
)
UNRECOVERABLE = ChaosSpec(
    seed=99, timeout_rate=0.05, dns_rate=0.03, permanent_rate=0.15,
)

#: Fault-free twin of the chaos plans: a seeded-but-silent spec keeps
#: the visit-id regime (and hence the record bytes) comparable.
IDLE = ChaosSpec(seed=99)


def make_engine(backend, crawler, **kwargs):
    workers = 1 if backend == "serial" else WORKERS
    return CrawlEngine(
        crawler, workers=workers, shards=SHARDS,
        backend=None if backend == "process" else backend, **kwargs
    )


def chaos_plan(plan_factory, spec):
    """A fresh plan carrying *spec*'s chaos context."""
    plan = plan_factory()
    if spec is not None:
        plan.context["chaos"] = spec.to_context()
    return plan


def chaos_execute(engine, plan_factory, spec):
    """Execute a fresh plan carrying *spec*'s chaos context."""
    return engine.execute(chaos_plan(plan_factory, spec))


def tear_trailing_line(path, seed: int) -> int:
    """Simulate a torn write: truncate *path* mid-way into its last line.

    Deterministically (via ``derive_seed``) picks how many bytes of the
    final line survive — at least one, and at least one byte is cut —
    modelling a crash between ``write`` and ``flush``.  Returns the
    number of bytes cut, for the ``TornRecordWarning`` tolerance of
    checkpoint and spool readers.
    """
    blob = path.read_bytes()
    body = blob[:-1] if blob.endswith(b"\n") else blob
    start = body.rfind(b"\n") + 1
    last = body[start:]
    if len(last) < 2:
        raise ValueError(f"{path} has no tearable trailing line")
    keep = 1 + derive_seed(seed, "tear", len(blob)) % (len(last) - 1)
    torn = body[: start + keep]
    path.write_bytes(torn)
    return len(blob) - len(torn)


@pytest.fixture(scope="module")
def chaos_crawler(small_world):
    return Crawler(small_world)


@pytest.fixture(scope="module")
def plan_factory(small_world, chaos_crawler):
    def factory():
        return chaos_crawler.plan_detection_crawl(
            ["DE", "USE"], small_world.crawl_targets[:16]
        )
    return factory


@pytest.fixture(scope="module")
def fault_free_reference(tmp_path_factory, chaos_crawler, plan_factory):
    """The spool every recoverable-chaos run must reproduce byte-wise."""
    path = tmp_path_factory.mktemp("reference") / "fault-free.jsonl"
    result = chaos_execute(
        CrawlEngine(chaos_crawler, spool_path=path), plan_factory, IDLE
    )
    assert not result.failures
    return path.read_bytes()


@pytest.fixture(scope="module")
def unrecoverable_reference(tmp_path_factory, chaos_crawler, plan_factory):
    """The serial spool of the pinned unrecoverable regime."""
    path = tmp_path_factory.mktemp("reference") / "degraded.jsonl"
    result = chaos_execute(
        CrawlEngine(
            chaos_crawler, spool_path=path, retry=RetryPolicy(max_attempts=3)
        ),
        plan_factory, UNRECOVERABLE,
    )
    assert result.failures, "pinned unrecoverable regime produced no faults"
    assert result.record_count == len(plan_factory())
    return path.read_bytes()


def test_recoverable_regime_actually_injects(chaos_crawler, plan_factory):
    """Guard against a vacuous oracle: with retries disabled, the
    pinned recoverable regime visibly degrades tasks — so the
    byte-identity below really is recovery, not absence of faults."""
    result = chaos_execute(
        CrawlEngine(chaos_crawler, retry=RetryPolicy(max_attempts=1)),
        plan_factory, RECOVERABLE,
    )
    assert result.failures
    for outcome in result.failures:
        assert outcome.record is not None  # degraded, never lost


@pytest.mark.parametrize("backend", BACKENDS)
class TestDifferentialOracle:
    def test_recoverable_chaos_is_byte_invisible(
        self, backend, tmp_path, chaos_crawler, plan_factory,
        fault_free_reference,
    ):
        out = tmp_path / f"{backend}.jsonl"
        result = chaos_execute(
            make_engine(
                backend, chaos_crawler, spool_path=out,
                retry=RetryPolicy(max_attempts=8),
            ),
            plan_factory, RECOVERABLE,
        )
        assert not result.failures
        assert out.read_bytes() == fault_free_reference

    def test_unrecoverable_chaos_is_deterministic(
        self, backend, tmp_path, chaos_crawler, plan_factory,
        unrecoverable_reference,
    ):
        out = tmp_path / f"{backend}.jsonl"
        result = chaos_execute(
            make_engine(
                backend, chaos_crawler, spool_path=out,
                retry=RetryPolicy(max_attempts=3),
            ),
            plan_factory, UNRECOVERABLE,
        )
        assert result.record_count == len(plan_factory())
        assert out.read_bytes() == unrecoverable_reference
        degraded = [
            record for record in iter_records(out)
            if record.flags.get("degraded")
        ]
        assert len(degraded) == len(result.failures) > 0

    def test_crashed_recoverable_run_resumes_byte_identical(
        self, backend, tmp_path, chaos_crawler, plan_factory,
        fault_free_reference, crash_engine,
    ):
        """Kill part of a recoverable-chaos run, resume it: re-crawled
        tasks re-fault and re-recover (the consumed-fault set is
        per-run), so the final spool still equals the fault-free one."""
        out = tmp_path / "crashed.jsonl"
        checkpoint = tmp_path / "crashed.jsonl.checkpoint"
        crash_engine(
            backend, chaos_crawler, chaos_plan(plan_factory, RECOVERABLE),
            (1, 4), shards=SHARDS, spool_path=out,
            retry=RetryPolicy(max_attempts=8),
        )
        assert checkpoint.exists()

        result = chaos_execute(
            make_engine(
                backend, chaos_crawler, spool_path=out, resume=True,
                retry=RetryPolicy(max_attempts=8),
            ),
            plan_factory, RECOVERABLE,
        )
        assert result.resumed > 0
        assert not result.failures
        assert out.read_bytes() == fault_free_reference


# ---------------------------------------------------------------------------
# Breaker state across kill/resume
# ---------------------------------------------------------------------------

#: Six vantage points per target: enough same-domain tasks for the
#: pinned unrecoverable regime to walk breakers through their states.
BREAKER_VPS = ["AU", "BR", "DE", "IN", "SE", "USE"]

BREAKER_RETRY = dict(
    max_attempts=2, breaker_threshold=2, breaker_quarantine=2
)


@pytest.fixture(scope="module")
def breaker_chaos(small_world):
    """High-rate permanent faults pinned to three first-party domains:
    their task streaks deterministically walk the breakers while the
    other five domains crawl clean."""
    from repro.urlkit import registrable_domain

    return ChaosSpec(
        seed=43, timeout_rate=0.9, permanent_rate=0.9,
        domains=tuple(
            registrable_domain(target) or target
            for target in small_world.crawl_targets[:3]
        ),
    )


@pytest.fixture(scope="module")
def breaker_plan_factory(small_world, chaos_crawler):
    def factory():
        return chaos_crawler.plan_detection_crawl(
            BREAKER_VPS, small_world.crawl_targets[:8]
        )
    return factory


@pytest.fixture(scope="module")
def breaker_reference(
    tmp_path_factory, chaos_crawler, breaker_plan_factory, breaker_chaos,
):
    """Uninterrupted serial run of the breaker regime: spool bytes plus
    the final breaker-registry snapshots every crashed-and-resumed run
    must reproduce."""
    path = tmp_path_factory.mktemp("reference") / "breakers.jsonl"
    engine = CrawlEngine(
        chaos_crawler, spool_path=path, retry=RetryPolicy(**BREAKER_RETRY)
    )
    result = chaos_execute(engine, breaker_plan_factory, breaker_chaos)
    skipped = [
        o for o in result.failures if o.error == "BreakerOpenError"
    ]
    assert skipped, "pinned regime never tripped a breaker"
    snapshots = {
        domain: breaker.snapshot()
        for domain, breaker in engine._breakers.items()
        if breaker.snapshot()["state"] != "closed"
        or breaker.snapshot()["consecutive"]
    }
    assert snapshots, "no breaker accumulated state"
    return path.read_bytes(), snapshots


def _breaker_checkpoint_domains(checkpoint):
    domains = {}
    for line in checkpoint.read_text(encoding="utf-8").splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue  # the torn tail some tests manufacture
        if payload.get("kind") == "breaker":
            domains.update(payload["domains"])
    return domains


@pytest.mark.parametrize("backend", BACKENDS)
def test_breaker_state_survives_kill_and_resume(
    backend, tmp_path, chaos_crawler, breaker_plan_factory, breaker_chaos,
    breaker_reference, crash_engine,
):
    """SIGKILL a worker mid-chaos (injected crash under serial): the
    checkpoint carries the breaker line, the resumed run restores the
    registry instead of restarting it closed, and the final spool —
    including which tasks were breaker-skipped — is byte-identical to
    the uninterrupted run."""
    reference_bytes, reference_snapshots = breaker_reference
    out = tmp_path / "killed.jsonl"
    checkpoint = tmp_path / "killed.jsonl.checkpoint"
    crash_engine(
        backend, chaos_crawler, chaos_plan(breaker_plan_factory, breaker_chaos),
        (SHARDS - 1,), shards=SHARDS, spool_path=out,
        retry=RetryPolicy(**BREAKER_RETRY),
    )
    # The interrupted checkpoint persisted breaker state alongside the
    # completed outcomes.
    assert _breaker_checkpoint_domains(checkpoint), (
        "checkpoint carries no breaker line"
    )

    resumed_engine = make_engine(
        backend, chaos_crawler, spool_path=out,
        resume=True, retry=RetryPolicy(**BREAKER_RETRY),
    )
    result = chaos_execute(resumed_engine, breaker_plan_factory, breaker_chaos)
    assert result.resumed > 0
    assert out.read_bytes() == reference_bytes
    final = {
        domain: breaker.snapshot()
        for domain, breaker in resumed_engine._breakers.items()
    }
    for domain, snapshot in reference_snapshots.items():
        assert final[domain] == snapshot


def test_compacted_checkpoint_keeps_breaker_state(
    tmp_path, chaos_crawler, breaker_plan_factory, breaker_chaos,
):
    """The compacting rewrite every resume starts with must consolidate,
    not drop, the breaker lines: one line holds the same snapshots, and
    the resume restores them."""
    out = tmp_path / "run.jsonl"
    checkpoint = tmp_path / "run.jsonl.checkpoint"
    engine = CrawlEngine(
        chaos_crawler, spool_path=out,
        retry=RetryPolicy(**BREAKER_RETRY),
        executor=FaultInjectingExecutor((0,), partial=True),
        shards=SHARDS,
    )
    with pytest.raises(RuntimeError):
        chaos_execute(engine, breaker_plan_factory, breaker_chaos)
    before = _breaker_checkpoint_domains(checkpoint)
    assert before
    resumer = CrawlEngine(
        chaos_crawler, spool_path=out, resume=True,
        retry=RetryPolicy(**BREAKER_RETRY), shards=SHARDS,
    )
    _, breakers = resumer._reconcile_checkpoint(
        chaos_plan(breaker_plan_factory, breaker_chaos)
    )
    assert breakers == before
    lines = checkpoint.read_text(encoding="utf-8").splitlines()
    assert [i for i, line in enumerate(lines) if '"kind": "breaker"' in line] == [1]
    assert _breaker_checkpoint_domains(checkpoint) == before


# ---------------------------------------------------------------------------
# Storage-layer chaos: torn writes
# ---------------------------------------------------------------------------

class TestTornWrites:
    def test_tear_trailing_line_is_deterministic(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        for _ in range(2):
            path.write_text('{"a": 1}\n{"b": 22222}\n', encoding="utf-8")
            cut = tear_trailing_line(path, seed=5)
            assert cut > 0
            torn = path.read_bytes()
            assert torn.startswith(b'{"a": 1}\n{')
            assert not torn.endswith(b"\n")
        # Same seed, same input -> same torn bytes.
        assert path.read_bytes() == torn

    def test_tear_refuses_untearable_file(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        path.write_text("x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no tearable trailing line"):
            tear_trailing_line(path, seed=1)

    def test_torn_checkpoint_resumes_byte_identical(
        self, tmp_path, chaos_crawler, plan_factory, fault_free_reference,
    ):
        """Tearing the checkpoint's final line (crash between write and
        flush) loses at most that one outcome: the resume warns,
        re-crawls it, and the final spool is unchanged."""
        out = tmp_path / "torn.jsonl"
        checkpoint = tmp_path / "torn.jsonl.checkpoint"
        engine = CrawlEngine(
            chaos_crawler, spool_path=out,
            shards=SHARDS,
            executor=FaultInjectingExecutor((SHARDS - 1,), partial=True),
            retry=RetryPolicy(max_attempts=8),
        )
        with pytest.raises(RuntimeError):
            chaos_execute(engine, plan_factory, RECOVERABLE)
        tear_trailing_line(checkpoint, seed=13)

        before = torn_line_count()
        with pytest.warns(TornRecordWarning, match="torn trailing line"):
            result = chaos_execute(
                CrawlEngine(
                    chaos_crawler, spool_path=out,
                    resume=True, shards=SHARDS,
                    retry=RetryPolicy(max_attempts=8),
                ),
                plan_factory, RECOVERABLE,
            )
        assert torn_line_count() == before + 1
        assert result.resumed > 0
        assert not result.failures
        assert out.read_bytes() == fault_free_reference


def _crash_before_rename(monkeypatch, target):
    """Make every atomic replace of *target* die the way a killed
    process does just before its rename."""
    real = os.replace

    def replace(source, destination):
        if Path(destination) == target:
            raise OSError(f"injected crash before renaming {source}")
        return real(source, destination)

    monkeypatch.setattr(os, "replace", replace)


class TestJournalCrashPoints:
    """A kill at each of the journal's write sites resumes to the bytes
    of an uninterrupted run.  The torn append is
    ``TestTornWrites.test_torn_checkpoint_resumes_byte_identical``."""

    @staticmethod
    def _engine(crawler, out, **kwargs):
        return CrawlEngine(
            crawler, spool_path=out, shards=SHARDS, **kwargs,
        )

    def test_crash_in_resume_rewrite_keeps_checkpoint(
        self, tmp_path, monkeypatch, chaos_crawler, plan_factory,
        fault_free_reference,
    ):
        out = tmp_path / "run.jsonl"
        checkpoint = tmp_path / "run.jsonl.checkpoint"
        with pytest.raises(RuntimeError, match="injected crash"):
            chaos_execute(
                self._engine(
                    chaos_crawler, out,
                    executor=FaultInjectingExecutor(
                        (SHARDS - 1,), partial=True
                    ),
                ),
                plan_factory, IDLE,
            )
        crashed = checkpoint.read_bytes()
        with monkeypatch.context() as patch:
            _crash_before_rename(patch, checkpoint)
            with pytest.raises(OSError, match="injected crash"):
                chaos_execute(
                    self._engine(chaos_crawler, out, resume=True),
                    plan_factory, IDLE,
                )
        assert checkpoint.read_bytes() == crashed
        assert not list(tmp_path.glob("*.tmp"))
        result = chaos_execute(
            self._engine(chaos_crawler, out, resume=True), plan_factory, IDLE
        )
        assert result.resumed > 0
        assert out.read_bytes() == fault_free_reference
        assert not checkpoint.exists()

    def test_crash_in_join_keeps_output_and_checkpoint(
        self, tmp_path, monkeypatch, chaos_crawler, plan_factory,
        fault_free_reference,
    ):
        out = tmp_path / "run.jsonl"
        checkpoint = tmp_path / "run.jsonl.checkpoint"
        out.write_text("previous complete output\n", encoding="utf-8")
        with monkeypatch.context() as patch:
            _crash_before_rename(patch, out)
            with pytest.raises(OSError, match="injected crash"):
                chaos_execute(
                    self._engine(chaos_crawler, out), plan_factory, IDLE
                )
        assert out.read_text(encoding="utf-8") == "previous complete output\n"
        assert checkpoint.exists()
        assert not list(tmp_path.glob("*.tmp"))
        result = chaos_execute(
            self._engine(chaos_crawler, out, resume=True), plan_factory, IDLE
        )
        # Every outcome was journaled before the join died: the resume
        # only joins.
        assert result.executed == 0
        assert out.read_bytes() == fault_free_reference
        assert not checkpoint.exists()
