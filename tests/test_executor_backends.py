"""Determinism + resume guarantees, per executor backend.

The engine promises that for a fixed world seed the final JSONL is
**byte-identical** across ``executor ∈ {serial, distributed}`` × any
workers/shards combination × resumed-vs-uninterrupted runs.  This
module is that promise as a test matrix: CI runs it once per backend
(``REPRO_EXECUTOR_BACKEND=serial|distributed``) so a regression in
either backend fails its own job; locally, with the variable unset,
both backends run in one pass.  The distributed job also runs the
``process`` leg: ``--workers N`` with no backend named, which the
engine sends over the wire.
"""

import json
import os
from collections import Counter

import pytest

from repro.measure import (
    EXECUTOR_BACKENDS,
    CrawlEngine,
    Crawler,
    RetryPolicy,
)
from repro.measure.instrumentation import EventLog
from repro.resilience.chaos import ChaosSpec

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

#: Enough shards that fault injection always hits non-empty ones.
SHARDS = 6
WORKERS = 3


def make_engine(backend, crawler, **kwargs):
    """An engine for the matrix leg *backend* with this module's
    standard geometry."""
    workers = 1 if backend == "serial" else WORKERS
    return CrawlEngine(
        crawler, workers=workers, shards=SHARDS,
        backend=None if backend == "process" else backend, **kwargs
    )


@pytest.fixture(scope="module")
def small_crawler(small_world):
    return Crawler(small_world)


@pytest.fixture(scope="module")
def detection_plan(small_world, small_crawler):
    return small_crawler.plan_detection_crawl(
        ["DE"], small_world.crawl_targets[:48]
    )


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory, small_crawler, detection_plan):
    """The uninterrupted serial spool every backend must reproduce."""
    path = tmp_path_factory.mktemp("reference") / "serial.jsonl"
    CrawlEngine(small_crawler, spool_path=path).execute(detection_plan)
    return path.read_bytes()


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendDeterminism:
    def test_detection_spool_matches_serial_reference(
        self, backend, tmp_path, small_crawler, detection_plan,
        serial_reference,
    ):
        out = tmp_path / f"{backend}.jsonl"
        result = make_engine(
            backend, small_crawler, spool_path=out
        ).execute(detection_plan)
        assert len(result) == len(detection_plan)
        assert out.read_bytes() == serial_reference

    def test_spool_merge_matches_memory_merge(
        self, backend, tmp_path, small_crawler, detection_plan,
        serial_reference,
    ):
        out = tmp_path / "streamed.jsonl"
        result = make_engine(
            backend, small_crawler, spool_path=out
        ).execute(detection_plan)
        assert result.spool_path == out
        assert result.held is None
        assert result.record_count == len(detection_plan)
        assert out.read_bytes() == serial_reference
        # The per-shard part files are consumed by the join.
        assert not list(tmp_path.glob("streamed.jsonl.shard*"))

    def test_checkpointed_cookie_measurements_identical(
        self, backend, tmp_path, small_world, small_crawler,
    ):
        """Visit-id-consuming measurements: every spooled run uses the
        per-task id regime, serial included, so the spools must agree."""
        domains = sorted(small_world.wall_domains)[:4]
        plan = small_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        reference = tmp_path / "serial-spooled.jsonl"
        CrawlEngine(
            small_crawler, spool_path=reference,
        ).execute(plan)
        out = tmp_path / f"{backend}.jsonl"
        make_engine(
            backend, small_crawler, spool_path=out,
        ).execute(plan)
        assert out.read_bytes() == reference.read_bytes()

    def test_crashed_run_resumes_byte_identical(
        self, backend, tmp_path, small_crawler, detection_plan,
        serial_reference, crash_engine,
    ):
        """Kill part of the run (wire workers SIGKILLed on the
        ``process`` and ``distributed`` legs, an injected in-process
        crash under serial; see ``crash_engine``), resume, and the
        final JSONL must equal the uninterrupted serial run's."""
        out = tmp_path / "crashed.jsonl"
        checkpoint = tmp_path / "crashed.jsonl.checkpoint"
        crash_engine(
            backend, small_crawler, detection_plan, (1, 4), shards=SHARDS,
            spool_path=out,
        )
        assert checkpoint.exists()
        assert not out.exists()

        log = EventLog()
        result = make_engine(
            backend, small_crawler, spool_path=out,
            resume=True, event_log=log,
        ).execute(detection_plan)
        assert result.resumed > 0
        assert result.resumed < len(detection_plan)
        assert out.read_bytes() == serial_reference
        assert not checkpoint.exists()
        (resume_event,) = log.by_kind("resume")
        assert resume_event.detail["completed"] == result.resumed


def resilience_events(crawler, world, engine_factory):
    """The ``(kind, plan index or domain, error)`` multiset of the
    retry/degrade/breaker events one chaos run with breakers emits."""
    plan = crawler.plan_detection_crawl(
        ["AU", "BR", "DE", "IN", "SE", "USE"], world.crawl_targets[:8]
    )
    plan.context["chaos"] = ChaosSpec(
        seed=43, timeout_rate=0.3, permanent_rate=0.2
    ).to_context()
    log = EventLog()
    engine_factory(
        crawler, event_log=log, retry=RetryPolicy(
            max_attempts=2, breaker_threshold=2, breaker_quarantine=1
        ),
    ).execute(plan)
    events = Counter()
    for event in log.events:
        if event.kind in ("task-retry", "task-degraded"):
            index = int(event.url.rsplit("/", 1)[1])
            events[(event.kind, index, event.detail["error"])] += 1
        elif event.kind in ("breaker-open", "breaker-close"):
            events[(event.kind, event.detail["domain"], None)] += 1
    return events


@pytest.fixture(scope="module")
def serial_resilience_events(small_world, small_crawler):
    events = resilience_events(small_crawler, small_world, CrawlEngine)
    kinds = {kind for kind, _, _ in events}
    assert kinds == {
        "task-retry", "task-degraded", "breaker-open", "breaker-close"
    }, "pinned chaos regime does not exercise every resilience event"
    return events


@pytest.mark.parametrize("backend", BACKENDS)
def test_resilience_events_match_serial(
    backend, small_world, small_crawler, serial_resilience_events,
):
    """Every backend runs the same shard runner and absorb path, so a
    chaos run with breakers emits the serial run's retry, degrade, and
    breaker events — compared as a multiset, since shards finish in
    any order."""
    events = resilience_events(
        small_crawler, small_world,
        lambda crawler, **kwargs: make_engine(backend, crawler, **kwargs),
    )
    assert events == serial_resilience_events


@pytest.mark.skipif(
    "distributed" not in BACKENDS,
    reason="distributed backend excluded by REPRO_EXECUTOR_BACKEND",
)
class TestProcessBackendSpecifics:
    """What only a run in worker processes has: the refusals of state
    a worker cannot rebuild, per-process throughput, and worker death.
    The distributed backend is the one that runs them."""

    def test_worker_death_loses_only_unfinished_shards(
        self, tmp_path, small_crawler, detection_plan, serial_reference,
        crash_engine,
    ):
        """A SIGKILLed worker must not take completed shards' work
        with it: the checkpoint retains them and the resume replays
        them instead of re-crawling."""
        out = tmp_path / "killed.jsonl"
        checkpoint = tmp_path / "killed.jsonl.checkpoint"
        # One worker processes shards in submission order, so the
        # shards before the killed one deterministically complete (and
        # checkpoint) first.
        crash_engine(
            "distributed", small_crawler, detection_plan, (SHARDS - 1,),
            shards=SHARDS, spool_path=out,
        )
        result = make_engine(
            "distributed", small_crawler, spool_path=out, resume=True,
        ).execute(detection_plan)
        assert result.resumed > 0
        assert out.read_bytes() == serial_reference

    def test_killed_worker_shard_is_redispatched(
        self, tmp_path, small_crawler, detection_plan, serial_reference,
        kill_workers,
    ):
        """With several workers a SIGKILL costs one worker, not the
        run: the lost shards re-run on the survivors and the spool
        equals the serial bytes, with no degraded record."""
        out = tmp_path / "survived.jsonl"
        with kill_workers(1, 4):
            result = make_engine(
                "distributed", small_crawler, spool_path=out
            ).execute(detection_plan)
        assert (tmp_path / "killed-shard-1").exists()
        assert not result.failures
        assert out.read_bytes() == serial_reference

    def test_per_process_throughput_events(
        self, small_crawler, detection_plan
    ):
        log = EventLog()
        make_engine(
            "distributed", small_crawler, event_log=log
        ).execute(detection_plan)
        events = log.by_kind("process-throughput")
        assert events, "no per-process throughput emitted"
        assert sum(e.detail["tasks"] for e in events) == len(detection_plan)
        for event in events:
            assert event.detail["pid"] > 0
            assert event.detail["tasks_per_sec"] > 0
        # Shard events carry the worker pid for attribution.
        pids = {e.detail["pid"] for e in events}
        for shard_event in log.by_kind("shard"):
            assert shard_event.detail["pid"] in pids

    def test_custom_crawler_refused(self, small_world):
        class TweakedCrawler(Crawler):
            pass

        engine = make_engine("distributed", TweakedCrawler(small_world))
        plan = Crawler(small_world).plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:2]
        )
        with pytest.raises(ValueError, match="distributed backend"):
            engine.execute(plan)

    def test_detector_subclass_refused(self, small_world):
        """Workers rebuild the stock detectors from their constructor
        arguments, so a subclass would silently lose its overrides in a
        worker; it is refused up front instead."""
        from repro.bannerclick import BannerClick

        class TweakedBannerClick(BannerClick):
            pass

        crawler = Crawler(small_world, bannerclick=TweakedBannerClick())
        plan = crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:2]
        )
        with pytest.raises(ValueError, match="use workers=1"):
            make_engine("distributed", crawler).execute(plan)

    def test_non_json_plan_context_refused(self, small_world,
                                           small_crawler):
        """Worker state crosses as JSON on every out-of-process
        backend: a context JSON would silently change (a tuple becomes
        a list) is refused before any worker starts."""
        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:2]
        )
        plan.context["pair"] = (1, 2)
        with pytest.raises(ValueError, match="not JSON data"):
            make_engine("distributed", small_crawler).execute(plan)

    def test_worker_state_rebuilds_equal_detectors(
        self, monkeypatch, small_world
    ):
        """The JSON worker state rebuilds configured detectors and the
        retry policy field for field, corpora order included."""
        from repro.bannerclick import BannerClick
        from repro.lang import CORPORA, LanguageDetector
        from repro.measure import engine as engine_mod

        corpora = {lang: CORPORA[lang] for lang in sorted(CORPORA)[::-1]}
        detector = LanguageDetector(corpora, min_confidence=0.7)
        crawler = Crawler(
            small_world,
            bannerclick=BannerClick(iframes=False),
            language_detector=detector,
        )
        retry = RetryPolicy(max_attempts=5, breaker_threshold=2)
        engine = CrawlEngine(crawler, retry=retry)
        plan = crawler.plan_detection_crawl(["DE"], [])
        state = json.loads(json.dumps(engine._worker_state(plan)))
        monkeypatch.setitem(
            engine_mod._WORLDS, tuple(state["world"]), small_world
        )
        monkeypatch.setattr(engine_mod, "_WORKER_SHARED", {})
        engine_mod._init_worker_shared(state)
        shared = engine_mod._WORKER_SHARED
        assert shared["crawler"].world is small_world
        assert shared["crawler"].bannerclick == BannerClick(iframes=False)
        assert shared["retry"] == retry
        rebuilt = shared["crawler"]._lang
        assert rebuilt.min_confidence == 0.7
        assert list(rebuilt.corpora) == list(corpora)
        text = "Wir verwenden Cookies, um Ihnen das beste Erlebnis zu bieten"
        assert rebuilt.scores(text) == detector.scores(text)

    @pytest.mark.parametrize("edit", [
        lambda state: state.pop("retry"),
        lambda state: state.update(retry={"retry_on": ["NetworkError"]}),
        lambda state: state.update(bannerclick={"iframes": "no"}),
        lambda state: state.update(bannerclick={"pierce_all": True}),
        lambda state: state.update(world=[7, "0.02", 0]),
        lambda state: state.update(ublock_lists="||ads.example^"),
        lambda state: state["language_detector"].update(corpora={"en": []}),
        lambda state: state.update(context=[]),
        # The policy's bounds are the spec's: out of range is malformed.
        lambda state: state["retry"].update(jitter=2.0),
    ])
    def test_malformed_worker_state_rejected(self, small_crawler, edit):
        from repro.errors import WireProtocolError
        from repro.measure import engine as engine_mod

        plan = small_crawler.plan_detection_crawl(["DE"], [])
        state = json.loads(json.dumps(
            CrawlEngine(small_crawler)._worker_state(plan)
        ))
        edit(state)
        with pytest.raises(WireProtocolError, match="malformed worker state"):
            engine_mod._init_worker_shared(state)

    def test_hand_tuned_world_config_refused(self):
        """A spawn-started worker rebuilds from (seed, scale) alone, so
        non-default population knobs must be refused up front instead
        of silently crawling a different web in the worker."""
        from repro.webgen import build_world
        from repro.webgen.config import WorldConfig

        world = build_world(
            config=WorldConfig(seed=7, scale=0.01, smp_price_cents=399)
        )
        crawler = Crawler(world)
        engine = make_engine("distributed", crawler)
        plan = crawler.plan_detection_crawl(
            ["DE"], world.crawl_targets[:2]
        )
        with pytest.raises(ValueError, match="non-default knobs"):
            engine.execute(plan)

    def test_configured_detector_crosses_the_process_boundary(
        self, tmp_path, small_world
    ):
        """A non-default BannerClick travels in the worker state: the
        distributed backend must produce the same records as an
        in-process run, not silently fall back to a default detector."""
        from repro.bannerclick import BannerClick

        ablated = Crawler(
            small_world,
            bannerclick=BannerClick(subscription_words=False),
        )
        stock = Crawler(small_world)
        # Pick domains where the ablation is *observable* (the
        # cookiewall classifier half it disables fires on wall sites),
        # so a worker silently substituting a default detector could
        # not pass the byte-equality below.
        differing = [
            domain for domain in sorted(small_world.wall_domains)
            if stock.visit("DE", domain).to_dict()
            != ablated.visit("DE", domain).to_dict()
        ][:10]
        assert differing, "ablation not observable on any wall domain"
        plan = ablated.plan_detection_crawl(["DE"], differing)
        serial_out = tmp_path / "serial.jsonl"
        make_engine(
            "serial", ablated, spool_path=serial_out
        ).execute(plan)
        worker_out = tmp_path / "distributed.jsonl"
        make_engine(
            "distributed", ablated, spool_path=worker_out
        ).execute(plan)
        assert worker_out.read_bytes() == serial_out.read_bytes()
        # And the stock detector really does record these differently.
        default_out = tmp_path / "default.jsonl"
        make_engine(
            "distributed", stock, spool_path=default_out
        ).execute(plan)
        assert default_out.read_bytes() != worker_out.read_bytes()

    def test_spool_merge_into_fresh_directory(
        self, tmp_path, small_crawler, detection_plan, serial_reference
    ):
        """Shard part files open before the final join — a not-yet-
        existing output directory must be created, as in memory mode."""
        out = tmp_path / "new" / "dir" / "out.jsonl"
        result = make_engine(
            "distributed", small_crawler, spool_path=out
        ).execute(detection_plan)
        assert result.record_count == len(detection_plan)
        assert out.read_bytes() == serial_reference

    def test_injected_executor_forces_per_task_ids(
        self, tmp_path, small_world, small_crawler
    ):
        """An explicitly injected DistributedExecutor is as parallel as
        backend='distributed': it must flip the visit-id regime (worker
        processes cannot share the serial counter) and the shards
        default, or the engine misreports the records it produces."""
        from repro.distributed import DistributedExecutor

        engine = CrawlEngine(
            small_crawler, executor=DistributedExecutor(2)
        )
        domains = sorted(small_world.wall_domains)[:3]
        plan = small_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        assert engine._per_task_plan(plan)
        assert engine.shards > 1
        injected = [m.to_dict() for m in engine.execute(plan).records]
        named = [
            m.to_dict()
            for m in make_engine("distributed", small_crawler).execute(plan).records
        ]
        assert injected == named

    def test_crashed_join_preserves_previous_output(
        self, tmp_path, small_crawler, detection_plan, serial_reference
    ):
        """The k-way join streams to a sibling and renames on success:
        a failure mid-join must never truncate an older complete
        output."""
        from repro.measure.storage import merge_record_spools

        out = tmp_path / "out.jsonl"
        out.write_bytes(serial_reference)
        journal = tmp_path / "out.jsonl.journal"
        journal.write_text(
            '{"kind": "outcome", "index": 0, "record": {"type": "Nope"}}\n'
            '{"kind": "outcome", "index": 1, "record": null}\n'
        )
        with pytest.raises(ValueError):
            merge_record_spools(journal, [(0, journal.stat().st_size)], out)
        assert out.read_bytes() == serial_reference
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.jsonl", "out.jsonl.journal"
        ]

    def test_plan_event_names_backend(self, small_crawler, detection_plan):
        log = EventLog()
        make_engine(
            "distributed", small_crawler, event_log=log
        ).execute(detection_plan)
        (plan_event,) = log.by_kind("plan")
        assert plan_event.detail["backend"] == "distributed"
