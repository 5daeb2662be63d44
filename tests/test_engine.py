"""Tests for the sharded crawl engine (plan → shard → execute → merge)."""

import json
import multiprocessing
import random

import pytest

from repro.api import EngineSpec, Session
from repro.errors import NetworkError
from repro.errors import TimeoutError as ReproTimeoutError
from repro.experiments import ExperimentContext
from repro.measure import (
    CheckpointMismatch,
    Crawler,
    CrawlEngine,
    CrawlPlan,
    CrawlTask,
    RetryPolicy,
    iter_records,
    plan_fingerprint,
    save_records,
)
from repro.measure.crawl import CrawlResult
from repro.measure.engine import _run_shard_bundle, id_free_plan, shard_of
from repro.measure.instrumentation import EventLog
from repro.resilience.chaos import ChaosSpec
from repro.webgen import build_world
from tests.faults import FaultInjectingExecutor

#: Where :func:`_logged_shard_bundle` records each bundle it starts.
_BUNDLE_LOG = {}


def _logged_shard_bundle(bundle):
    """The worker entry point, appending the bundle's task count to
    ``_BUNDLE_LOG["path"]`` before it runs."""
    with open(_BUNDLE_LOG["path"], "a", encoding="utf-8") as handle:
        handle.write(f"{len(bundle['tasks'])}\n")
    return _run_shard_bundle(bundle)


class TestPlanCompilation:
    def test_detection_plan_is_vp_major(self, medium_world, medium_crawler):
        targets = medium_world.crawl_targets[:3]
        plan = medium_crawler.plan_detection_crawl(["DE", "USE"], targets)
        assert len(plan) == 6
        assert [t.vp for t in plan.tasks] == ["DE"] * 3 + ["USE"] * 3
        assert all(t.mode == "detect" for t in plan.tasks)

    def test_cookie_plan_modes(self, medium_crawler):
        plan = medium_crawler.plan_cookie_measurements(
            "DE", ["a.de", "b.de"], mode="reject", repeats=3
        )
        assert [(t.mode, t.repeats) for t in plan.tasks] == [("reject", 3)] * 2
        with pytest.raises(ValueError):
            medium_crawler.plan_cookie_measurements("DE", [], mode="ublock")

    def test_subscription_plan_carries_context(self, medium_crawler):
        plan = medium_crawler.plan_subscription_measurements(
            "DE", ["a.de"], "contentpass", "e@x.de", "pw", repeats=2
        )
        assert plan.context["platform"] == "contentpass"
        assert plan.tasks[0].mode == "subscription"

    def test_unknown_task_mode_rejected(self):
        with pytest.raises(ValueError):
            CrawlTask(vp="DE", domain="a.de", mode="teleport")


class TestSharding:
    def test_shard_assignment_is_stable_and_bounded(self):
        for domain in ("example.de", "news.com", "blog.se"):
            first = shard_of(domain, 8)
            assert 0 <= first < 8
            assert all(shard_of(domain, 8) == first for _ in range(3))

    def test_all_vps_of_a_domain_share_a_shard(self, medium_crawler):
        targets = ["one.de", "two.com", "three.se"]
        plan = medium_crawler.plan_detection_crawl(["DE", "SE", "USE"], targets)
        for shard in plan.sharded(4):
            domains = {task.domain for _, task in shard}
            vps = [task.vp for _, task in shard]
            assert len(vps) == 3 * len(domains)

    def test_sharded_preserves_plan_indices(self, medium_crawler):
        plan = medium_crawler.plan_detection_crawl(["DE"], ["a.de", "b.de", "c.de"])
        seen = sorted(
            index for shard in plan.sharded(8) for index, _ in shard
        )
        assert seen == [0, 1, 2]


class TestDeterminism:
    @pytest.mark.parametrize("workers,shards", [(4, None), (1, 8), (4, 8)])
    def test_crawl_all_identical_across_configs(
        self, medium_world, medium_crawler, workers, shards
    ):
        plan = medium_crawler.plan_detection_crawl(
            ["DE", "SE"], medium_world.crawl_targets[:150]
        )

        def crawl(**engine):
            session = Session(
                medium_world, engine=EngineSpec(**engine),
                crawler=medium_crawler,
            )
            return [r.to_dict() for r in session.execute(plan).records]

        assert crawl(workers=workers, shards=shards) == crawl(workers=1)

    def test_parallel_measurements_reproducible(self, medium_world, medium_crawler):
        """Parallel cookie measurements are a pure function of the
        world and the plan — identical across reruns and across
        different parallel worker/shard configurations (each task gets
        a private visit-id stream derived from the world seed)."""
        domains = sorted(medium_world.wall_domains)[:4]
        plan = medium_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        runs = []
        for workers, shards in [(4, 8), (4, 8), (2, 3)]:
            engine = CrawlEngine(
                medium_crawler, workers=workers, shards=shards
            )
            runs.append([m.to_dict() for m in engine.execute(plan).records])
        assert runs[0] == runs[1] == runs[2]

    def test_id_free_plans(self, medium_crawler):
        domains = medium_crawler.world.crawl_targets[:3]
        detection = medium_crawler.plan_detection_crawl(["DE"], domains)
        assert id_free_plan(detection)
        assert not id_free_plan(medium_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=1
        ))
        chaos = medium_crawler.plan_detection_crawl(["DE"], domains)
        chaos.context["chaos"] = ChaosSpec(seed=1).to_context()
        assert not id_free_plan(chaos)
        campaign = medium_crawler.plan_detection_crawl(["DE"], domains)
        campaign.context["multivantage"] = {"wave": 0, "scenario": {}}
        assert not id_free_plan(campaign)

    def test_skip_visit_ids_matches_drawing_them(self):
        drawn, skipped = build_world(scale=0.01, seed=3), build_world(scale=0.01, seed=3)
        for _ in range(5):
            drawn.network.next_visit_id()
        skipped.network.skip_visit_ids(5)
        skipped.network.skip_visit_ids(0)
        assert skipped.network.next_visit_id() == drawn.network.next_visit_id()

    @pytest.mark.parametrize("regime", ["spooled", "distributed"])
    def test_id_free_run_leaves_the_serial_counter_position(
        self, tmp_path, regime
    ):
        """A detection crawl in the per-task regime — with retried
        unreachable visits, retried and degraded timeouts and breaker
        skips — leaves the shared counter where the in-process serial
        run leaves it, with the same records."""
        retry = RetryPolicy(
            max_attempts=2, retry_unreachable=True,
            breaker_threshold=2, breaker_quarantine=1,
        )

        class TimingOut:
            def handle(self, request, visitor):
                raise ReproTimeoutError(f"{request.url.host} timed out")

        def run(**engine):
            world = build_world(scale=0.01, seed=3)
            flaky, *rest = world.crawl_targets
            world.network.register(flaky, TimingOut())
            dead = [d for d in rest if not world.sites[d].reachable][:3]
            live = [d for d in rest if world.sites[d].reachable][:20]
            plan = Crawler(world).plan_detection_crawl(
                ["DE", "SE", "USE", "BR", "AU"], [flaky, *dead, *live]
            )
            result = CrawlEngine(Crawler(world), retry=retry, **engine).execute(plan)
            return (
                [json.dumps(r.to_dict(), sort_keys=True) for r in result.records],
                [(o.index, o.error, o.attempts) for o in result.failures],
                world.network.next_visit_id(),
            )

        serial = run()
        records, failures, _ = serial
        attempts = {attempts for _, _, attempts in failures}
        assert {0, 2} <= attempts, "the plan must exercise breaker skips and retries"
        assert any('"reachable": false' in line for line in records)
        if regime == "spooled":
            assert run(spool_path=tmp_path / "crawl.jsonl") == serial
        else:
            assert run(workers=2, shards=4) == serial

    def test_context_products_match_pre_refactor_serial_path(self):
        """The engine-routed ExperimentContext reproduces the old ad-hoc
        loops byte-for-byte (same visit-id stream, same records)."""
        vps = ["DE", "USE"]
        repeats = 2

        # Reference: the pre-engine serial harness, hand-rolled.
        ref_world = build_world(scale=0.02, seed=7)
        ref_crawler = Crawler(ref_world)
        ref_records = []
        for vp in vps:
            for domain in ref_world.crawl_targets:
                ref_records.append(ref_crawler.visit(vp, domain))
        ref_crawl = CrawlResult(records=ref_records)
        walls = [
            d for d in ref_crawl.cookiewall_domains()
            if d in ref_world.wall_domains
        ]
        ref_wall_ms = [
            ref_crawler.measure_accept_cookies("DE", d, repeats=repeats)
            for d in walls
        ]
        pool = ref_crawl.regular_banner_domains("DE")
        rng = random.Random(1234)
        sample = rng.sample(pool, min(len(walls), len(pool)))
        ref_regular_ms = [
            ref_crawler.measure_accept_cookies("DE", d, repeats=repeats)
            for d in sample
        ]
        ref_ublock = [
            ref_crawler.measure_ublock("DE", d, iterations=repeats)
            for d in walls
        ]

        # Engine path: a fresh identical world through ExperimentContext.
        ctx = ExperimentContext(
            build_world(scale=0.02, seed=7), repeats=repeats, vps=vps
        )
        assert [r.to_dict() for r in ctx.iter_detection_records()] == [
            r.to_dict() for r in ref_records
        ]
        assert [m.to_dict() for m in ctx.iter_wall_measurements()] == [
            m.to_dict() for m in ref_wall_ms
        ]
        assert [m.to_dict() for m in ctx.iter_regular_measurements()] == [
            m.to_dict() for m in ref_regular_ms
        ]
        assert [r.to_dict() for r in ctx.iter_ublock_records()] == [
            r.to_dict() for r in ref_ublock
        ]


class TestRetryPolicy:
    class FlakyCrawler(Crawler):
        def __init__(self, world, fail_times):
            super().__init__(world)
            self.fail_times = fail_times
            self.calls = {}

        def run_task(self, task, context=None, *, visit_ids=None):
            seen = self.calls.get(task.domain, 0)
            self.calls[task.domain] = seen + 1
            if seen < self.fail_times:
                raise NetworkError("flaky backbone")
            return super().run_task(task, context, visit_ids=visit_ids)

    def test_transient_failure_retried(self, medium_world):
        crawler = self.FlakyCrawler(medium_world, fail_times=1)
        log = EventLog()
        engine = CrawlEngine(
            crawler, retry=RetryPolicy(max_attempts=3), event_log=log
        )
        plan = crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:2]
        )
        result = engine.execute(plan)
        assert not result.failures
        # One retry per task, after its first attempt: each succeeded on
        # its second.
        retries = log.by_kind("task-retry")
        assert sorted(e.detail["domain"] for e in retries) == sorted(
            medium_world.crawl_targets[:2]
        )
        assert [e.detail["attempt"] for e in retries] == [1, 1]

    def test_exhausted_retries_recorded_not_raised(self, medium_world):
        crawler = self.FlakyCrawler(medium_world, fail_times=10)
        engine = CrawlEngine(crawler, retry=RetryPolicy(max_attempts=2))
        plan = crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:2]
        )
        result = engine.execute(plan)
        assert len(result.failures) == 2
        assert all(o.error == "NetworkError" for o in result.failures)
        # Exhausted tasks degrade instead of vanishing: every plan
        # index still yields a (partial, flagged) record in the merge.
        assert len(result.records) == 2
        for record in result.records:
            assert record.flags.get("degraded") is True
            assert record.error == "NetworkError"
            assert not record.reachable

    def test_retry_unreachable_detection_visits(self, medium_world):
        dead = next(
            d for d, s in medium_world.sites.items() if not s.reachable
        )
        crawler = Crawler(medium_world)
        log = EventLog()
        engine = CrawlEngine(
            crawler,
            retry=RetryPolicy(max_attempts=3, retry_unreachable=True),
            event_log=log,
        )
        result = engine.execute(crawler.plan_detection_crawl(["DE"], [dead]))
        # Permanently dead site: retried to exhaustion (three attempts),
        # record kept, and not a failure.
        assert [e.detail["attempt"] for e in log.by_kind("task-retry")] == [1, 2]
        assert not result.failures
        (record,) = result.records
        assert not record.reachable

    def test_unreachable_not_retried_by_default(self, medium_world, medium_crawler):
        dead = next(
            d for d, s in medium_world.sites.items() if not s.reachable
        )
        log = EventLog()
        engine = CrawlEngine(medium_crawler, event_log=log)
        result = engine.execute(
            medium_crawler.plan_detection_crawl(["DE"], [dead])
        )
        assert not result.failures and result.record_count == 1
        assert log.by_kind("task-retry") == []


class TestEngineEvents:
    def test_event_stream(self, medium_world, medium_crawler):
        log = EventLog()
        engine = CrawlEngine(
            medium_crawler, workers=2, shards=4, event_log=log,
        )
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:30]
        )
        engine.execute(plan)
        (plan_event,) = log.by_kind("plan")
        assert plan_event.detail == {
            "tasks": 30, "shards": 4, "workers": 2,
            "backend": "distributed", "merge": "memory",
        }
        occupied = sum(1 for shard in plan.sharded(4) if shard)
        assert len(log.by_kind("shard")) == occupied
        progress = log.by_kind("progress")
        assert progress[-1].detail == {"done": 30, "total": 30}
        (throughput,) = log.by_kind("throughput")
        assert throughput.detail["tasks"] == 30
        assert throughput.detail["tasks_per_sec"] > 0


class TestSpool:
    def test_spool_finalised_in_plan_order(self, tmp_path, medium_world, medium_crawler):
        spool = tmp_path / "spool" / "records.jsonl"
        engine = CrawlEngine(
            medium_crawler, workers=2, shards=4, spool_path=spool
        )
        targets = medium_world.crawl_targets[:40]
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        result = engine.execute(plan)
        spooled = list(iter_records(spool))
        assert len(spooled) == len(result.records) == 40
        assert [r.to_dict() for r in spooled] == [
            r.to_dict() for r in result.records
        ]

    def test_spool_byte_identical_across_runs(self, tmp_path, medium_world, medium_crawler):
        targets = medium_world.crawl_targets[:30]
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            CrawlEngine(
                medium_crawler, workers=4, shards=8, spool_path=path
            ).execute(plan)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_output_path_run_streams_and_leaves_no_temp_files(
        self, tmp_path, medium_world, medium_crawler
    ):
        """A default engine with an output path spool-joins; its file
        equals the in-memory run's records saved, and nothing else is
        left in the directory."""
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:5]
        )
        spool = tmp_path / "out.jsonl"
        result = CrawlEngine(medium_crawler, spool_path=spool).execute(plan)
        assert result.spool_path == spool and result.held is None
        in_memory = CrawlEngine(medium_crawler).execute(plan)
        assert in_memory.spool_path is None and len(in_memory.held) == 5
        reference = tmp_path / "reference.jsonl"
        save_records(in_memory.records, reference)
        assert spool.read_bytes() == reference.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.jsonl", "reference.jsonl"
        ]

    def test_failed_run_preserves_previous_output(self, tmp_path, medium_world):
        class ExplodingCrawler(Crawler):
            def run_task(self, task, context=None, *, visit_ids=None):
                raise RuntimeError("boom")

        spool = tmp_path / "out.jsonl"
        spool.write_text("previous complete output\n")
        crawler = ExplodingCrawler(medium_world)
        engine = CrawlEngine(crawler, spool_path=spool)
        plan = crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:2]
        )
        with pytest.raises(RuntimeError):
            engine.execute(plan)
        assert spool.read_text() == "previous complete output\n"

    def test_spool_truncated_between_runs(self, tmp_path, medium_world, medium_crawler):
        spool = tmp_path / "records.jsonl"
        engine = CrawlEngine(medium_crawler, spool_path=spool)
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:5]
        )
        engine.execute(plan)
        engine.execute(plan)
        assert len(list(iter_records(spool))) == 5


class TestSpoolMerge:
    """The streaming k-way merge every run with a ``spool_path`` uses."""

    def test_streamed_result_and_bytes_match_memory(
        self, tmp_path, medium_world, medium_crawler
    ):
        targets = medium_world.crawl_targets[:40]
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        memory = tmp_path / "memory.jsonl"
        save_records(
            CrawlEngine(medium_crawler, workers=2, shards=4)
            .execute(plan).records,
            memory,
        )
        streamed = tmp_path / "streamed.jsonl"
        result = CrawlEngine(
            medium_crawler, workers=2, shards=4, spool_path=streamed,
        ).execute(plan)
        assert streamed.read_bytes() == memory.read_bytes()
        assert result.spool_path == streamed and result.held is None
        assert len(result) == 40
        assert result.record_count == 40
        assert result.failures == []
        # Lazy access still works, in plan order.
        assert [r.to_dict() for r in result.iter_records()] == [
            r.to_dict() for r in result.records
        ]
        # No part files left behind.
        leftovers = [
            p.name for p in tmp_path.iterdir()
            if p.name not in ("memory.jsonl", "streamed.jsonl")
        ]
        assert leftovers == []

    def test_failures_kept_in_memory_not_in_spool(
        self, tmp_path, medium_world
    ):
        class DeadCrawler(Crawler):
            def run_task(self, task, context=None, *, visit_ids=None):
                if shard_of(task.domain, 3) == 0:
                    raise NetworkError("dead uplink")
                return super().run_task(task, context, visit_ids=visit_ids)

        crawler = DeadCrawler(medium_world)
        targets = medium_world.crawl_targets[:30]
        dead = [d for d in targets if shard_of(d, 3) == 0]
        assert dead, "sample has no failing domains"
        plan = crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "partial-failures.jsonl"
        result = CrawlEngine(
            crawler, shards=4, spool_path=out,
            retry=RetryPolicy(max_attempts=1),
        ).execute(plan)
        assert len(result.failures) == len(dead)
        assert [o.task.domain for o in result.failures] == dead
        assert all(o.error == "NetworkError" for o in result.failures)
        # Failed tasks degrade to partial records, so the spool holds
        # one record per plan index — the failure list is the in-memory
        # side channel, not the only trace of the task.
        assert result.record_count == len(targets)
        spooled = list(iter_records(out))
        assert len(spooled) == len(targets)
        degraded = [r for r in spooled if r.flags.get("degraded")]
        assert sorted(r.domain for r in degraded) == sorted(dead)

    def test_stale_journal_from_crashed_run_is_ignored(
        self, tmp_path, medium_world, medium_crawler
    ):
        """A checkpoint orphaned by a crash must not leak into the next
        run's join unless that run resumes, and the run removes its own
        checkpoint."""
        targets = medium_world.crawl_targets[:20]
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "out.jsonl"
        stale = tmp_path / "out.jsonl.checkpoint"
        stale.write_text('{"kind": "outcome", "index": 0, "record": null}\n')
        result = CrawlEngine(
            medium_crawler, workers=2, shards=4, spool_path=out,
        ).execute(plan)
        assert result.record_count == 20
        assert len(list(iter_records(out))) == 20
        assert not stale.exists()

    def test_checkpointed_spool_run_encodes_each_record_once(
        self, tmp_path, monkeypatch, medium_world, medium_crawler
    ):
        """The checkpoint is the only file a spooled run writes before
        the join: each record is encoded once, and no per-shard file
        ever appears next to the output."""
        import repro.measure.engine as engine_mod

        encoded = []
        encode = engine_mod.encode_record_line
        monkeypatch.setattr(
            engine_mod, "encode_record_line",
            lambda record: encoded.append(record) or encode(record),
        )
        seen = set()
        session = Session(
            medium_world, engine=EngineSpec(workers=2, shards=4),
            crawler=medium_crawler,
            progress=lambda done, total, task: seen.update(
                p.name for p in tmp_path.iterdir()
            ),
        )
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:40]
        )
        result = session.execute(plan, spool_path=tmp_path / "out.jsonl")
        assert len(encoded) == result.record_count == 40
        assert "out.jsonl.checkpoint" in seen
        assert [name for name in seen if name.endswith(".part")] == []

    def test_concurrent_appends_keep_every_run(
        self, tmp_path, medium_world, medium_crawler
    ):
        """Many shards appending to one journal under a tiny switch
        interval: a lost run or a torn interleaving would change the
        joined bytes."""
        import sys

        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:64]
        )
        reference = tmp_path / "serial.jsonl"
        save_records(
            CrawlEngine(medium_crawler).execute(plan).records, reference
        )
        out = tmp_path / "out.jsonl"
        engine = CrawlEngine(
            medium_crawler, workers=8, shards=32, spool_path=out
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine.execute(plan)
        finally:
            sys.setswitchinterval(interval)
        assert out.read_bytes() == reference.read_bytes()
        occupied = sum(1 for shard in plan.sharded(32) if shard)
        assert len(engine._runs) == occupied

    def test_failed_run_leaves_only_its_checkpoint(
        self, tmp_path, medium_world
    ):
        """A spooled run that dies keeps its checkpoint (to resume
        from) and writes nothing else."""
        class ExplodingCrawler(Crawler):
            def run_task(self, task, context=None, *, visit_ids=None):
                raise RuntimeError("boom")

        crawler = ExplodingCrawler(medium_world)
        out = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            CrawlEngine(crawler, spool_path=out).execute(
                crawler.plan_detection_crawl(
                    ["DE"], medium_world.crawl_targets[:2]
                )
            )
        assert list(tmp_path.iterdir()) == [tmp_path / "out.jsonl.checkpoint"]
        (header,) = (tmp_path / "out.jsonl.checkpoint").read_text().splitlines()
        assert json.loads(header)["kind"] == "header"

    def test_backend_validation(self, medium_crawler):
        with pytest.raises(ValueError, match="unknown executor backend"):
            CrawlEngine(medium_crawler, backend="fiber")
        with pytest.raises(ValueError, match="contradicts workers"):
            CrawlEngine(medium_crawler, backend="serial", workers=2)


class TestProgressReporting:
    @staticmethod
    def _run(world, crawler, vps, count):
        calls = []
        Session(
            world, crawler=crawler,
            progress=lambda done, total, task: calls.append(
                (task.vp, done, total)
            ),
        ).execute(
            crawler.plan_detection_crawl(vps, world.crawl_targets[:count])
        )
        return calls

    def test_final_partial_batch_reports(self, medium_world, medium_crawler):
        """The session's hook fires per task, so even a short crawl
        reports its completion."""
        calls = self._run(medium_world, medium_crawler, ["DE"], 37)
        assert [(done, total) for _, done, total in calls] == [
            (done, 37) for done in range(1, 38)
        ]

    def test_batches_and_final_report(
        self, monkeypatch, medium_world, medium_crawler
    ):
        """``progress`` events are batched every ``PROGRESS_EVERY``
        tasks, with one more for the final partial batch."""
        import repro.measure.engine as engine_mod

        monkeypatch.setattr(engine_mod, "PROGRESS_EVERY", 10)
        log = EventLog()
        CrawlEngine(medium_crawler, event_log=log).execute(
            medium_crawler.plan_detection_crawl(
                ["DE"], medium_world.crawl_targets[:25]
            )
        )
        assert [
            (e.detail["done"], e.detail["total"])
            for e in log.by_kind("progress")
        ] == [(10, 25), (20, 25), (25, 25)]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the patched entry point only under fork",
    )
    def test_raising_hook_cancels_queued_process_shards(
        self, tmp_path, monkeypatch, medium_world, medium_crawler
    ):
        """A progress hook that raises (the service's cancel) stops a
        parallel run: the shards no worker has started are cancelled,
        not run to the end of the plan."""
        # The worker loop calls the entry point it imported by name.
        import repro.distributed.worker as worker_mod

        started = tmp_path / "started"
        monkeypatch.setitem(_BUNDLE_LOG, "path", str(started))
        monkeypatch.setattr(
            worker_mod, "_run_shard_bundle", _logged_shard_bundle
        )

        class Cancelled(Exception):
            pass

        def cancel(done, total, task):
            raise Cancelled

        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:400]
        )
        engine = CrawlEngine(
            medium_crawler, workers=2, shards=40, backend="distributed",
            progress=cancel,
        )
        with pytest.raises(Cancelled):
            engine.execute(plan)
        executed = sum(int(n) for n in started.read_text().split())
        assert 0 < executed < len(plan)

    def test_crawl_all_reports_per_vp(self, medium_world, medium_crawler):
        """Every call names its task, so per-VP progress needs no
        adapter: a serial multi-VP crawl reports vp-major."""
        calls = self._run(medium_world, medium_crawler, ["DE", "USE"], 15)
        assert [vp for vp, _, _ in calls] == ["DE"] * 15 + ["USE"] * 15
        assert [done for _, done, _ in calls] == list(range(1, 31))


class TestCheckpointResume:
    WORKERS, SHARDS = 4, 8

    def _targets(self, world, count=60):
        return world.crawl_targets[:count]

    def _crash(self, crawler, plan, out, *, partial=False,
               fail_shards=(1, 3, 5)):
        """Run *plan* under fault injection; returns the engine."""
        engine = CrawlEngine(
            crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out,
            executor=FaultInjectingExecutor(fail_shards, partial=partial),
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            engine.execute(plan)
        return engine

    def test_killed_parallel_run_resumes_byte_identical_to_serial(
        self, tmp_path, medium_world, medium_crawler
    ):
        """The acceptance criterion: a workers=4/shards=8 run killed
        mid-execution and resumed produces a final JSONL byte-identical
        to an uninterrupted clean serial run."""
        targets = self._targets(medium_world)
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)

        reference = tmp_path / "serial.jsonl"
        CrawlEngine(medium_crawler, spool_path=reference).execute(plan)

        out = tmp_path / "parallel.jsonl"
        checkpoint = tmp_path / "parallel.jsonl.checkpoint"
        self._crash(medium_crawler, plan, out)
        assert checkpoint.exists()
        assert not out.exists()  # the final file is never half-written

        log = EventLog()
        engine = CrawlEngine(
            medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True,
            event_log=log,
        )
        result = engine.execute(plan)
        assert result.resumed > 0
        survivors = {
            d for d in targets
            if shard_of(d, self.SHARDS) not in (1, 3, 5)
        }
        assert result.resumed == len(survivors)
        assert out.read_bytes() == reference.read_bytes()
        assert not checkpoint.exists()  # consumed on success
        (resume_event,) = log.by_kind("resume")
        assert resume_event.detail == {
            "completed": result.resumed,
            "remaining": len(targets) - result.resumed,
        }

    def test_mid_shard_kill_loses_only_unfinished_tail(
        self, tmp_path, medium_world, medium_crawler
    ):
        """A shard killed halfway keeps its checkpointed first half;
        resume re-runs only the tail and the merge is still identical."""
        targets = self._targets(medium_world)
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        reference = tmp_path / "serial.jsonl"
        CrawlEngine(medium_crawler, spool_path=reference).execute(plan)

        out = tmp_path / "resumed.jsonl"
        self._crash(medium_crawler, plan, out, partial=True)
        result = CrawlEngine(
            medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True,
        ).execute(plan)
        # More than just the untouched shards were replayed: the killed
        # shards' first halves survived in the checkpoint too.
        untouched = sum(
            1 for d in targets if shard_of(d, self.SHARDS) not in (1, 3, 5)
        )
        assert result.resumed > untouched
        assert out.read_bytes() == reference.read_bytes()

    def test_parallel_cookie_measurements_resume_identically(
        self, tmp_path, medium_world, medium_crawler
    ):
        """Visit-id-consuming measurements also survive a crash: the
        per-task id streams make the resumed run byte-identical to the
        uninterrupted checkpointed run."""
        domains = sorted(medium_world.wall_domains)[:8]
        plan = medium_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        reference = tmp_path / "uninterrupted.jsonl"
        CrawlEngine(
            medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=reference,
        ).execute(plan)

        out = tmp_path / "resumed.jsonl"
        self._crash(medium_crawler, plan, out, fail_shards=(0, 2))
        result = CrawlEngine(
            medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True,
        ).execute(plan)
        assert len(result.records) == len(domains)
        assert out.read_bytes() == reference.read_bytes()

    def test_serial_checkpointed_run_matches_parallel(
        self, tmp_path, medium_world, medium_crawler
    ):
        """Checkpointing forces per-task id streams even when serial,
        so a serial checkpointed spool equals the parallel one."""
        domains = sorted(medium_world.wall_domains)[:4]
        plan = medium_crawler.plan_cookie_measurements(
            "DE", domains, mode="accept", repeats=2
        )
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        CrawlEngine(
            medium_crawler, spool_path=serial,
        ).execute(plan)
        CrawlEngine(
            medium_crawler, workers=4, shards=8, spool_path=parallel,
        ).execute(plan)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_fingerprint_mismatch_refused(
        self, tmp_path, medium_world, medium_crawler
    ):
        targets = self._targets(medium_world, 40)
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "out.jsonl"
        self._crash(medium_crawler, plan, out)

        # A different plan (fewer targets) must be refused...
        other = medium_crawler.plan_detection_crawl(["DE"], targets[:10])
        engine = CrawlEngine(
            medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True,
        )
        with pytest.raises(CheckpointMismatch, match="refusing to resume"):
            engine.execute(other)
        # ...and so must the same plan against a different world seed.
        other_crawler = Crawler(build_world(scale=0.05, seed=8))
        engine = CrawlEngine(
            other_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True,
        )
        with pytest.raises(CheckpointMismatch):
            engine.execute(plan)

    def test_resume_without_checkpoint_starts_fresh(
        self, tmp_path, medium_world, medium_crawler
    ):
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], self._targets(medium_world, 10)
        )
        out = tmp_path / "fresh.jsonl"
        result = CrawlEngine(
            medium_crawler, spool_path=out, resume=True,
        ).execute(plan)
        assert result.resumed == 0
        assert len(result.records) == 10

    def test_torn_checkpoint_line_reruns_that_task(
        self, tmp_path, medium_world, medium_crawler
    ):
        """A writer killed mid-append leaves a torn outcome line; the
        resume replays every complete line and re-runs the torn one."""
        targets = self._targets(medium_world, 20)
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "torn.jsonl"
        checkpoint = tmp_path / "torn.jsonl.checkpoint"
        self._crash(medium_crawler, plan, out)
        whole = checkpoint.read_text(encoding="utf-8")
        lines = whole.splitlines(keepends=True)
        complete_outcomes = len(lines) - 1  # minus the header
        checkpoint.write_text(
            "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="torn trailing line"):
            result = CrawlEngine(
                medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
                spool_path=out, resume=True,
            ).execute(plan)
        assert result.resumed == complete_outcomes - 1
        reference = tmp_path / "serial.jsonl"
        CrawlEngine(medium_crawler, spool_path=reference).execute(plan)
        assert out.read_bytes() == reference.read_bytes()

    def test_failed_outcomes_are_checkpointed_and_replayed(self, tmp_path):
        """Permanent failures are part of the checkpoint too: a resume
        must not re-run tasks that already failed their retries."""
        world = build_world(scale=0.02, seed=7)

        class DeadCrawler(Crawler):
            def __init__(self, inner_world):
                super().__init__(inner_world)
                self.calls = 0

            def run_task(self, task, context=None, *, visit_ids=None):
                self.calls += 1
                raise NetworkError("永 unreachable")

        crawler = DeadCrawler(world)
        # Three domains per shard, so both the surviving and the killed
        # shard are non-empty whatever the world's domain names hash to.
        targets = [
            d for d in world.crawl_targets if shard_of(d, 2) == 0
        ][:3] + [
            d for d in world.crawl_targets if shard_of(d, 2) == 1
        ][:3]
        plan = crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "dead.jsonl"
        # Shard 1 is killed before running; shard 0's tasks all *fail*
        # (NetworkError, retries exhausted) and checkpoint as failures.
        engine = CrawlEngine(
            crawler, retry=RetryPolicy(max_attempts=1),
            spool_path=out,
            executor=FaultInjectingExecutor((1,)),
            shards=2,
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            engine.execute(plan)
        shard0 = sum(1 for d in targets if shard_of(d, 2) == 0)
        assert crawler.calls == shard0
        calls_before = crawler.calls

        resumed = CrawlEngine(
            crawler, retry=RetryPolicy(max_attempts=1),
            spool_path=out, resume=True, shards=2,
        ).execute(plan)
        # Only the killed shard re-ran; the failed outcomes replayed.
        assert crawler.calls == calls_before + (len(targets) - shard0)
        assert resumed.resumed == shard0
        assert [o.error for o in resumed.failures] == [
            "NetworkError"
        ] * len(targets)

    def test_plan_fingerprint_stability(self, medium_crawler):
        plan = medium_crawler.plan_cookie_measurements(
            "DE", ["a.de", "b.de"], mode="accept", repeats=2
        )
        base = plan_fingerprint(plan, world_seed=7)
        assert plan_fingerprint(plan, world_seed=7) == base
        assert plan_fingerprint(plan, world_seed=8) != base
        assert plan_fingerprint(plan, world_seed=7, world_evolution=4) != base
        reordered = CrawlPlan(tasks=list(reversed(plan.tasks)))
        assert plan_fingerprint(reordered, world_seed=7) != base
        # Pinned: checkpoints written while the visit-id regime was a
        # fingerprint argument keep their fingerprints, so they resume.
        pinned = CrawlPlan(
            tasks=[
                CrawlTask("DE", "a.de", "accept", 2),
                CrawlTask("DE", "b.de", "accept", 2),
            ],
            context={"smp": 1},
        )
        assert plan_fingerprint(
            pinned, world_seed=7, world_scale=0.05, world_evolution=3
        ) == "fefbe0e43d8f6ebb"

    def test_evolved_world_cannot_resume_baseline_checkpoint(
        self, tmp_path, medium_world, medium_crawler
    ):
        """Two snapshots share a seed but not a web: a checkpoint from
        the baseline must be refused by the evolved world's crawl."""
        from repro.webgen.evolve import evolve_world

        targets = self._targets(medium_world, 40)
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "baseline.jsonl"
        self._crash(medium_crawler, plan, out)

        evolved, _ = evolve_world(medium_world, months=4)
        engine = CrawlEngine(
            Crawler(evolved), workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True,
        )
        with pytest.raises(CheckpointMismatch):
            engine.execute(
                Crawler(evolved).plan_detection_crawl(["DE"], targets)
            )

    def test_resume_without_checkpoint_path_rejected(self, medium_crawler):
        with pytest.raises(ValueError, match="requires a spool_path"):
            CrawlEngine(medium_crawler, resume=True)

    def test_corrupt_checkpoint_refused_not_crashed(
        self, tmp_path, medium_world, medium_crawler
    ):
        """Mid-file garbage or malformed outcome lines surface as
        CheckpointMismatch (the CLI's friendly exit), not a traceback."""
        targets = self._targets(medium_world, 20)
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "c.jsonl"
        checkpoint = tmp_path / "c.jsonl.checkpoint"
        self._crash(medium_crawler, plan, out)

        lines = checkpoint.read_text(encoding="utf-8").splitlines()
        # Garbage in the middle of the file (not a torn final line).
        checkpoint.write_text(
            "\n".join([lines[0], "{not json", *lines[1:]]) + "\n",
            encoding="utf-8",
        )
        engine = CrawlEngine(
            medium_crawler, spool_path=out, resume=True,
        )
        with pytest.raises(CheckpointMismatch, match="corrupt checkpoint"):
            engine.execute(plan)

        # An outcome line missing its index is malformed, not fatal.
        self._crash(medium_crawler, plan, out)
        lines = checkpoint.read_text(encoding="utf-8").splitlines()
        checkpoint.write_text(
            "\n".join([lines[0], '{"kind": "outcome"}', *lines[1:]]) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CheckpointMismatch, match="corrupt checkpoint"):
            CrawlEngine(
                medium_crawler, spool_path=out, resume=True,
            ).execute(plan)

    def test_throughput_counts_executed_not_replayed(
        self, tmp_path, medium_world, medium_crawler
    ):
        """A 50%-resumed run must not report double the real rate."""
        targets = self._targets(medium_world)
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "t.jsonl"
        self._crash(medium_crawler, plan, out)
        log = EventLog()
        result = CrawlEngine(
            medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True, event_log=log,
        ).execute(plan)
        assert result.executed == len(targets) - result.resumed
        assert result.tasks_per_sec == pytest.approx(
            result.executed / result.elapsed
        )
        (throughput,) = log.by_kind("throughput")
        assert throughput.detail["tasks"] == result.executed
        assert throughput.detail["resumed"] == result.resumed


class TestUBlockErrorTracking:
    def test_unreachable_site_not_reported_suppressed(
        self, medium_world, medium_crawler
    ):
        dead = next(
            d for d, s in medium_world.sites.items() if not s.reachable
        )
        record = medium_crawler.measure_ublock("DE", dead, iterations=2)
        assert record.errors == 2
        assert record.wall_seen_count == 0
        assert not record.suppressed

    def test_reachable_smp_wall_still_suppressed(
        self, medium_world, medium_crawler
    ):
        smp_wall = next(
            d for d in sorted(medium_world.wall_domains)
            if medium_world.sites[d].wall.serving == "smp"
        )
        record = medium_crawler.measure_ublock("DE", smp_wall, iterations=2)
        assert record.errors == 0
        assert record.suppressed


class TestCheckpointCompaction:
    """Every resume starts by compacting the checkpoint it resumes."""

    WORKERS, SHARDS = 4, 8

    def _crashed_checkpoint(self, tmp_path, crawler, plan):
        out = tmp_path / "records.jsonl"
        engine = CrawlEngine(
            crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out,
            executor=FaultInjectingExecutor((1, 3, 5), partial=True),
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            engine.execute(plan)
        return out, tmp_path / "records.jsonl.checkpoint"

    def _resumer(self, crawler, out):
        return CrawlEngine(
            crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=out, resume=True,
        )

    def test_compacted_checkpoint_resumes_byte_identical(
        self, tmp_path, medium_world, medium_crawler
    ):
        targets = medium_world.crawl_targets[:60]
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        reference = tmp_path / "clean.jsonl"
        CrawlEngine(
            medium_crawler, workers=self.WORKERS, shards=self.SHARDS,
            spool_path=reference,
        ).execute(plan)

        out, checkpoint = self._crashed_checkpoint(
            tmp_path, medium_crawler, plan
        )
        # Append-only growth by hand: the first outcome line twice more,
        # the last copy with another attempt count (a superseding line).
        lines = checkpoint.read_text().splitlines()
        header, first_outcome = lines[0], lines[1]
        index = json.loads(first_outcome)["index"]
        superseding = json.dumps(dict(json.loads(first_outcome), attempts=7))
        with checkpoint.open("a") as handle:
            handle.write(first_outcome + "\n")
            handle.write(superseding + "\n")

        completed, _ = self._resumer(medium_crawler, out)._reconcile_checkpoint(plan)
        rewritten = checkpoint.read_text().splitlines()
        # The header survives verbatim; one line per task, the latest wins.
        assert rewritten[0] == header
        assert len(rewritten) == len(lines) == len(completed) + 1
        latest = [json.loads(line) for line in rewritten[1:]]
        assert [o["attempts"] for o in latest if o["index"] == index] == [7]

        result = self._resumer(medium_crawler, out).execute(plan)
        assert result.resumed == len(completed)
        assert out.read_bytes() == reference.read_bytes()

    def test_compaction_is_idempotent(
        self, tmp_path, medium_world, medium_crawler
    ):
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:40]
        )
        out, checkpoint = self._crashed_checkpoint(
            tmp_path, medium_crawler, plan
        )
        first = self._resumer(medium_crawler, out)._reconcile_checkpoint(plan)
        before = checkpoint.read_bytes()
        second = self._resumer(medium_crawler, out)._reconcile_checkpoint(plan)
        assert second == first
        assert checkpoint.read_bytes() == before

    def test_outcomes_sorted_into_plan_order(
        self, tmp_path, medium_world, medium_crawler
    ):
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:40]
        )
        out, checkpoint = self._crashed_checkpoint(
            tmp_path, medium_crawler, plan
        )
        self._resumer(medium_crawler, out)._reconcile_checkpoint(plan)
        indices = [
            json.loads(line)["index"]
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert indices == sorted(indices)

    def test_refuses_non_checkpoint_files(
        self, tmp_path, medium_world, medium_crawler
    ):
        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:8]
        )
        out = tmp_path / "records.jsonl"
        for text in ('{"type": "VisitRecord", "data": {}}\n', ""):
            (tmp_path / "records.jsonl.checkpoint").write_text(text)
            with pytest.raises(CheckpointMismatch, match="not a crawl checkpoint"):
                self._resumer(medium_crawler, out).execute(plan)


class TestStreamingReconcileMachinery:
    """The run-scan + k-way merge of the compacting rewrite every
    resume starts with."""

    @staticmethod
    def _outcome(index, attempts=1):
        return (
            '{"kind": "outcome", "index": %d, "attempts": %d, '
            '"error": null, "record": null}' % (index, attempts)
        )

    def _checkpoint(self, tmp_path, lines):
        path = tmp_path / "machinery.checkpoint"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_scan_finds_sorted_runs_and_index_set(self, tmp_path):
        from repro.measure.engine import _scan_checkpoint

        path = self._checkpoint(tmp_path, [
            '{"kind": "header", "version": 1, "fingerprint": "f"}',
            self._outcome(0),
            self._outcome(3),
            self._outcome(1),   # index <= prev: a new run starts here
            self._outcome(3, attempts=2),
            self._outcome(5),
        ])
        scan = _scan_checkpoint(path)
        assert len(scan.runs) == 2
        assert scan.indices == {0, 1, 3, 5}
        assert scan.header["fingerprint"] == "f"

    def test_merge_is_plan_ordered_and_latest_wins(self, tmp_path):
        from repro.measure.engine import _scan_checkpoint
        from repro.measure.storage import iter_journal_runs

        path = self._checkpoint(tmp_path, [
            '{"kind": "header", "version": 1, "fingerprint": "f"}',
            self._outcome(0),
            self._outcome(3),
            self._outcome(1),
            self._outcome(3, attempts=2),
            self._outcome(5),
        ])
        merged = list(iter_journal_runs(path, _scan_checkpoint(path).runs))
        assert [index for index, _, _ in merged] == [0, 1, 3, 5]
        payloads = {index: payload for index, payload, _ in merged}
        # The later run's outcome supersedes the earlier duplicate.
        assert payloads[3]["attempts"] == 2

    def test_scan_excludes_torn_trailing_line(self, tmp_path):
        from repro.measure.engine import _scan_checkpoint
        from repro.measure.storage import TornRecordWarning, iter_journal_runs

        path = self._checkpoint(tmp_path, [
            '{"kind": "header", "version": 1, "fingerprint": "f"}',
            self._outcome(0),
            self._outcome(2),
            '{"kind": "outcome", "index": 4, "att',  # torn final write
        ])
        with pytest.warns(TornRecordWarning, match="torn trailing line"):
            scan = _scan_checkpoint(path)
        assert scan.indices == {0, 2}
        merged = list(iter_journal_runs(path, scan.runs))
        assert [index for index, _, _ in merged] == [0, 2]

    def test_scan_rejects_mid_file_garbage(self, tmp_path):
        from repro.measure.engine import _scan_checkpoint

        path = self._checkpoint(tmp_path, [
            '{"kind": "header", "version": 1, "fingerprint": "f"}',
            "{not json",
            self._outcome(1),
        ])
        with pytest.raises(ValueError, match="invalid JSON mid-file"):
            _scan_checkpoint(path)

    def test_spool_resume_streams_replay_without_holding_outcomes(
        self, tmp_path, medium_world, medium_crawler
    ):
        """The resume path's memory contract: under the spool merge the
        reconcile returns only the completed index set — the replayed
        records stay in the rewritten checkpoint, one run the join
        reads."""
        targets = medium_world.crawl_targets[:40]
        plan = medium_crawler.plan_detection_crawl(["DE"], targets)
        out = tmp_path / "streamed.jsonl"
        checkpoint = tmp_path / "streamed.jsonl.checkpoint"
        engine = CrawlEngine(
            medium_crawler, workers=4, shards=8,
            spool_path=out,
            executor=FaultInjectingExecutor((1, 4), partial=True),
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            engine.execute(plan)

        resumer = CrawlEngine(
            medium_crawler, workers=4, shards=8,
            spool_path=out, resume=True,
        )
        completed, _ = resumer._reconcile_checkpoint(plan)
        assert completed and all(isinstance(i, int) for i in completed)
        # The rewritten outcomes are the journal's first run.
        ((start, stop),) = resumer._runs
        replay_lines = checkpoint.read_bytes()[start:stop].splitlines()
        assert len(replay_lines) == len(completed)
        # The rewritten checkpoint is canonical: header + plan-ordered
        # unique outcomes, ready for the next append or resume.
        import json as _json

        indices = [
            _json.loads(line)["index"]
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert indices == sorted(indices)
        assert set(indices) == completed
        assert len(indices) == len(completed)
