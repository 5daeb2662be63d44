"""The resilience layer: virtual time, backoff, breakers, degradation.

Unit coverage for :mod:`repro.resilience` plus the engine-level
contracts it exists for — no real sleeping anywhere, no task ever
silently lost, breaker state observable through events and restorable
from snapshots.  The chaos differential oracle itself lives in
``test_chaos.py``; this module pins the building blocks it composes.
"""

import time

import pytest

from repro.analysis import StreamingFailureTaxonomy
from repro.errors import (
    BreakerOpenError,
    DeadlineExceeded,
    DNSFlapError,
    NavigationError,
    ParseError,
    TimeoutError,
    error_category,
    is_transient,
)
from repro.measure import CrawlEngine, Crawler, RetryPolicy
from repro.measure.engine import CrawlTask, chaos_plan
from repro.measure.instrumentation import EventLog
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.chaos import ChaosSpec
from repro.resilience.clock import TaskMeter, VirtualClock, active_meter, spend
from repro.resilience.degrade import degraded_record


# ---------------------------------------------------------------------------
# Virtual time
# ---------------------------------------------------------------------------

class TestVirtualClock:
    def test_advances_without_sleeping(self):
        clock = VirtualClock()
        started = time.perf_counter()
        clock.sleep(3600.0)
        assert time.perf_counter() - started < 1.0
        assert clock.now() == 3600.0

    def test_ignores_non_positive(self):
        clock = VirtualClock()
        clock.advance(0.0)
        clock.advance(-5.0)
        assert clock.now() == 0.0

    def test_spend_charges_clock_and_active_meter(self):
        clock = VirtualClock()
        meter = TaskMeter()
        with active_meter(meter):
            spend(clock, 2.5)
        spend(clock, 1.0)  # no meter active: clock-only
        assert clock.now() == 3.5
        assert meter.cost == 2.5

    def test_spend_enforces_attempt_deadline(self):
        clock = VirtualClock()
        meter = TaskMeter(attempt_deadline=5.0)
        with active_meter(meter):
            spend(clock, 4.0)
            with pytest.raises(TimeoutError, match="virtual deadline"):
                spend(clock, 2.0)
            # A fresh attempt gets a fresh budget.
            meter.begin_attempt()
            spend(clock, 4.0)
        assert meter.cost == 10.0

    def test_meter_attempt_cost_resets_per_attempt(self):
        meter = TaskMeter()
        meter.begin_attempt()
        meter.charge(3.0)
        assert meter.attempt_cost == 3.0
        meter.begin_attempt()
        assert meter.attempt_cost == 0.0
        assert meter.cost == 3.0

    def test_active_meter_nests_and_restores(self):
        outer, inner = TaskMeter(), TaskMeter()
        clock = VirtualClock()
        with active_meter(outer):
            with active_meter(inner):
                spend(clock, 1.0)
            spend(clock, 1.0)
        assert inner.cost == 1.0
        assert outer.cost == 1.0


# ---------------------------------------------------------------------------
# Backoff schedule
# ---------------------------------------------------------------------------

class TestBackoffDelay:
    TASK = CrawlTask(vp="DE", domain="example.com")

    def test_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_delay(self.TASK, 1) == policy.backoff_delay(
            self.TASK, 1
        )

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, jitter=0.5)
        for attempt in (1, 2, 3):
            base = min(1.0 * 2.0 ** (attempt - 1), policy.backoff_max)
            delay = policy.backoff_delay(self.TASK, attempt)
            assert base * 0.5 <= delay <= base

    def test_caps_at_backoff_max(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=10.0, backoff_max=4.0, jitter=0.0
        )
        assert policy.backoff_delay(self.TASK, 5) == 4.0

    def test_zero_base_disables_backoff(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.backoff_delay(self.TASK, 3) == 0.0

    def test_jitter_varies_across_tasks_not_within(self):
        policy = RetryPolicy(jitter=1.0)
        other = CrawlTask(vp="USE", domain="other.org")
        assert policy.backoff_delay(self.TASK, 1) != policy.backoff_delay(
            other, 1
        )


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("a.com", threshold=3, quarantine=2)
        assert breaker.record(False) is None
        assert breaker.record(False) is None
        assert breaker.record(False) == "open"
        assert breaker.state == OPEN

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("a.com", threshold=2, quarantine=1)
        breaker.record(False)
        breaker.record(True)
        assert breaker.record(False) is None
        assert breaker.state == CLOSED

    def test_quarantine_then_half_open_probe(self):
        breaker = CircuitBreaker("a.com", threshold=1, quarantine=2)
        breaker.record(False)
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker("a.com", threshold=1, quarantine=1)
        breaker.record(False)
        breaker.allow()
        breaker.allow()
        assert breaker.record(True) == "close"
        assert breaker.state == CLOSED
        assert breaker.consecutive == 0

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker("a.com", threshold=2, quarantine=1)
        breaker.record(False)
        breaker.record(False)
        breaker.allow()
        breaker.allow()
        assert breaker.record(False) == "open"
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_snapshot_adopt_round_trip(self):
        breaker = CircuitBreaker("a.com", threshold=2, quarantine=3)
        breaker.record(False)
        breaker.record(False)
        breaker.allow()
        snapshot = breaker.snapshot()
        clone = CircuitBreaker(
            "a.com", threshold=2, quarantine=3, snapshot=snapshot
        )
        assert clone.state == breaker.state
        assert clone.consecutive == breaker.consecutive
        assert clone.skipped == breaker.skipped
        assert clone.snapshot() == snapshot

    def test_adopt_rejects_unknown_state(self):
        breaker = CircuitBreaker("a.com", threshold=1, quarantine=1)
        with pytest.raises(ValueError, match="unknown breaker state"):
            breaker.adopt({"state": "melted"})

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0, "quarantine": 1},
        {"threshold": 1, "quarantine": 0},
    ])
    def test_invalid_policy_refused(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker("a.com", **kwargs)


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class TestErrorTaxonomy:
    def test_is_transient_walks_the_cause_chain(self):
        try:
            try:
                raise TimeoutError("hung")
            except TimeoutError as exc:
                raise NavigationError("visit failed") from exc
        except NavigationError as wrapped:
            assert is_transient(wrapped)
        assert not is_transient(NavigationError("plain"))
        assert is_transient(DNSFlapError("flap"))
        assert not is_transient(ParseError("bad html"))

    def test_error_category(self):
        assert error_category("TimeoutError") == "transient"
        assert error_category("TruncatedResponseError") == "transient"
        assert error_category("BreakerOpenError") == "permanent"
        assert error_category("DeadlineExceeded") == "permanent"
        assert error_category("SomethingFromTheFuture") == "unknown"

    def test_breaker_and_deadline_errors_exist(self):
        # The degraded-record taxonomy names these classes literally.
        assert issubclass(BreakerOpenError, Exception)
        assert issubclass(DeadlineExceeded, Exception)


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

class TestDegradedRecords:
    def test_detect_mode(self):
        task = CrawlTask(vp="DE", domain="a.com", mode="detect")
        record = degraded_record(task, "TimeoutError")
        assert record.vp == "DE"
        assert record.domain == "a.com"
        assert record.reachable is False
        assert record.error == "TimeoutError"
        assert record.flags.get("degraded") is True

    @pytest.mark.parametrize("mode", ["accept", "reject", "subscription"])
    def test_cookie_modes(self, mode):
        task = CrawlTask(vp="SE", domain="b.com", mode=mode, repeats=3)
        record = degraded_record(task, "DeadlineExceeded")
        assert record.mode == mode
        assert record.repeats == 0
        assert record.error == "DeadlineExceeded"

    def test_ublock_mode(self):
        task = CrawlTask(vp="DE", domain="c.com", mode="ublock")
        record = degraded_record(task, "BreakerOpenError")
        assert record.error == "BreakerOpenError"

    def test_deterministic_bytes(self):
        from repro.measure.storage import encode_record_line

        task = CrawlTask(vp="DE", domain="a.com", mode="detect")
        assert encode_record_line(
            degraded_record(task, "TimeoutError")
        ) == encode_record_line(degraded_record(task, "TimeoutError"))


# ---------------------------------------------------------------------------
# Failure taxonomy aggregation
# ---------------------------------------------------------------------------

class TestStreamingFailureTaxonomy:
    def _records(self):
        return [
            degraded_record(
                CrawlTask(vp="DE", domain="a.com"), "TimeoutError"
            ),
            degraded_record(
                CrawlTask(vp="DE", domain="b.com"), "TimeoutError"
            ),
            degraded_record(
                CrawlTask(vp="USE", domain="c.com"), "BreakerOpenError"
            ),
            degraded_record(
                CrawlTask(vp="DE", domain="d.com", mode="ublock"),
                "DNSFlapError",
            ),
        ]

    def test_counts_and_categories(self):
        from repro.measure.records import VisitRecord

        tax = StreamingFailureTaxonomy().consume(self._records())
        tax.add(VisitRecord(vp="DE", domain="ok.com", reachable=True))
        assert tax.total == 5
        assert tax.degraded == 4
        top = tax.rows()[0]
        assert (top["vp"], top["error"], top["count"]) == (
            "DE", "TimeoutError", 2
        )
        assert tax.by_category() == {"transient": 3, "permanent": 1}
        # uBlock records carry no vantage point.
        assert {"-"} == {
            row["vp"] for row in tax.rows() if row["error"] == "DNSFlapError"
        }

    def test_wave_suffix_and_render(self):
        tax = StreamingFailureTaxonomy()
        tax.add(
            degraded_record(
                CrawlTask(vp="DE", domain="a.com"), "TimeoutError"
            ),
            wave=3,
        )
        assert tax.rows()[0]["vp"] == "DE/wave-03"
        table = tax.render()
        assert "1/1 records degraded" in table
        assert "transient" in table

    def test_empty_render(self):
        assert "(no degraded records)" in StreamingFailureTaxonomy().render()


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

#: Six vantage points over one domain: enough same-shard tasks to walk
#: a breaker through open → quarantine → half-open.
VPS = ["AU", "BR", "DE", "IN", "SE", "USE"]


@pytest.fixture(scope="module")
def resilience_crawler(small_world):
    return Crawler(small_world)


class TestEngineResilience:
    def test_virtual_latency_never_sleeps(self, small_world):
        """Satellite contract: the default latency mode pays simulated
        seconds on the virtual clock, so a 2s-per-request crawl still
        finishes in wall-clock milliseconds."""
        crawler = Crawler(small_world)
        crawler.world.network.latency = 2.0
        assert crawler.world.network.latency_mode == "virtual"
        before = crawler.world.network.clock.now()
        plan = crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:4]
        )
        started = time.perf_counter()
        try:
            result = CrawlEngine(crawler).execute(plan)
        finally:
            crawler.world.network.latency = 0.0
        assert len(result) == 4
        assert time.perf_counter() - started < 30.0
        # Every request paid its 2 virtual seconds.
        advanced = crawler.world.network.clock.now() - before
        assert advanced >= 2.0 * 4

    def test_no_task_silently_lost_under_faults(self, resilience_crawler):
        """Satellite contract: exhausted retries emit degraded records
        into the merge — record count always equals plan size."""
        world = resilience_crawler.world
        targets = world.crawl_targets[:6]
        plan = resilience_crawler.plan_detection_crawl(["DE"], targets)
        plan.context["chaos"] = ChaosSpec(
            seed=5, timeout_rate=1.0, permanent_rate=1.0
        ).to_context()
        log = EventLog()
        result = CrawlEngine(
            resilience_crawler,
            retry=RetryPolicy(max_attempts=2),
            event_log=log,
        ).execute(plan)
        assert result.record_count == len(plan)
        assert len(result.failures) == len(plan)
        for record in result.records:
            assert record.flags.get("degraded") is True
            assert record.error == "TimeoutError"
        degraded_events = log.by_kind("task-degraded")
        assert len(degraded_events) == len(plan)
        assert all(
            e.detail["error"] == "TimeoutError" for e in degraded_events
        )

    def test_breaker_quarantines_a_failing_domain(self, resilience_crawler):
        """threshold=2/quarantine=2 over six same-domain tasks: two real
        failures open the breaker, two skips, a failing half-open probe
        re-opens, one more skip."""
        world = resilience_crawler.world
        domain = world.crawl_targets[0]
        plan = resilience_crawler.plan_detection_crawl(VPS, [domain])
        plan.context["chaos"] = ChaosSpec(
            seed=11, timeout_rate=1.0, permanent_rate=1.0
        ).to_context()
        log = EventLog()
        engine = CrawlEngine(
            resilience_crawler,
            retry=RetryPolicy(
                max_attempts=2, breaker_threshold=2, breaker_quarantine=2
            ),
            event_log=log,
        )
        result = engine.execute(plan)
        failed = [(o.index, o.error, o.attempts) for o in result.failures]
        assert failed == [
            (0, "TimeoutError", 2), (1, "TimeoutError", 2),  # streak opens it
            (2, "BreakerOpenError", 0), (3, "BreakerOpenError", 0),  # skips
            (4, "TimeoutError", 2),                   # half-open probe fails
            (5, "BreakerOpenError", 0),               # re-opened: skip again
        ]
        # Every task, skipped or failed, still yields a degraded record.
        assert result.record_count == len(plan) == 6
        assert len(log.by_kind("breaker-open")) == 2
        assert engine._breakers[domain].state == OPEN

    def test_breaker_close_event_on_recovery(self, small_world):
        """A half-open probe that succeeds closes the breaker and emits
        breaker-close; later tasks for the domain run normally."""
        domain = small_world.crawl_targets[0]

        class FlakyDomainCrawler(Crawler):
            def __init__(self, world, fail_first):
                super().__init__(world)
                self._remaining = fail_first

            def run_task(self, task, context=None, *, visit_ids=None):
                if task.domain == domain and self._remaining > 0:
                    self._remaining -= 1
                    raise TimeoutError("injected flake")
                return super().run_task(
                    task, context, visit_ids=visit_ids
                )

        crawler = FlakyDomainCrawler(small_world, fail_first=2)
        plan = crawler.plan_detection_crawl(VPS, [domain])
        log = EventLog()
        result = CrawlEngine(
            crawler,
            retry=RetryPolicy(
                max_attempts=1, breaker_threshold=2, breaker_quarantine=1
            ),
            event_log=log,
        ).execute(plan)
        # Tasks 3-5 are missing: the probe succeeds, closed again.
        assert [(o.index, o.error) for o in result.failures] == [
            (0, "TimeoutError"), (1, "TimeoutError"),  # the flakes open it
            (2, "BreakerOpenError"),                   # one quarantine skip
        ]
        assert result.record_count == len(plan) == 6
        assert len(log.by_kind("breaker-open")) == 1
        assert len(log.by_kind("breaker-close")) == 1
        (close_event,) = log.by_kind("breaker-close")
        assert close_event.detail["domain"] == domain

    def test_task_deadline_degrades_deterministically(
        self, resilience_crawler
    ):
        """A task whose retries would bust its virtual budget degrades
        to DeadlineExceeded instead of burning the whole attempt
        schedule."""
        world = resilience_crawler.world
        targets = world.crawl_targets[:3]
        plan = resilience_crawler.plan_detection_crawl(["DE"], targets)
        plan.context["chaos"] = ChaosSpec(
            seed=21, timeout_rate=1.0, permanent_rate=1.0
        ).to_context()
        result = CrawlEngine(
            resilience_crawler,
            retry=RetryPolicy(
                max_attempts=10,
                backoff_base=0.6,
                backoff_factor=2.0,
                jitter=0.0,
                task_deadline=1.0,
            ),
        ).execute(plan)
        assert [o.error for o in result.failures] == [
            "DeadlineExceeded"
        ] * len(targets)
        # attempt 1 fails, 0.6s backoff fits the 1.0s budget; attempt
        # 2 fails and the next 1.2s backoff would bust it.
        assert all(o.attempts == 2 for o in result.failures)

    def test_attempt_deadline_recovers_from_slow_loris(
        self, resilience_crawler
    ):
        """A slow-loris latency spike larger than the attempt deadline
        times the attempt out; the spike is consumed, so the retry
        succeeds and no task degrades."""
        from repro.urlkit import registrable_domain

        world = resilience_crawler.world
        targets = world.crawl_targets[:4]
        plan = resilience_crawler.plan_detection_crawl(["DE"], targets)
        # Restrict spikes to the first-party sites: one spike per task,
        # consumed by the first (timed-out) attempt.
        plan.context["chaos"] = ChaosSpec(
            seed=31, slow_rate=1.0, slow_latency=60.0,
            domains=tuple(
                registrable_domain(target) or target for target in targets
            ),
        ).to_context()
        before = world.network.clock.now()
        result = CrawlEngine(
            resilience_crawler,
            retry=RetryPolicy(max_attempts=3, attempt_deadline=10.0),
        ).execute(plan)
        assert not result.failures
        assert result.record_count == len(plan)
        # The spikes really happened — on the virtual clock.
        assert world.network.clock.now() - before >= 60.0

    def test_chaos_plan_flips_visit_id_regime(self, resilience_crawler):
        plan = resilience_crawler.plan_detection_crawl(
            ["DE"], resilience_crawler.world.crawl_targets[:2]
        )
        assert not chaos_plan(plan)
        engine = CrawlEngine(resilience_crawler)
        serial_fp = engine.fingerprint(plan)
        plan.context["chaos"] = ChaosSpec(seed=1).to_context()
        assert chaos_plan(plan)
        # The fingerprint covers both the chaos context and the regime.
        assert engine.fingerprint(plan) != serial_fp
