"""Multi-vantage campaigns: scenarios, determinism, discrepancy report.

The campaign promise mirrors the engine's: for a fixed world seed and
scenario, the wave spools are **byte-identical** across executor
backends × worker counts × resumed-vs-uninterrupted runs — the
scenario rides in ``CrawlPlan.context``, so the checkpoint fingerprint
covers it and a regime change refuses to resume.  CI runs this module
once per regulation regime (``REPRO_REGULATION_REGIME=eu|non-eu|...``)
so a regression in one regime fails its own job; locally, with the
variable unset, every regime runs in one pass.
"""

import os

import pytest

from repro.analysis import StreamingDiscrepancyReport, build_discrepancy_report
from repro.measure import (
    CheckpointMismatch,
    CrawlEngine,
    Crawler,
    VisitRecord,
)
from repro.vantage import (
    REGULATION_REGIMES,
    RegulationScenario,
    build_scenario,
    get_vantage_point,
    regime_scenario,
)

_ENV_REGIME = os.environ.get("REPRO_REGULATION_REGIME")
if _ENV_REGIME is not None and _ENV_REGIME not in REGULATION_REGIMES:
    raise RuntimeError(
        f"REPRO_REGULATION_REGIME={_ENV_REGIME!r} is not one of "
        f"{REGULATION_REGIMES}"
    )
REGIMES = (_ENV_REGIME,) if _ENV_REGIME else REGULATION_REGIMES

#: The executor legs: serial, ``process`` — the ``--workers N`` leg,
#: which names no backend, so the engine's workers rule sends it over
#: the wire to locally forked worker processes — and distributed.
BACKENDS = ("serial", "process", "distributed")
SHARDS = 6
WORKERS = 3
#: One EU and one non-EU vantage point keep the matrix fast while
#: still exercising relocation in both directions and geo-blocking.
VPS = ("USE", "DE")


def campaign_context(regime, wave=0):
    return {"wave": wave, "scenario": regime_scenario(regime).to_context()}


def make_engine(backend, crawler, **kwargs):
    workers = 1 if backend == "serial" else WORKERS
    return CrawlEngine(
        crawler, workers=workers, shards=SHARDS,
        backend=None if backend == "process" else backend, **kwargs
    )


@pytest.fixture(scope="module")
def small_crawler(small_world):
    return Crawler(small_world)


@pytest.fixture(scope="module")
def campaign_targets(small_world):
    """Wall sites plus filler, so every regime has observable effect."""
    walls = sorted(small_world.wall_domains)[:12]
    filler = [d for d in small_world.crawl_targets if d not in set(walls)]
    return walls + filler[:12]


def campaign_plan(crawler, regime, targets, wave=0):
    plan = crawler.plan_detection_crawl(list(VPS), targets)
    plan.context["multivantage"] = campaign_context(regime, wave=wave)
    return plan


@pytest.fixture(scope="module")
def serial_references(tmp_path_factory, small_crawler, campaign_targets):
    """Per-regime uninterrupted serial spools every config must match."""
    base = tmp_path_factory.mktemp("reference")
    references = {}
    for regime in REGIMES:
        path = base / f"{regime}.jsonl"
        CrawlEngine(small_crawler, spool_path=path).execute(
            campaign_plan(small_crawler, regime, campaign_targets)
        )
        references[regime] = path.read_bytes()
    return references


# ----------------------------------------------------------------------
# Determinism matrix: backends × workers × resume, per regime
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime", REGIMES)
class TestCampaignDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spool_matches_serial_reference(
        self, regime, backend, tmp_path, small_crawler, campaign_targets,
        serial_references,
    ):
        out = tmp_path / f"{backend}.jsonl"
        result = make_engine(backend, small_crawler, spool_path=out).execute(
            campaign_plan(small_crawler, regime, campaign_targets)
        )
        assert len(result) == len(VPS) * len(campaign_targets)
        assert out.read_bytes() == serial_references[regime]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crashed_run_resumes_byte_identical(
        self, regime, backend, tmp_path, small_crawler, campaign_targets,
        serial_references, crash_engine,
    ):
        plan = campaign_plan(small_crawler, regime, campaign_targets)
        out = tmp_path / "crashed.jsonl"
        checkpoint = tmp_path / "crashed.jsonl.checkpoint"
        crash_engine(
            backend, small_crawler, plan, (1, 4), shards=SHARDS,
            spool_path=out,
        )
        assert checkpoint.exists()
        result = make_engine(
            backend, small_crawler, spool_path=out, resume=True,
        ).execute(plan)
        assert 0 < result.resumed < len(plan)
        assert out.read_bytes() == serial_references[regime]

    def test_checkpoint_refuses_a_different_scenario(
        self, regime, tmp_path, small_crawler, campaign_targets,
        crash_engine,
    ):
        """The scenario lives in ``plan.context``, so the fingerprint
        must reject resuming one regime's checkpoint under another."""
        plan = campaign_plan(small_crawler, regime, campaign_targets)
        crash_engine(
            "serial", small_crawler, plan, (2,), shards=SHARDS,
            spool_path=tmp_path / "run.jsonl",
        )
        other = "eu" if regime != "eu" else "non-eu"
        changed = campaign_plan(
            small_crawler, other, campaign_targets
        )
        with pytest.raises(CheckpointMismatch):
            make_engine(
                "serial", small_crawler, spool_path=tmp_path / "run.jsonl",
                resume=True,
            ).execute(changed)


# ----------------------------------------------------------------------
# Scenario knobs: regimes, relocation, geo-blocking
# ----------------------------------------------------------------------
class TestRegulationScenarios:
    def test_regime_names_are_case_insensitive(self):
        assert regime_scenario("EU") == regime_scenario("eu")

    def test_unknown_regime_names_the_known_ones(self):
        with pytest.raises(ValueError, match="baseline.*geo-blocked"):
            regime_scenario("mars")

    def test_context_round_trip(self):
        scenario = build_scenario(
            "baseline", relocations={"USE": "DE"}, relocate_from_month=2,
            geo_blocked=("SE",),
        )
        assert RegulationScenario.from_context(
            scenario.to_context()
        ) == scenario

    def test_eu_regime_brings_walls_to_non_eu_vps(self, small_crawler):
        """Routing a US vantage point through a German exit must show
        it the EU wall population."""
        scenario = regime_scenario("eu")
        walls = sorted(small_crawler.world.wall_domains)
        routed = [
            small_crawler.visit("USE", d, scenario=scenario) for d in walls
        ]
        assert all(r.vp == "USE" for r in routed)
        assert all(r.flags.get("exit_vp") == "DE" for r in routed)
        assert [r.is_cookiewall for r in routed] == [
            small_crawler.visit("DE", d).is_cookiewall for d in walls
        ]
        # The regime is observable: EU-only walls appear for USE.
        assert sum(r.is_cookiewall for r in routed) > sum(
            small_crawler.visit("USE", d).is_cookiewall for d in walls
        )

    def test_non_eu_regime_hides_walls_from_eu_vps(self, small_crawler):
        scenario = regime_scenario("non-eu")
        walls = sorted(small_crawler.world.wall_domains)
        baseline = sum(
            small_crawler.visit("DE", d).is_cookiewall for d in walls
        )
        routed = sum(
            small_crawler.visit("DE", d, scenario=scenario).is_cookiewall
            for d in walls
        )
        reference = sum(
            small_crawler.visit("USE", d).is_cookiewall for d in walls
        )
        assert routed == reference < baseline

    def test_geo_blocked_regime_refuses_eu_exits_on_wall_sites(
        self, small_crawler
    ):
        scenario = regime_scenario("geo-blocked")
        domain = sorted(small_crawler.world.wall_domains)[0]
        blocked = small_crawler.visit("DE", domain, scenario=scenario)
        assert not blocked.reachable
        assert blocked.error == "GeoBlocked"
        # Non-EU exits and non-wall sites are untouched.
        assert small_crawler.visit("USE", domain, scenario=scenario).reachable
        plain = next(
            d for d in small_crawler.world.crawl_targets
            if d not in small_crawler.world.wall_domains
        )
        assert small_crawler.visit("DE", plain, scenario=scenario).reachable

    def test_relocation_out_of_a_blocked_region_evades_the_block(
        self, small_crawler
    ):
        scenario = build_scenario("geo-blocked", relocations={"DE": "USE"})
        domain = sorted(small_crawler.world.wall_domains)[0]
        record = small_crawler.visit("DE", domain, scenario=scenario)
        assert record.reachable
        assert record.flags.get("exit_vp") == "USE"

    def test_mid_campaign_relocation_changes_subsequent_waves_only(
        self, small_crawler
    ):
        scenario = build_scenario(
            "baseline", relocations={"USE": "DE"}, relocate_from_month=2
        )
        walls = sorted(small_crawler.world.wall_domains)
        def wall_count(wave):
            return sum(
                small_crawler.visit(
                    "USE", d, scenario=scenario, wave=wave
                ).is_cookiewall
                for d in walls
            )
        at_home = sum(small_crawler.visit("USE", d).is_cookiewall for d in walls)
        relocated = sum(small_crawler.visit("DE", d).is_cookiewall for d in walls)
        assert wall_count(0) == wall_count(1) == at_home
        assert wall_count(2) == relocated > at_home


class TestVantagePointLookup:
    def test_codes_are_case_insensitive(self):
        assert get_vantage_point("de") is get_vantage_point("DE")
        assert get_vantage_point("usE").code == "USE"

    def test_unknown_code_names_the_known_points(self):
        with pytest.raises(KeyError, match="AU.*DE.*USE"):
            get_vantage_point("MOON")


# ----------------------------------------------------------------------
# The streaming discrepancy report
# ----------------------------------------------------------------------
def wall(vp, domain, text="Accept cookies or subscribe for €3.99 per month",
         **flags):
    return VisitRecord(
        vp=vp, domain=domain, is_cookiewall=True, banner_found=True,
        has_accept=True, banner_text=text, flags=dict(flags),
    )


def plain(vp, domain, **flags):
    return VisitRecord(vp=vp, domain=domain, flags=dict(flags))


class TestDiscrepancyReport:
    def test_wall_partial_and_eu_delta(self):
        report = StreamingDiscrepancyReport()
        report.consume([
            wall("DE", "a.example"), plain("USE", "a.example"),
            wall("DE", "b.example"), wall("USE", "b.example"),
        ])
        assert report.wall_counts() == {"USE": 1, "DE": 2}
        delta = report.eu_delta()
        assert delta == {"eu_mean": 2.0, "non_eu_mean": 1.0, "delta": 1.0}
        discrepancies = report.discrepancies()
        assert discrepancies["wall_partial"]["domains"] == 1
        assert discrepancies["wall_partial"]["examples"] == ["a.example"]

    def test_wall_drift_across_waves(self):
        report = build_discrepancy_report([
            (0, [wall("DE", "a.example")]),
            (3, [plain("DE", "a.example")]),
        ])
        assert report.waves == (0, 3)
        assert report.discrepancies()["wall_drift"]["domains"] == 1

    def test_price_spread_and_currency_mix(self):
        report = StreamingDiscrepancyReport()
        report.consume([
            wall("DE", "a.example",
                 text="subscribe for €3.99 per month"),
            wall("USE", "a.example",
                 text="subscribe for $4.50 per month"),
        ])
        discrepancies = report.discrepancies()
        assert discrepancies["price_spread"]["domains"] == 1
        assert discrepancies["currency_mix"]["domains"] == 1
        summary = report.summary()
        assert summary["waves"]["0"]["vps"]["DE"]["wall_price_eur_mean"] == 3.99

    def test_tcf_and_cookie_divergence(self):
        report = StreamingDiscrepancyReport()
        report.consume([
            wall("DE", "a.example", tcf_accept="CPAAAAAAAAAAA"),
            wall("SE", "a.example", tcf_accept="CPBBBBBBBBBBB"),
            plain("DE", "b.example", cookies_third_party=["ads.example"]),
            plain("USE", "b.example",
                  cookies_third_party=["ads.example", "sync.example"]),
        ])
        discrepancies = report.discrepancies()
        assert discrepancies["tcf_divergent"]["domains"] == 1
        assert discrepancies["cookie_divergent"]["domains"] == 1

    def test_geo_blocked_visits_are_counted_not_aggregated(self):
        report = StreamingDiscrepancyReport()
        report.add(VisitRecord(
            vp="DE", domain="a.example", reachable=False, error="GeoBlocked",
        ))
        summary = report.summary()
        assert summary["waves"]["0"]["vps"]["DE"]["geo_blocked"] == 1
        assert summary["domains"] == 0

    def test_non_detection_records_are_ignored(self):
        report = StreamingDiscrepancyReport()
        report.add(object())
        assert report.record_count == 0

    def test_render_is_stable(self):
        records = [wall("DE", "a.example"), plain("USE", "a.example")]
        first = StreamingDiscrepancyReport().consume(records).render()
        second = StreamingDiscrepancyReport().consume(records).render()
        assert first == second
        assert "EU mean" in first


# ----------------------------------------------------------------------
# The campaign end-to-end: Session.run, paper delta, resume
# ----------------------------------------------------------------------
def campaign_spec(out_dir=None, months=(0,), regime="baseline", resume=False):
    from repro.api import (
        EngineSpec, MultiVantageSpec, OutputSpec, RunSpec, WorldSpec,
    )

    return RunSpec(
        kind="multivantage",
        world=WorldSpec(scale=0.02, seed=7),
        engine=EngineSpec(workers=2, resume=resume),
        multivantage=MultiVantageSpec(
            vps=VPS, months=tuple(months), regime=regime,
        ),
        output=OutputSpec(out_dir=str(out_dir) if out_dir else None),
    )


class TestCampaignSession:
    def test_baseline_campaign_reproduces_the_paper_delta(self, tmp_path):
        """EU vantage points must see more walls than non-EU ones on
        the seeded world — the paper's headline observation."""
        from repro.api import Session

        result = Session(campaign_spec(tmp_path / "out")).run()
        report = result.campaign.report
        delta = report.eu_delta()
        assert delta["eu_mean"] > delta["non_eu_mean"]
        counts = report.wall_counts()
        assert counts["DE"] > counts["USE"] > 0
        assert result.record_count == report.record_count > 0
        assert (tmp_path / "out" / "wave-00.jsonl").exists()
        assert "discrepancy" in result.summary()

    def test_half_finished_campaign_resumes(self, tmp_path):
        """A campaign killed between waves replays the completed wave
        from its spool and re-runs only the missing one."""
        from repro.api import Session

        out = tmp_path / "campaign"
        full = Session(campaign_spec(out, months=(0, 2))).run()
        reference = [
            (out / f"wave-{m:02d}.jsonl").read_bytes() for m in (0, 2)
        ]
        # Simulate the crash: the second wave never happened.
        half = tmp_path / "half"
        half.mkdir()
        for name in ("wave-00.jsonl", "wave-00.jsonl.fingerprint"):
            (half / name).write_bytes((out / name).read_bytes())
        resumed = Session(
            campaign_spec(half, months=(0, 2), resume=True)
        ).run()
        assert resumed.record_count == full.record_count
        assert resumed.campaign.waves[0].resumed == full.campaign.waves[0].visits
        assert (half / "wave-00.jsonl").read_bytes() == reference[0]
        assert (half / "wave-02.jsonl").read_bytes() == reference[1]
        assert (
            resumed.campaign.report.summary()
            == full.campaign.report.summary()
        )

    def test_fully_resumed_wave_is_an_engine_result_over_its_file(
        self, tmp_path
    ):
        """A finished wave reloaded under resume is the result a spooled
        run returns: it names its file, holds no records, streams what
        the fresh run wrote, and feeds the campaign summary the fresh
        run's visits and walls, every visit counted as resumed."""
        from repro.api import Session
        from repro.measure import EngineResult
        from repro.measure.longitudinal import reload_completed_wave

        out = tmp_path / "campaign"
        fresh = Session(campaign_spec(out, regime="eu")).run()
        spec = campaign_spec(out, regime="eu", resume=True)
        session = Session(spec)
        crawler = Crawler(session.world)
        plan = crawler.plan_detection_crawl(
            list(VPS), list(session.world.crawl_targets)
        )
        plan.context["multivantage"] = {
            "wave": 0, "scenario": spec.multivantage.scenario().to_context(),
        }
        wave = reload_completed_wave(
            out / "wave-00.jsonl", CrawlEngine(crawler).fingerprint(plan), plan
        )
        assert isinstance(wave, EngineResult)
        assert wave.spool_path == out / "wave-00.jsonl"
        assert wave.held is None
        assert wave.total == wave.record_count == wave.resumed == len(plan)
        assert wave.executed == 0 and wave.failures == []
        assert [r.to_dict() for r in wave.iter_records()] == [
            r.to_dict() for r in fresh.iter_records()
        ]

        resumed = session.run()
        fresh_waves = fresh.summary()["waves"]
        resumed_waves = resumed.summary()["waves"]
        assert [(w["visits"], w["walls"]) for w in resumed_waves] == [
            (w["visits"], w["walls"]) for w in fresh_waves
        ]
        assert [w["resumed"] for w in fresh_waves] == [0]
        assert [w["resumed"] for w in resumed_waves] == [
            w["visits"] for w in fresh_waves
        ]
        assert resumed.executed == 0
        assert resumed.campaign.report.summary() == fresh.campaign.report.summary()

    def test_fully_resumed_chaos_campaign_keeps_its_failures(self, tmp_path):
        """A finished wave keeps its permanent failures beside its
        fingerprint, so a fully resumed campaign reports the fresh
        run's failures, and the wave file holds records only."""
        from repro.api import (
            ChaosSpec, EngineSpec, MultiVantageSpec, OutputSpec, RunSpec,
            Session, WorldSpec,
        )

        out = tmp_path / "campaign"

        def spec(resume):
            return RunSpec(
                kind="multivantage",
                world=WorldSpec(scale=0.01, seed=7),
                engine=EngineSpec(resume=resume),
                multivantage=MultiVantageSpec(vps=("DE",), regime="eu"),
                chaos=ChaosSpec(seed=3, timeout_rate=0.2, permanent_rate=1.0),
                output=OutputSpec(out_dir=str(out)),
            )

        fresh = Session(spec(False)).run()
        wave = (out / "wave-00.jsonl").read_bytes()
        assert len(fresh.failures) > 0
        resumed = Session(spec(True)).run()
        assert resumed.executed == 0
        assert resumed.failures == fresh.failures
        assert (out / "wave-00.jsonl").read_bytes() == wave

        # A fingerprint file in the one-line format resumes, failure-free.
        marker = out / "wave-00.jsonl.fingerprint"
        marker.write_text(marker.read_text().splitlines()[0] + "\n")
        old_format = Session(spec(True)).run()
        assert old_format.executed == 0
        assert not old_format.failures

    def test_malformed_wave_failure_line_is_refused(self, tmp_path):
        from repro.api import Session

        out = tmp_path / "campaign"
        Session(campaign_spec(out)).run()
        marker = out / "wave-00.jsonl.fingerprint"
        marker.write_text(
            marker.read_text() + '{"index": -1, "error": "x", "attempts": 1}\n'
        )
        with pytest.raises(ValueError, match=r"fingerprint:2: index must be in \[0, "):
            Session(campaign_spec(out, resume=True)).run()

    def test_completed_wave_of_another_regime_is_refused(self, tmp_path):
        """A finished wave is reloaded only under its own fingerprint:
        resuming an ``eu`` campaign's directory as ``baseline`` must
        not report the eu walls as baseline data."""
        from repro.api import Session

        out = tmp_path / "campaign"
        Session(campaign_spec(out, regime="eu")).run()
        with pytest.raises(CheckpointMismatch, match="refusing to resume"):
            Session(campaign_spec(out, regime="baseline", resume=True)).run()

    def test_completed_wave_without_fingerprint_reruns(self, tmp_path):
        """A wave file with no fingerprint beside it (a run that died
        after its join, or one written before fingerprints) is crawled
        again, not trusted."""
        from repro.api import Session

        out = tmp_path / "campaign"
        full = Session(campaign_spec(out)).run()
        reference = (out / "wave-00.jsonl").read_bytes()
        (out / "wave-00.jsonl.fingerprint").unlink()
        again = Session(campaign_spec(out, resume=True)).run()
        assert again.resumed == 0
        assert again.executed == full.executed
        assert (out / "wave-00.jsonl").read_bytes() == reference
        assert (out / "wave-00.jsonl.fingerprint").exists()

    def test_in_memory_campaign_matches_spooled_report(self, tmp_path):
        from repro.api import Session

        spooled = Session(campaign_spec(tmp_path / "out")).run()
        in_memory = Session(campaign_spec()).run()
        assert in_memory.records is not None
        assert (
            in_memory.campaign.report.summary()
            == spooled.campaign.report.summary()
        )
