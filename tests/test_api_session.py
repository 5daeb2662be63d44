"""Tests for the Session facade and RunResult handle.

The load-bearing guarantee: for a fixed world seed the same campaign
produces byte-identical spooled JSONL through every entry point —
``Session.run(spec)``, the CLI with flags, the CLI with ``--config``
— and a resumed session run matches an uninterrupted one byte for
byte (the acceptance criterion of the api redesign).
"""

import pytest

from repro.api import (
    CrawlSpec,
    EngineSpec,
    LongitudinalSpec,
    MeasureSpec,
    OutputSpec,
    RunSpec,
    RunResult,
    Session,
    SpecError,
    WorldSpec,
)
from repro.cli import main
from repro.measure import Crawler, CrawlEngine
from repro.measure.records import CookieMeasurement, VisitRecord
from repro.webgen import build_world
from tests.faults import FaultInjectingExecutor

WORLD = WorldSpec(scale=0.01, seed=3)


class TestSessionBasics:
    def test_world_is_lazy_and_cached(self):
        session = Session(WORLD)
        assert session._world is None
        world = session.world
        assert session.world is world

    def test_accepts_prebuilt_world(self, medium_world):
        session = Session(medium_world)
        assert session.world is medium_world
        assert session.world_spec.seed == medium_world.config.seed

    def test_rejects_garbage_world(self):
        with pytest.raises(SpecError, match="world must be"):
            Session(42)

    def test_run_requires_a_spec(self):
        with pytest.raises(SpecError, match="nothing to run"):
            Session(WORLD).run()

    def test_run_refuses_foreign_world(self):
        session = Session(WORLD)
        alien = RunSpec(kind="crawl", world=WorldSpec(scale=0.01, seed=4))
        with pytest.raises(SpecError, match="differs from this session"):
            session.run(alien)

    def test_constructor_engine_override_wins_for_default_spec(self):
        # Session(spec, engine=...) promises the override stays in
        # force for .run(); parallel mode switches measurements to
        # per-task visit ids, so the records are observably different
        # from the spec's serial engine.
        spec = RunSpec(
            kind="measure", world=WORLD,
            measure=MeasureSpec(vp="DE", repeats=2),
        )
        overridden = Session(spec, engine=EngineSpec(workers=2)).run()
        parallel = Session(WORLD, engine=EngineSpec(workers=2)).measure(
            MeasureSpec(vp="DE", repeats=2)
        )
        serial = Session(spec).run()
        assert [r.to_dict() for r in overridden.records] == [
            r.to_dict() for r in parallel.records
        ]
        assert [r.to_dict() for r in overridden.records] != [
            r.to_dict() for r in serial.records
        ]

    def test_executor_and_merge_flow_through_session(self, tmp_path):
        """`EngineSpec(executor=..., merge="spool")` runs end to end:
        the spool is byte-identical to the serial in-memory run and
        the RunResult stays lazy (records stream from the spool)."""
        serial_out = tmp_path / "serial.jsonl"
        spec = RunSpec(
            kind="crawl", world=WORLD, crawl=CrawlSpec(vps=("DE",)),
            output=OutputSpec(path=str(serial_out)),
        )
        Session(spec).run()
        out = tmp_path / "distributed.jsonl"
        result = Session(
            RunSpec(
                kind="crawl", world=WORLD, crawl=CrawlSpec(vps=("DE",)),
                engine=EngineSpec(
                    workers=2, executor="distributed", merge="spool"
                ),
                output=OutputSpec(path=str(out)),
            )
        ).run()
        assert out.read_bytes() == serial_out.read_bytes()
        # Spool-merged runs stay lazy: nothing materialised yet.
        assert result._records is None
        assert result.record_count == len(result.records)

    def test_spool_merge_without_output_refused_not_downgraded(self):
        # Mirrors the resume rule: silently merging in memory when the
        # caller asked for the streaming mode is never acceptable.
        session = Session(WORLD, engine=EngineSpec(merge="spool"))
        with pytest.raises(SpecError, match='engine.merge = "spool"'):
            session.crawl(CrawlSpec(vps=("DE",)))

    def test_measure_pre_pass_survives_spool_merge(self, tmp_path):
        """`measure` without explicit domains runs an in-memory
        detection pre-pass; merge='spool' must not break it (the
        pre-pass has no spool of its own)."""
        out = tmp_path / "m.jsonl"
        result = Session(
            WORLD, engine=EngineSpec(merge="spool")
        ).measure(
            MeasureSpec(vp="DE", repeats=1),
            output=OutputSpec(path=str(out)),
        )
        assert out.exists()
        assert result.record_count > 0

    def test_resume_without_output_refused_not_ignored(self):
        session = Session(WORLD, engine=EngineSpec(resume=True))
        with pytest.raises(SpecError, match="--resume requires"):
            session.crawl(CrawlSpec(vps=("DE",)))

    def test_measure_resume_pre_pass_does_not_trip_guard(self, tmp_path):
        out = tmp_path / "cookies.jsonl"
        session = Session(WORLD, engine=EngineSpec(resume=True))
        # No checkpoint exists yet: resume starts fresh, and the
        # in-memory detection pre-pass must not be refused.
        result = session.measure(
            MeasureSpec(vp="DE", repeats=1),
            output=OutputSpec(path=str(out)),
        )
        assert result.record_count > 0
        assert out.exists()

    def test_run_adopts_spec_engine(self, tmp_path):
        # A spec with different engine settings runs (through a
        # sibling session), rather than being refused.
        out = tmp_path / "out.jsonl"
        spec = RunSpec(
            kind="crawl", world=WORLD, engine=EngineSpec(workers=2),
            crawl=CrawlSpec(vps=("DE",)),
            output=OutputSpec(path=str(out)),
        )
        result = Session(WORLD).run(spec)
        assert result.record_count > 0
        assert out.exists()


class TestEntryPointEquivalence:
    """Flags, --config, and Session.run must write the same bytes."""

    def _config(self, tmp_path, out):
        config = tmp_path / "run.toml"
        config.write_text(
            "kind = \"crawl\"\n"
            "[world]\nscale = 0.01\nseed = 3\n"
            "[engine]\nworkers = 2\nshards = 4\n"
            "[crawl]\nvps = [\"DE\"]\n"
            f"[output]\npath = \"{out}\"\n"
        )
        return config

    def test_crawl_three_ways_byte_identical(self, tmp_path):
        flag_out = tmp_path / "flags.jsonl"
        config_out = tmp_path / "config.jsonl"
        api_out = tmp_path / "api.jsonl"

        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3", "--vp", "DE",
             "--workers", "2", "--shards", "4", "--out", str(flag_out)]
        ) == 0
        assert main(
            ["crawl", "--config", str(self._config(tmp_path, config_out))]
        ) == 0
        spec = RunSpec(
            kind="crawl", world=WORLD,
            engine=EngineSpec(workers=2, shards=4),
            crawl=CrawlSpec(vps=("DE",)),
            output=OutputSpec(path=str(api_out)),
        )
        Session(spec).run()

        flag_bytes = flag_out.read_bytes()
        assert flag_bytes == config_out.read_bytes()
        assert flag_bytes == api_out.read_bytes()

    def test_measure_flags_vs_config_byte_identical(self, tmp_path):
        flag_out = tmp_path / "flags.jsonl"
        config_out = tmp_path / "config.jsonl"
        config = tmp_path / "run.toml"
        config.write_text(
            "[world]\nscale = 0.01\nseed = 3\n"
            "[measure]\nvp = \"DE\"\nmode = \"accept\"\nrepeats = 2\n"
            f"[output]\npath = \"{config_out}\"\n"
        )
        assert main(
            ["measure", "--scale", "0.01", "--seed", "3", "--vp", "DE",
             "--mode", "accept", "--repeats", "2", "--out", str(flag_out)]
        ) == 0
        assert main(["measure", "--config", str(config)]) == 0
        assert flag_out.read_bytes() == config_out.read_bytes()

    def test_cli_flag_overrides_config_value(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        config = self._config(tmp_path, out)
        assert main(
            ["spec", "crawl", "--config", str(config), "--workers", "8",
             "--seed", "11"]
        ) == 0
        printed = capsys.readouterr().out
        import json

        payload = json.loads(printed)
        assert payload["engine"]["workers"] == 8      # flag wins
        assert payload["world"]["seed"] == 11          # flag wins
        assert payload["world"]["scale"] == 0.01       # file value kept
        assert payload["crawl"]["vps"] == ["DE"]       # file value kept


class TestSessionResume:
    def test_resumed_session_run_matches_uninterrupted(self, tmp_path):
        out = tmp_path / "records.jsonl"
        world = build_world(scale=0.01, seed=3)
        crawler = Crawler(world)
        plan = crawler.plan_detection_crawl(["DE"])
        engine = CrawlEngine(
            crawler, workers=4, shards=8, spool_path=out,
            executor=FaultInjectingExecutor((1, 3, 5, 7), partial=True),
        )
        with pytest.raises(RuntimeError):
            engine.execute(plan)
        assert (tmp_path / "records.jsonl.checkpoint").exists()

        spec = RunSpec(
            kind="crawl", world=WORLD,
            engine=EngineSpec(workers=4, shards=8, resume=True),
            crawl=CrawlSpec(vps=("DE",)),
            output=OutputSpec(path=str(out)),
        )
        resumed = Session(spec).run()
        assert resumed.resumed > 0
        assert not (tmp_path / "records.jsonl.checkpoint").exists()

        clean_out = tmp_path / "clean.jsonl"
        clean_spec = RunSpec(
            kind="crawl", world=WORLD,
            engine=EngineSpec(workers=4, shards=8),
            crawl=CrawlSpec(vps=("DE",)),
            output=OutputSpec(path=str(clean_out)),
        )
        Session(clean_spec).run()
        assert out.read_bytes() == clean_out.read_bytes()


class TestMeasureDefaults:
    def test_default_domains_are_detected_walls(self):
        session = Session(WORLD)
        result = session.measure(MeasureSpec(vp="DE", repeats=1))
        assert result.record_count > 0
        assert all(
            isinstance(r, CookieMeasurement) for r in result.iter_records()
        )
        walls = Session(WORLD).crawl(CrawlSpec(vps=("DE",)))
        from repro.measure.crawl import CrawlResult

        expected = CrawlResult(records=walls.records).cookiewall_domains()
        assert [r.domain for r in result.iter_records()] == expected


class TestLongitudinalSession:
    def test_waves_and_summary(self, tmp_path):
        session = Session(WORLD, engine=EngineSpec(workers=2))
        result = session.longitudinal(
            LongitudinalSpec(vp="DE", months=(0, 2)),
            output=OutputSpec(out_dir=str(tmp_path)),
        )
        assert result.campaign is not None
        assert len(result.campaign.waves) == 2
        waves = result.summary()["waves"]
        assert [w["months"] for w in waves] == [0, 2]
        assert (tmp_path / "wave-00.jsonl").exists()
        assert (tmp_path / "wave-02.jsonl").exists()
        # Records stream in wave order.
        assert result.record_count == sum(w["visits"] for w in waves)


class TestRunResultPersistence:
    def test_spooled_result_round_trips_lazily(self, tmp_path):
        out = tmp_path / "records.jsonl"
        spec = RunSpec(
            kind="crawl", world=WORLD, crawl=CrawlSpec(vps=("DE",)),
            output=OutputSpec(path=str(out)),
        )
        result = Session(spec).run()
        manifest = result.save(tmp_path / "result.json")

        loaded = RunResult.load(manifest)
        assert loaded.spec == result.spec
        assert loaded.summary() == result.summary()
        # Lazy: nothing materialised until records are asked for…
        assert loaded._records is None
        # …then the stream equals the live run's records.
        assert [r.to_dict() for r in loaded.iter_records()] == [
            r.to_dict() for r in result.records
        ]
        assert all(isinstance(r, VisitRecord) for r in loaded.iter_records())

    def test_in_memory_result_embeds_records(self, tmp_path):
        session = Session(WORLD)
        result = session.crawl(CrawlSpec(vps=("DE",)))   # no spool
        manifest = result.save(tmp_path / "result.json")
        loaded = RunResult.load(manifest)
        assert [r.to_dict() for r in loaded.iter_records()] == [
            r.to_dict() for r in result.records
        ]

    def test_load_refuses_non_manifest(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(SpecError, match="not a run-result"):
            RunResult.load(path)

    def test_failures_round_trip(self, tmp_path):
        from repro.api import RunFailure

        spec = RunSpec(kind="crawl", world=WORLD)
        result = RunResult(
            spec,
            records=[],
            failures=[RunFailure(
                index=3, vp="DE", domain="x.de", mode="detect",
                error="NetworkError", attempts=2,
            )],
            executed=1,
        )
        loaded = RunResult.load(result.save(tmp_path / "r.json"))
        assert loaded.failures == result.failures
        assert not loaded.ok
