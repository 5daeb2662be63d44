"""Tests for the repro-cookiewalls command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment in ("table1", "fig4", "ublock", "accuracy"):
            assert experiment in out


class TestStats:
    def test_stats_output(self, capsys):
        assert main(["stats", "--scale", "0.01", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "crawl_targets:" in out
        assert "walls:" in out


class TestRun:
    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99", "--scale", "0.01"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_single(self, capsys):
        assert main(["run", "landscape", "--scale", "0.02", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Cookiewall landscape" in out

    def test_run_json(self, capsys):
        assert main(
            ["run", "accuracy", "--scale", "0.02", "--seed", "7", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "accuracy" in payload
        assert payload["accuracy"]["full_recall"] == 1.0


class TestCrawlAndReport:
    def test_crawl_writes_and_report_reads(self, tmp_path, capsys):
        out_file = tmp_path / "records.jsonl"
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3",
             "--vp", "DE", "--vp", "USE", "--out", str(out_file)]
        ) == 0
        assert out_file.exists()
        crawl_out = capsys.readouterr().out
        assert "wrote" in crawl_out

        assert main(["report", str(out_file)]) == 0
        report_out = capsys.readouterr().out
        assert "DE:" in report_out
        assert "unique cookiewall domains:" in report_out

    def test_parallel_crawl_matches_serial(self, tmp_path, capsys):
        serial_file = tmp_path / "serial.jsonl"
        parallel_file = tmp_path / "parallel.jsonl"
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3",
             "--vp", "DE", "--out", str(serial_file)]
        ) == 0
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3", "--vp", "DE",
             "--workers", "4", "--shards", "8", "--out", str(parallel_file)]
        ) == 0
        assert serial_file.read_text() == parallel_file.read_text()

    @pytest.mark.parametrize("data, message", [
        ({"vp": "DE", "domain": "a.de", "bogus": 1}, "unknown key(s) bogus"),
        ({"vp": 7, "domain": ["x"]}, "VisitRecord.vp: expected str, got 7"),
    ])
    def test_report_refuses_a_malformed_record(
        self, tmp_path, capsys, data, message
    ):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps({"type": "VisitRecord", "data": data}) + "\n",
            encoding="utf-8",
        )
        assert main(["report", str(records)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {records}:1: ")
        assert message in err

    def test_crawl_checkpoint_consumed_on_success(self, tmp_path, capsys):
        out_file = tmp_path / "records.jsonl"
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3",
             "--vp", "DE", "--out", str(out_file)]
        ) == 0
        assert not (tmp_path / "records.jsonl.checkpoint").exists()


class TestResume:
    def _crashed_checkpoint(self, tmp_path, vps=("DE",)):
        """The on-disk state a killed `crawl` run leaves behind."""
        from repro.measure import Crawler, CrawlEngine
        from repro.webgen import build_world
        from tests.faults import FaultInjectingExecutor

        out = tmp_path / "records.jsonl"
        world = build_world(scale=0.01, seed=3)
        crawler = Crawler(world)
        plan = crawler.plan_detection_crawl(list(vps))
        engine = CrawlEngine(
            crawler, workers=4, shards=8, spool_path=out,
            executor=FaultInjectingExecutor((1, 3, 5, 7)),
        )
        with pytest.raises(RuntimeError):
            engine.execute(plan)
        return out

    def test_crawl_resume_completes_interrupted_run(self, tmp_path, capsys):
        out_file = self._crashed_checkpoint(tmp_path)
        assert (tmp_path / "records.jsonl.checkpoint").exists()
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3", "--vp", "DE",
             "--workers", "4", "--shards", "8", "--resume",
             "--out", str(out_file)]
        ) == 0
        assert "replayed from checkpoint" in capsys.readouterr().out
        assert not (tmp_path / "records.jsonl.checkpoint").exists()

        # The resumed output equals an uninterrupted run's, byte for byte.
        clean = tmp_path / "clean.jsonl"
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3",
             "--vp", "DE", "--out", str(clean)]
        ) == 0
        assert out_file.read_bytes() == clean.read_bytes()

    def test_resume_refuses_non_checkpoint(self, tmp_path, capsys):
        out_file = tmp_path / "records.jsonl"
        (tmp_path / "records.jsonl.checkpoint").write_text('{"kind": "outcome"}\n')
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3", "--vp", "DE",
             "--resume", "--out", str(out_file)]
        ) == 2
        assert "not a crawl checkpoint" in capsys.readouterr().err

    def test_resume_refuses_fingerprint_mismatch(self, tmp_path, capsys):
        out_file = self._crashed_checkpoint(tmp_path)
        # Same output path, different world seed: must refuse, exit 2.
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "4", "--vp", "DE",
             "--resume", "--out", str(out_file)]
        ) == 2
        assert "refusing to resume" in capsys.readouterr().err


class TestLongitudinal:
    def test_longitudinal_reports_drift(self, tmp_path, capsys):
        out_dir = tmp_path / "waves"
        assert main(
            ["longitudinal", "--scale", "0.02", "--seed", "7",
             "--month", "0", "--month", "4", "--workers", "2",
             "--out-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "Longitudinal campaign (2 waves, vp=DE)" in out
        assert "month 0 -> month 4" in out
        assert "SMP roster growth" in out
        assert (out_dir / "wave-00.jsonl").exists()
        assert (out_dir / "wave-04.jsonl").exists()

    def test_longitudinal_rejects_bad_months(self, capsys):
        assert main(
            ["longitudinal", "--scale", "0.01", "--seed", "3",
             "--month", "4", "--month", "0"]
        ) == 2
        assert "months must be strictly increasing" in capsys.readouterr().err

    def test_longitudinal_resume_requires_out_dir(self, capsys):
        assert main(
            ["longitudinal", "--scale", "0.01", "--seed", "3", "--resume"]
        ) == 2
        assert "--resume requires --out-dir" in capsys.readouterr().err


class TestMultiVantageReport:
    def test_campaign_dir_expands_to_wave_spools(self, tmp_path, capsys):
        """``report`` accepts a campaign --out-dir directly and reads
        the same wave spools the explicit file list would."""
        out_dir = tmp_path / "campaign"
        assert main(
            ["multivantage", "--scale", "0.01", "--seed", "3",
             "--vps", "USE", "--vps", "DE", "--month", "0", "--month", "2",
             "--out-dir", str(out_dir)]
        ) == 0
        capsys.readouterr()

        waves = [str(out_dir / f"wave-{m:02d}.jsonl") for m in (0, 2)]
        assert main(["report", "--product", "discrepancy", *waves]) == 0
        from_files = capsys.readouterr().out
        assert main(
            ["report", "--product", "discrepancy", str(out_dir)]
        ) == 0
        assert capsys.readouterr().out == from_files
        assert "per-domain discrepancies" in from_files

        # The walls product expands the directory the same way.
        assert main(["report", str(out_dir)]) == 0
        assert "unique cookiewall domains:" in capsys.readouterr().out

    def test_empty_dir_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2
        assert "no wave-*.jsonl spools" in capsys.readouterr().err


class TestMeasure:
    def test_measure_streams_records(self, tmp_path, capsys):
        from repro.measure import iter_records
        from repro.measure.records import CookieMeasurement

        out_file = tmp_path / "cookies.jsonl"
        assert main(
            ["measure", "--scale", "0.01", "--seed", "3", "--vp", "DE",
             "--mode", "accept", "--repeats", "2",
             "--workers", "2", "--shards", "4", "--out", str(out_file)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        records = list(iter_records(out_file))
        assert records
        assert all(isinstance(r, CookieMeasurement) for r in records)
        assert all(r.mode == "accept" for r in records)

    def test_measure_ublock_explicit_domains(self, tmp_path, capsys):
        from repro.measure import iter_records
        from repro.measure.records import UBlockRecord
        from repro.webgen import build_world

        world = build_world(scale=0.01, seed=3)
        domain = sorted(world.wall_domains)[0]
        out_file = tmp_path / "ublock.jsonl"
        assert main(
            ["measure", "--scale", "0.01", "--seed", "3",
             "--mode", "ublock", "--repeats", "2",
             "--domain", domain, "--out", str(out_file)]
        ) == 0
        (record,) = list(iter_records(out_file))
        assert isinstance(record, UBlockRecord)
        assert record.domain == domain


#: Every common flag, with the spec values it sets.
COMMON_ARGV = (
    ["--scale", "0.01", "--seed", "3", "--workers", "4", "--shards", "8",
     "--executor", "distributed", "--resume", "--chaos-seed", "9",
     "--deadline", "12.5", "--breaker", "3"],
    {"world.scale": 0.01, "world.seed": 3, "engine.workers": 4,
     "engine.shards": 8, "engine.executor": "distributed",
     "engine.resume": True, "chaos.seed": 9,
     "resilience.task_deadline": 12.5, "resilience.breaker_threshold": 3},
)

#: ``(argv after "spec", {"section.field": value})``: each kind's own
#: flags after every common flag, so each flag of every kind is read.
GOLDEN_ARGV = [
    (["crawl", *COMMON_ARGV[0], "--vp", "DE", "--vp", "USE", "--out", "r.jsonl"],
     {**COMMON_ARGV[1], "crawl.vps": ["DE", "USE"], "output.path": "r.jsonl"}),
    (["measure", *COMMON_ARGV[0], "--vp", "SE", "--mode", "ublock",
      "--repeats", "2", "--domain", "a.com", "--domain", "b.com",
      "--out", "u.jsonl"],
     {**COMMON_ARGV[1], "measure.vp": "SE", "measure.mode": "ublock",
      "measure.repeats": 2, "measure.domains": ["a.com", "b.com"],
      "output.path": "u.jsonl"}),
    (["longitudinal", *COMMON_ARGV[0], "--vp", "USW", "--month", "0",
      "--month", "6", "--out-dir", "waves"],
     {**COMMON_ARGV[1], "longitudinal.vp": "USW",
      "longitudinal.months": [0, 6], "output.out_dir": "waves"}),
    (["multivantage", *COMMON_ARGV[0], "--vps", "de", "--vps", "USE",
      "--month", "0", "--month", "2", "--domain", "x.com", "--regime", "EU",
      "--relocate", "DE=USE", "--relocate-month", "2", "--out-dir", "mv"],
     {**COMMON_ARGV[1], "multivantage.vps": ["de", "USE"],
      "multivantage.months": [0, 2], "multivantage.domains": ["x.com"],
      "multivantage.regime": "eu", "multivantage.relocate": {"DE": "USE"},
      "multivantage.relocate_month": 2, "output.out_dir": "mv"}),
    (["multivantage", "--regime", "non-EU"], {"multivantage.regime": "non-eu"}),
]


class TestSpecSubcommand:
    def test_prints_resolved_defaults(self, capsys):
        from repro.api import SPEC_SCHEMA_VERSION

        assert main(["spec", "crawl"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SPEC_SCHEMA_VERSION
        assert payload["kind"] == "crawl"
        assert payload["world"] == {"scale": 0.05, "seed": 2023}
        assert payload["engine"]["workers"] == 1

    def test_flags_resolve_into_spec(self, capsys):
        for argv, expected in GOLDEN_ARGV:
            assert main(["spec", *argv]) == 0, argv
            payload = json.loads(capsys.readouterr().out)
            for path, value in expected.items():
                section, name = path.split(".")
                assert payload[section][name] == value, (argv, path)

    def test_invalid_spec_exits_2(self, capsys):
        assert main(
            ["spec", "longitudinal", "--month", "4", "--month", "0"]
        ) == 2
        assert "strictly increasing" in capsys.readouterr().err


class TestConfigFlag:
    def test_crawl_config_vs_flags_byte_identical(self, tmp_path, capsys):
        flag_out = tmp_path / "flags.jsonl"
        config_out = tmp_path / "config.jsonl"
        config = tmp_path / "run.toml"
        config.write_text(
            '[world]\nscale = 0.01\nseed = 3\n'
            '[crawl]\nvps = ["DE"]\n'
            f'[output]\npath = "{config_out}"\n'
        )
        assert main(
            ["crawl", "--scale", "0.01", "--seed", "3",
             "--vp", "DE", "--out", str(flag_out)]
        ) == 0
        assert main(["crawl", "--config", str(config)]) == 0
        assert flag_out.read_bytes() == config_out.read_bytes()

    def test_config_kind_conflict_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.toml"
        config.write_text('kind = "measure"\n')
        assert main(["crawl", "--config", str(config)]) == 2
        assert "requested" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flags, config_text", [
        ("crawl", ["--workers", "0"], "[engine]\nworkers = 0\n"),
        ("measure", ["--repeats", "0"], "[measure]\nrepeats = 0\n"),
        ("crawl", ["--deadline", "0"], "[resilience]\ntask_deadline = 0.0\n"),
        ("crawl", ["--scale", "0"], "[world]\nscale = 0.0\n"),
    ], ids=["workers", "repeats", "deadline", "scale"])
    def test_bound_error_reads_like_the_config(
        self, tmp_path, capsys, kind, flags, config_text
    ):
        """A flag's bound is the spec's: the flag and the config value
        fail with the same message (the config's names its file), exit 2."""
        out = ["--out", str(tmp_path / "x.jsonl")]
        assert main([kind, *flags, *out]) == 2
        from_flag = capsys.readouterr().err
        config = tmp_path / "run.toml"
        config.write_text(config_text)
        assert main([kind, "--config", str(config), *out]) == 2
        from_config = capsys.readouterr().err
        assert from_flag.startswith("error: ")
        assert from_flag == from_config.replace(f"{config}: ", "")
        assert not (tmp_path / "x.jsonl").exists()

    def test_missing_out_reported(self, tmp_path, capsys):
        assert main(["crawl", "--scale", "0.01"]) == 2
        assert "output path is required" in capsys.readouterr().err


class TestWorldFlags:
    @pytest.mark.parametrize("argv", [
        ["run", "table1"], ["stats"], ["verify"],
        ["export-toplists", "--dir", "unused"], ["validate"],
    ], ids=lambda argv: argv[0])
    def test_out_of_range_scale_is_a_spec_error(self, argv, capsys):
        """The world of every non-spec subcommand is a checked WorldSpec:
        an out-of-range scale is a one-line error with exit 2."""
        assert main([*argv, "--scale", "1.5"]) == 2
        assert capsys.readouterr().err == (
            "error: world.scale must be in (0, 1], got 1.5\n"
        )


class TestExportToplists:
    def test_export(self, tmp_path, capsys):
        assert main(
            ["export-toplists", "--scale", "0.01", "--seed", "3",
             "--dir", str(tmp_path)]
        ) == 0
        files = sorted(p.name for p in tmp_path.glob("crux_*.csv"))
        assert len(files) == 7
        assert "crux_de.csv" in files
