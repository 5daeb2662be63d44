"""Tests for world validation, temporal drift, and datasets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.dataset import export_dataset, load_dataset
from repro.measure.records import CookieMeasurement, UBlockRecord, VisitRecord
from repro.webgen import BannerKind, build_world
from repro.webgen.evolve import evolve_world
from repro.webgen.validate import validate_world


class TestValidation:
    def test_generated_worlds_validate(self, small_world):
        report = validate_world(small_world)
        assert report.ok, report.render()
        assert report.checks_run >= 10

    def test_validation_detects_corruption(self, small_world):
        # Corrupt a copy-ish: temporarily break one wall's region set.
        domain = sorted(small_world.wall_domains)[0]
        spec = small_world.sites[domain]
        original = spec.wall
        from repro.webgen.spec import WallSpec

        spec.wall = WallSpec(**{**original.__dict__,
                                "regions": frozenset({"USE"})})
        try:
            report = validate_world(small_world)
            assert not report.ok
            assert any(
                "invisible from the German VP" in str(v)
                for v in report.violations
            )
        finally:
            spec.wall = original

    def test_render(self, small_world):
        text = validate_world(small_world).render()
        assert "World validation" in text


class TestEvolve:
    @pytest.fixture(scope="class")
    def evolved(self):
        world = build_world(scale=0.05, seed=7)
        return world, *evolve_world(world, months=4)

    def test_original_untouched(self, evolved):
        original, later, summary = evolved
        fresh = build_world(scale=0.05, seed=7)
        assert original.wall_domains == fresh.wall_domains
        assert len(original.platforms["contentpass"].partner_domains) == (
            len(fresh.platforms["contentpass"].partner_domains)
        )

    def test_smp_rosters_grow(self, evolved):
        original, later, summary = evolved
        for name in ("contentpass", "freechoice"):
            before = len(original.platforms[name].partner_domains)
            after = len(later.platforms[name].partner_domains)
            assert after >= before
        assert summary.new_smp_partners["contentpass"] >= (
            summary.new_smp_partners["freechoice"]
        )

    def test_new_partner_sites_resolve_and_wall(self, evolved):
        from repro.bannerclick import BannerClick

        _, later, summary = evolved
        platform = later.platforms["contentpass"]
        new = [
            d for d in platform.partner_domains
            if d not in build_world(scale=0.05, seed=7).sites
        ]
        if not new:
            pytest.skip("no roster growth at this scale")
        page = later.browser("DE").visit(new[0])
        assert BannerClick().detect(page).is_cookiewall

    def test_wall_churn_recorded(self, evolved):
        _, later, summary = evolved
        for domain in summary.new_walls:
            assert later.sites[domain].banner is BannerKind.COOKIEWALL
            assert domain in later.wall_domains
        for domain in summary.dropped_walls:
            assert later.sites[domain].wall is None
            assert domain not in later.wall_domains

    def test_dead_sites_unreachable(self, evolved):
        from repro.errors import NavigationError

        _, later, summary = evolved
        if not summary.died:
            pytest.skip("no deaths at this scale")
        domain = summary.died[0]
        with pytest.raises(NavigationError):
            later.browser("DE").visit(domain)
        assert domain not in later.crawl_targets

    def test_summary_renders(self, evolved):
        _, _, summary = evolved
        text = summary.render()
        assert "drift" in text
        assert "partner websites" in text

    def test_bad_months(self, small_world):
        with pytest.raises(ValueError):
            evolve_world(small_world, months=0)

    def test_evolution_deterministic(self):
        world_a = build_world(scale=0.02, seed=9)
        world_b = build_world(scale=0.02, seed=9)
        _, summary_a = evolve_world(world_a, months=3)
        _, summary_b = evolve_world(world_b, months=3)
        assert summary_a.new_walls == summary_b.new_walls
        assert summary_a.died == summary_b.died

    def test_evolution_independent_of_hash_seed(self):
        """Wall drops and price changes sample from the wall-domain set;
        its iteration order varies with PYTHONHASHSEED, so the evolved
        world must not depend on it."""
        script = (
            "import json\n"
            "from repro.webgen import build_world\n"
            "from repro.webgen.evolve import evolve_world\n"
            "_, s = evolve_world(build_world(scale=0.05, seed=2023), months=4)\n"
            "print(json.dumps([s.price_changes, s.dropped_walls]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        summaries = []
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(src), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True, timeout=300,
            )
            summaries.append(json.loads(proc.stdout))
        assert summaries[0][0], "no price changes to compare"
        assert summaries[1] == summaries[0]
        assert summaries[2] == summaries[0]


class TestDataset:
    def test_export_and_load(self, small_world, tmp_path):
        visits = [
            VisitRecord(vp="DE", domain="a.de", is_cookiewall=True),
            VisitRecord(vp="DE", domain="b.de"),
        ]
        cookies = [
            CookieMeasurement(vp="DE", domain="a.de", mode="accept",
                              avg_tracking=40.0)
        ]
        ublock = [UBlockRecord(domain="a.de", suppressed=True)]
        directory = export_dataset(
            tmp_path / "bundle",
            world=small_world,
            visit_records=visits,
            cookie_measurements=cookies,
            ublock_records=ublock,
            description="test bundle",
        )
        dataset = load_dataset(directory)
        assert dataset.manifest["description"] == "test bundle"
        assert dataset.manifest["seed"] == small_world.config.seed
        assert len(list(dataset.iter_visit_records())) == 2
        assert dataset.cookiewall_domains() == ["a.de"]
        (cookie,) = dataset.iter_cookie_measurements()
        assert cookie.avg_tracking == 40.0
        (ublock_record,) = dataset.iter_ublock_records()
        assert ublock_record.suppressed
        assert len(dataset.toplists) == 7
        assert "doubleclick.net" in dataset.tracking_domains

    def test_toplists_round_trip_bucket(self, small_world, tmp_path):
        directory = export_dataset(tmp_path / "b", world=small_world)
        dataset = load_dataset(directory)
        original = small_world.toplists["DE"]
        loaded = dataset.toplists["DE"]
        assert loaded.domains() == original.domains()


class TestCliVerifyValidate:
    def test_validate_command(self, capsys):
        from repro.cli import main

        assert main(["validate", "--scale", "0.01", "--seed", "3"]) == 0
        assert "all invariants hold" in capsys.readouterr().out
