"""Tests for the measurement harness (crawls, cookies, storage)."""

import json

import pytest

from repro.measure import (
    CookieCounts,
    count_cookies,
    load_records,
    save_records,
)
from repro.measure import accuracy
from repro.measure.accuracy import evaluate_records, random_audit
from repro.measure.records import CookieMeasurement, UBlockRecord, VisitRecord
from repro.blocklists import JustDomainsList
from repro.httpkit import Cookie, CookieJar
from repro.webgen import BannerKind


class TestCookieCounting:
    def make_jar(self):
        jar = CookieJar()
        jar.set_cookie(Cookie(name="a", value="1", domain="site.de"))
        jar.set_cookie(Cookie(name="b", value="1", domain="cdnedge.net"))
        jar.set_cookie(Cookie(name="c", value="1", domain="trackmax.com"))
        return jar

    def test_partition(self):
        counts = count_cookies(
            self.make_jar(), "site.de", JustDomainsList(["trackmax.com"])
        )
        assert counts == CookieCounts(first_party=1, third_party=2, tracking=1)

    def test_baseline_subtraction(self):
        jar = self.make_jar()
        baseline = jar.snapshot()
        jar.set_cookie(Cookie(name="new", value="1", domain="site.de"))
        counts = count_cookies(
            jar, "site.de", JustDomainsList([]), baseline=baseline
        )
        assert counts.first_party == 1
        assert counts.third_party == 0


class TestDetectionVisit:
    def test_wall_visit_record(self, medium_world, medium_crawler):
        domain = sorted(medium_world.wall_domains)[0]
        record = medium_crawler.visit("DE", domain)
        assert record.is_cookiewall
        assert record.banner_text
        assert record.detected_language != "und"

    def test_unreachable_recorded(self, medium_world, medium_crawler):
        dead = next(
            d for d, s in medium_world.sites.items() if not s.reachable
        )
        record = medium_crawler.visit("DE", dead)
        assert not record.reachable
        assert record.error

    def test_regular_site_record(self, medium_world, medium_crawler):
        domain = next(
            d for d in medium_world.crawl_targets
            if medium_world.sites[d].banner is BannerKind.REGULAR
            and medium_world.sites[d].reject_button
        )
        record = medium_crawler.visit("DE", domain)
        assert record.banner_found
        assert not record.is_cookiewall
        assert record.has_accept

    def test_eu_only_wall_invisible_from_us(self, medium_world, medium_crawler):
        eu_only = [
            d for d in medium_world.wall_domains
            if "USE" not in medium_world.sites[d].wall.regions
        ]
        if not eu_only:
            pytest.skip("no EU-only wall at this scale")
        record = medium_crawler.visit("USE", eu_only[0])
        assert not record.is_cookiewall

    def test_crawl_vp_returns_all_records(self, medium_world, medium_crawler):
        from repro.api import Session

        plan = medium_crawler.plan_detection_crawl(
            ["DE"], medium_world.crawl_targets[:30]
        )
        records = Session(medium_world, crawler=medium_crawler).execute(
            plan
        ).records
        assert len(records) == 30
        assert all(r.vp == "DE" for r in records)


class TestAcceptMeasurement:
    def test_wall_accept_measurement(self, medium_world, medium_crawler):
        domain = sorted(medium_world.wall_domains)[0]
        m = medium_crawler.measure_accept_cookies("DE", domain, repeats=3)
        assert m.repeats == 3
        assert m.avg_first_party > 0
        assert m.avg_tracking > 0
        assert m.avg_third_party >= m.avg_tracking

    def test_accept_more_cookies_than_no_accept(self, medium_world, medium_crawler):
        domain = sorted(medium_world.wall_domains)[0]
        accepted = medium_crawler.measure_accept_cookies("DE", domain, repeats=2)
        # A plain visit (wall shown, nothing clicked) sets no trackers.
        jar = CookieJar()
        browser = medium_world.browser("DE", jar=jar)
        page = browser.visit(domain)
        plain = count_cookies(jar, page.site, medium_world.tracking_list)
        assert plain.tracking == 0
        assert accepted.avg_tracking > 0

    def test_repeat_averages_vary_fraction(self, medium_world, medium_crawler):
        domain = sorted(medium_world.wall_domains)[1]
        m = medium_crawler.measure_accept_cookies("DE", domain, repeats=5)
        assert len(m.per_visit) == 5


class TestSubscriptionMeasurement:
    def test_subscription_suppresses_tracking(self, medium_world, medium_crawler):
        platform = medium_world.platforms["contentpass"]
        if "t@e.st" not in platform.accounts:
            platform.create_account("t@e.st", "pw")
        platform.purchase_subscription("t@e.st")
        partner = platform.partner_domains[0]
        m = medium_crawler.measure_subscription_cookies(
            "DE", partner, platform, "t@e.st", "pw", repeats=3
        )
        assert m.error is None
        assert m.avg_tracking == 0.0
        assert m.avg_first_party > 0

    def test_bad_credentials_error(self, medium_world, medium_crawler):
        platform = medium_world.platforms["contentpass"]
        partner = platform.partner_domains[0]
        m = medium_crawler.measure_subscription_cookies(
            "DE", partner, platform, "wrong@e.st", "nope", repeats=2
        )
        assert m.error == "MeasurementError"
        assert m.repeats == 0

    def test_consent_overrides_subscription(self, medium_world):
        """Paper §5: accepted-then-subscribed users keep being tracked
        until they clear the site's cookies."""
        platform = medium_world.platforms["contentpass"]
        if "t2@e.st" not in platform.accounts:
            platform.create_account("t2@e.st", "pw")
        platform.purchase_subscription("t2@e.st")
        partner = platform.partner_domains[0]
        jar = CookieJar()
        browser = medium_world.browser("DE", jar=jar)
        browser.visit(
            f"https://{platform.domain}/login?email=t2@e.st&password=pw"
        )
        # Simulate an earlier "accept" on this site.
        spec = medium_world.sites[partner]
        jar.set_cookie(
            Cookie(name=spec.consent_cookie, value="accept", domain=partner,
                   host_only=False)
        )
        browser.visit(partner)
        counts = count_cookies(jar, partner, medium_world.tracking_list)
        assert counts.tracking > 0  # still tracked despite subscription
        # Clearing site data and revisiting restores the subscription path.
        browser.clear_site_data(partner)
        before = jar.snapshot()
        browser.visit(partner)
        counts = count_cookies(
            jar, partner, medium_world.tracking_list, baseline=before
        )
        assert counts.tracking == 0


class TestUBlockMeasurement:
    def test_smp_wall_suppressed(self, medium_world, medium_crawler):
        smp_wall = next(
            d for d in sorted(medium_world.wall_domains)
            if medium_world.sites[d].wall.serving == "smp"
        )
        record = medium_crawler.measure_ublock("DE", smp_wall, iterations=2)
        assert record.suppressed

    def test_inline_wall_not_suppressed(self, medium_world, medium_crawler):
        inline = next(
            (d for d in sorted(medium_world.wall_domains)
             if medium_world.sites[d].wall.serving == "inline"),
            None,
        )
        if inline is None:
            pytest.skip("no inline wall at this scale")
        record = medium_crawler.measure_ublock("DE", inline, iterations=2)
        assert not record.suppressed


class TestAccuracy:
    def test_evaluate_records(self, medium_world):
        records = [
            VisitRecord(vp="DE", domain=d, is_cookiewall=True)
            for d in medium_world.wall_domains
        ]
        records.append(
            VisitRecord(vp="DE", domain=list(medium_world.bait_domains)[0],
                        is_cookiewall=True)
        )
        report = evaluate_records(medium_world, records)
        assert report.true_positives == len(medium_world.wall_domains)
        assert report.false_positives == 1
        assert report.recall == 1.0
        assert report.precision < 1.0

    def test_random_audit(self, medium_world, medium_crawler):
        report = random_audit(
            medium_world, medium_crawler, sample_size=120, seed=5
        )
        assert report.recall == 1.0
        assert report.false_negatives == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_audit_revisits_reproduce_crawl_records(self, seed, monkeypatch):
        # The accuracy experiment's audit re-visits DE domains the
        # detection crawl already recorded.  The re-visits produce the
        # same records; they still cannot simply be reused, because
        # skipping them shifts the shared serial visit-id counter that
        # later cookie measurements draw from.
        from repro.experiments.context import ExperimentContext
        from repro.webgen import build_world

        world = build_world(scale=0.01, seed=seed)
        ctx = ExperimentContext(world, vps=["DE"])
        crawled = {
            r.domain: json.dumps(r.to_dict(), sort_keys=True)
            for r in ctx.iter_detection_records("DE")
        }
        audited = []

        def capture(world_, records):
            audited.extend(records)
            return evaluate_records(world_, records)

        monkeypatch.setattr(accuracy, "evaluate_records", capture)
        sample_size = min(1000, len(world.crawl_targets))
        random_audit(world, ctx.crawler, vp="DE", sample_size=sample_size)
        assert len(audited) == sample_size
        assert [
            json.dumps(r.to_dict(), sort_keys=True) for r in audited
        ] == [crawled[r.domain] for r in audited]


class TestStorage:
    def test_round_trip(self, tmp_path):
        records = [
            VisitRecord(vp="DE", domain="a.de", is_cookiewall=True),
            CookieMeasurement(vp="DE", domain="a.de", mode="accept",
                              repeats=5, avg_tracking=42.5),
            UBlockRecord(domain="a.de", iterations=5, suppressed=True),
        ]
        path = tmp_path / "out" / "records.jsonl"
        assert save_records(records, path) == 3
        loaded = load_records(path)
        assert len(loaded) == 3
        assert isinstance(loaded[0], VisitRecord)
        assert loaded[1].avg_tracking == 42.5
        assert loaded[2].suppressed

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "Mystery", "data": {}}\n')
        with pytest.raises(ValueError):
            load_records(path)

    def test_append_mode_streams_shards(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        save_records([VisitRecord(vp="DE", domain="a.de")], path)
        save_records(
            [VisitRecord(vp="DE", domain="b.de")], path, append=True
        )
        save_records(
            [VisitRecord(vp="SE", domain="c.se")], path, append=True
        )
        assert [r.domain for r in load_records(path)] == [
            "a.de", "b.de", "c.se",
        ]

    def test_append_creates_missing_file(self, tmp_path):
        path = tmp_path / "fresh" / "records.jsonl"
        save_records([VisitRecord(vp="DE", domain="a.de")], path, append=True)
        assert len(load_records(path)) == 1

    def test_iter_records_is_lazy(self, tmp_path):
        from repro.measure import iter_records

        path = tmp_path / "lazy.jsonl"
        save_records(
            [VisitRecord(vp="DE", domain=f"site{i}.de") for i in range(5)],
            path,
        )
        iterator = iter_records(path)
        assert next(iterator).domain == "site0.de"
        assert sum(1 for _ in iterator) == 4

    def test_torn_trailing_line_skipped_with_warning(self, tmp_path):
        """The crash-mid-write case resume depends on: a writer dying
        mid-append leaves truncated JSON on the last line, which the
        reader skips (with a warning) instead of raising."""
        from repro.measure import TornRecordWarning, iter_records

        path = tmp_path / "torn.jsonl"
        save_records(
            [VisitRecord(vp="DE", domain=f"site{i}.de") for i in range(3)],
            path,
        )
        whole = path.read_text(encoding="utf-8")
        path.write_text(whole + whole.splitlines()[0][:37],
                        encoding="utf-8")
        with pytest.warns(TornRecordWarning, match="torn trailing line"):
            records = list(iter_records(path))
        assert [r.domain for r in records] == [
            "site0.de", "site1.de", "site2.de",
        ]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        """Only the *final* line gets torn-write tolerance; garbage
        followed by more records is real corruption."""
        path = tmp_path / "corrupt.jsonl"
        save_records(
            [VisitRecord(vp="DE", domain=f"site{i}.de") for i in range(2)],
            path,
        )
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(
            lines[0] + lines[1][:25] + "\n" + lines[0], encoding="utf-8"
        )
        with pytest.raises(ValueError, match="invalid JSON mid-file"):
            load_records(path)


class TestMergedJsonl:
    """Edge cases of the journal join (`iter_journal_runs` /
    `merge_record_spools`): the shapes a crashed, resumed or tiny crawl
    leaves in a journal."""

    @staticmethod
    def _journal(tmp_path, runs_of_records, *, lead="", trail=""):
        """Write one sorted run per entry of *runs_of_records* (each a
        list of ``(index, record)``; a ``None`` record is a failure),
        with *lead* before the runs and *trail* inside each run after
        its outcomes; returns the path and the runs' byte ranges."""
        from repro.measure.storage import encode_record_line

        path = tmp_path / "out.jsonl.journal"
        runs = []
        with path.open("wb") as handle:
            handle.write(lead.encode("utf-8"))
            for records_by_index in runs_of_records:
                start = handle.tell()
                for index, record in records_by_index:
                    line = (
                        '{"kind": "outcome", "index": %d, "error": %s, '
                        '"record": %s}\n' % (
                            index,
                            '"NetworkError"' if record is None else "null",
                            "null" if record is None
                            else encode_record_line(record),
                        )
                    )
                    handle.write(line.encode("utf-8"))
                handle.write(trail.encode("utf-8"))
                runs.append((start, handle.tell()))
        return path, runs

    @staticmethod
    def _records(indices):
        return [
            (i, VisitRecord(vp="DE", domain=f"site{i}.de")) for i in indices
        ]

    def test_latest_run_wins_and_failures_come_from_the_join(self, tmp_path):
        """A shard re-run after a crash appends a second outcome for
        the same index: the later one is written, and only latest-wins
        failures reach *on_failure*."""
        from repro.measure.storage import merge_record_spools

        journal, runs = self._journal(tmp_path, [
            [(0, None), (1, None), (2, VisitRecord(vp="DE", domain="old.de"))],
            [(0, VisitRecord(vp="DE", domain="site0.de"))]
            + self._records([2]),
        ])
        out = tmp_path / "merged.jsonl"
        failed = []
        count = merge_record_spools(
            journal, runs, out,
            on_failure=lambda index, payload: failed.append(index),
        )
        assert count == 2
        assert [r.domain for r in load_records(out)] == [
            "site0.de", "site2.de",
        ]
        assert failed == [1]

    def test_torn_tail_past_the_last_run_is_never_read(self, tmp_path):
        """A writer that died mid-append never recorded that run: the
        join reads only recorded byte ranges, so the torn tail neither
        poisons nor warns."""
        import warnings

        from repro.measure.storage import merge_record_spools

        journal, runs = self._journal(
            tmp_path, [self._records([0, 2, 4]), self._records([1, 3])]
        )
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "outcome", "index": 5, "rec')
        out = tmp_path / "merged.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count = merge_record_spools(journal, runs, out)
        assert count == 5
        assert [r.domain for r in load_records(out)] == [
            f"site{i}.de" for i in range(5)
        ]

    def test_breaker_lines_inside_runs_are_skipped(self, tmp_path):
        """A checkpoint journal starts with its header and ends each run
        with a breaker snapshot; the join writes records only."""
        from repro.measure.storage import merge_record_spools

        journal, runs = self._journal(
            tmp_path,
            [self._records([0, 2]), self._records([1])],
            lead='{"kind": "header", "version": 1, "fingerprint": "f"}\n',
            trail='{"kind": "breaker", "domains": {}}\n',
        )
        out = tmp_path / "merged.jsonl"
        count = merge_record_spools(journal, runs, out)
        assert count == 3
        assert [r.domain for r in load_records(out)] == [
            "site0.de", "site1.de", "site2.de",
        ]

    def test_single_shard_merge_is_byte_identical_passthrough(
        self, tmp_path
    ):
        """shards=1 degenerates to a copy: the join of one run must
        reproduce `save_records` over the same records byte for byte."""
        from repro.measure.storage import merge_record_spools

        records = [r for _, r in self._records(range(4))]
        journal, runs = self._journal(tmp_path, [self._records(range(4))])
        out = tmp_path / "merged.jsonl"
        oracle = tmp_path / "oracle.jsonl"
        assert merge_record_spools(journal, runs, out) == 4
        save_records(records, oracle)
        assert out.read_bytes() == oracle.read_bytes()

    def test_failed_join_keeps_previous_output_and_no_temp(self, tmp_path):
        """An invalid payload mid-join aborts the merge: the previous
        complete output keeps its bytes and no scratch file is left."""
        from repro.measure.storage import merge_record_spools

        journal, runs = self._journal(tmp_path, [self._records([0, 2])])
        with journal.open("a", encoding="utf-8") as handle:
            start = handle.tell()
            handle.write(
                '{"kind": "outcome", "index": 1, '
                '"record": {"type": "Bogus", "data": {}}}\n'
            )
            runs.append((start, handle.tell()))
        out = tmp_path / "merged.jsonl"
        out.write_text("previous complete output\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown record type"):
            merge_record_spools(journal, runs, out)
        assert out.read_text(encoding="utf-8") == "previous complete output\n"
        assert list(tmp_path.glob("*.tmp")) == []
