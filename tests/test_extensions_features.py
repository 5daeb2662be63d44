"""Tests for the extension features: Priv-Accept baseline, OpenWPM-style
instrumentation, bot detection, reject measurements, CrUX export,
and ad-block hit logging."""

import pytest

from repro.adblock import FilterEngine, easylist
from repro.bannerclick import BannerClick
from repro.bannerclick.priv_accept import PrivAccept, compare_detection
from repro.browser import Browser
from repro.httpkit import Request
from repro.measure.instrumentation import Event, EventLog
from repro.netsim import Network
from repro.vantage import VANTAGE_POINTS
from repro.webgen import BannerKind
from repro.webgen.crux import export_all, export_toplist, import_toplist
from tests.servers import StaticServer


def page_for(html, extra_hosts=()):
    net = Network()
    net.register("site.de", StaticServer(html))
    for host, server in extra_hosts:
        net.register(host, server)
    browser = Browser(net, VANTAGE_POINTS["DE"])
    return browser, browser.visit("site.de")


BANNER_MAIN = (
    '<div class="cookie-banner"><p>Wir verwenden Cookies.</p>'
    '<button data-action="accept" data-cookie="cmp_consent">'
    "Alle akzeptieren</button></div>"
)

BANNER_IFRAME = (
    '<iframe data-banner="1" srcdoc="&lt;div class=cookie-banner&gt;'
    "&lt;p&gt;Wir verwenden Cookies.&lt;/p&gt;"
    "&lt;button data-action=accept&gt;Alle akzeptieren&lt;/button&gt;"
    '&lt;/div&gt;"></iframe>'
)


class TestPrivAcceptBaseline:
    def test_finds_main_dom_accept(self):
        browser, page = page_for(BANNER_MAIN)
        result = PrivAccept().run(browser, page)
        assert result.accept_found and result.clicked
        assert browser.jar.has("cmp_consent", "site.de")

    def test_misses_iframe_banner(self):
        browser, page = page_for(BANNER_IFRAME)
        result = PrivAccept().run(browser, page)
        assert not result.accept_found
        # ... which BannerClick finds.
        assert BannerClick().detect(page).found

    def test_misses_shadow_banner(self):
        html = (
            '<div><template shadowrootmode="open">'
            '<div class="cookie-banner"><p>Cookies!</p>'
            '<button data-action="accept">Accept all</button></div>'
            "</template></div>"
        )
        browser, page = page_for(html)
        assert not PrivAccept().run(browser, page).accept_found
        assert BannerClick().detect(page).found

    def test_no_click_mode(self):
        browser, page = page_for(BANNER_MAIN)
        result = PrivAccept(click=False).run(browser, page)
        assert result.accept_found and not result.clicked
        assert not browser.jar.has("cmp_consent", "site.de")

    def test_compare_detection_on_world(self, medium_world):
        walls = sorted(medium_world.wall_domains)
        detector = BannerClick()
        stats = compare_detection(
            lambda: medium_world.browser("DE"), walls, detector
        )
        assert stats["total"] == len(walls)
        assert stats["bannerclick_found"] == len(walls)
        assert stats["walls_flagged_by_bannerclick"] == len(walls)
        # The baseline misses every iframe/shadow wall.
        main_walls = sum(
            1 for d in walls
            if medium_world.sites[d].wall.placement == "main"
        )
        assert stats["priv_accept_found"] <= main_walls
        assert stats["bannerclick_only"] >= len(walls) - main_walls


class TestInstrumentation:
    def test_event_log_records_navigation_and_requests(self):
        net = Network()
        net.register(
            "site.de",
            StaticServer(
                '<img src="https://tracker.net/p.gif">',
                set_cookies=["sid=1"],
            ),
        )
        net.register("tracker.net", StaticServer("x"))
        log = EventLog()
        browser = Browser(net, VANTAGE_POINTS["DE"], instruments=[log])
        browser.visit("site.de")
        assert len(log.by_kind("navigation")) == 1
        assert len(log.by_kind("request")) == 2
        assert len(log.by_kind("response")) == 2
        assert [
            e.detail["cookie_name"] for e in log.by_kind("set-cookie")
        ] == ["sid"]
        assert [
            e.url for e in log.by_kind("request") if e.detail["third_party"]
        ] == ["https://tracker.net/p.gif"]

    def test_blocked_and_failed_events(self):
        from repro.adblock import UBlockOrigin

        net = Network()
        net.register(
            "site.de",
            StaticServer(
                '<img src="https://doubleclick.net/p.gif">'
                '<img src="https://gone.zz/p.gif">'
            ),
        )
        log = EventLog()
        browser = Browser(
            net, VANTAGE_POINTS["DE"],
            extensions=[UBlockOrigin()], instruments=[log],
        )
        browser.visit("site.de")
        assert len(log.by_kind("blocked")) == 1
        assert len(log.by_kind("failed")) == 1

    def test_visits_are_separated(self):
        net = Network()
        net.register("site.de", StaticServer("<p>x</p>"))
        log = EventLog()
        browser = Browser(net, VANTAGE_POINTS["DE"], instruments=[log])
        browser.visit("site.de")
        browser.visit("site.de")
        assert len(log.visits()) == 2
        assert {e.visit_id for e in log.events} == set(log.visits())

    def test_save_load_round_trip(self, tmp_path):
        log = EventLog()
        log.events.append(Event("navigation", 1, "https://a.de/"))
        log.events.append(
            Event("request", 1, "https://b.net/x", {"third_party": True})
        )
        path = tmp_path / "events.jsonl"
        assert log.save(path) == 2
        loaded = EventLog.load(path)
        assert len(loaded) == 2
        assert loaded.events[1].detail["third_party"] is True

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog().by_kind("telepathy")

    def test_clear(self):
        log = EventLog()
        log.events.append(Event("navigation", 1, "https://a.de/"))
        log.clear()
        assert len(log) == 0


class TestBotDetection:
    def test_bot_sensitive_sites_exist(self, medium_world):
        assert any(s.bot_sensitive for s in medium_world.sites.values())

    def test_stealth_browser_passes(self, medium_world):
        domain = next(
            d for d, s in medium_world.sites.items()
            if s.bot_sensitive and s.reachable
        )
        page = medium_world.browser("DE", stealth=True).visit(domain)
        assert page.status == 200

    def test_naive_crawler_gets_challenge(self, medium_world):
        domain = next(
            d for d, s in medium_world.sites.items()
            if s.bot_sensitive and s.reachable
        )
        page = medium_world.browser("DE", stealth=False).visit(domain)
        assert page.status == 403
        assert "verify" in page.visible_text().lower()

    def test_bot_sensitive_wall_hidden_from_naive_crawler(self, medium_world):
        wall = next(
            (d for d in medium_world.wall_domains
             if medium_world.sites[d].bot_sensitive),
            None,
        )
        if wall is None:
            pytest.skip("no bot-sensitive wall at this scale")
        page = medium_world.browser("DE", stealth=False).visit(wall)
        assert not BannerClick().detect(page).is_cookiewall


class TestRejectMeasurement:
    def test_reject_suppresses_tracking(self, medium_world, medium_crawler):
        domain = next(
            d for d in medium_world.crawl_targets
            if medium_world.sites[d].banner is BannerKind.REGULAR
            and medium_world.sites[d].reject_button
            and medium_world.sites[d].ad_partners
        )
        rejected = medium_crawler.measure_reject_cookies("DE", domain, repeats=3)
        accepted = medium_crawler.measure_accept_cookies("DE", domain, repeats=3)
        assert rejected.avg_tracking == 0.0
        assert accepted.avg_third_party > rejected.avg_third_party

    def test_reject_on_wall_errors(self, medium_world, medium_crawler):
        domain = sorted(medium_world.wall_domains)[0]
        measurement = medium_crawler.measure_reject_cookies(
            "DE", domain, repeats=2
        )
        assert measurement.error == "MeasurementError"


class TestCruxExport:
    def test_round_trip(self, small_world, tmp_path):
        toplist = small_world.toplists["DE"]
        path = tmp_path / "crux_de.csv"
        rows = export_toplist(toplist, path)
        assert rows == len(toplist)
        loaded = import_toplist(path)
        assert loaded.country == "DE"
        assert loaded.domains() == toplist.domains()
        assert loaded.top_bucket == toplist.top_bucket
        for domain in toplist.domains("top1k"):
            assert loaded.bucket_of(domain) == "top1k"

    def test_export_all(self, small_world, tmp_path):
        paths = export_all(small_world.toplists, tmp_path)
        assert len(paths) == 7
        assert all(p.exists() for p in paths)

    def test_import_rejects_garbage(self, tmp_path):
        from repro.errors import ParseError

        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,toplist\n")
        with pytest.raises(ParseError):
            import_toplist(bad)


class TestAdblockLogger:
    def test_hit_counts(self):
        engine = FilterEngine()
        engine.add_list(easylist())
        request = Request(
            url="https://doubleclick.net/x.js",
            initiator="https://site.de/",
            resource_type="script",
        )
        assert engine.should_block(request)
        assert engine.should_block(request)
        assert engine.hit_counts.most_common(1) == [("||doubleclick.net^", 2)]

    def test_explain(self):
        engine = FilterEngine()
        engine.add_list("||blocked.net^")
        hit = Request(url="https://blocked.net/a", initiator="https://s.de/",
                      resource_type="script")
        miss = Request(url="https://fine.net/a", initiator="https://s.de/",
                       resource_type="script")
        assert engine.explain(hit) == "||blocked.net^"
        assert engine.explain(miss) is None
