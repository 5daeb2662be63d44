"""Tests for the filter parser, engine, and uBlock extension."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.adblock import (
    FilterEngine,
    NaiveFilterEngine,
    UBlockOrigin,
    annoyances_list,
    easylist,
    parse_filter_list,
)
from repro.adblock.filters import (
    parse_filter_line,
    good_filter_tokens,
    NetworkFilter,
    CosmeticFilter,
)
from repro.browser import Browser
from repro.errors import FilterSyntaxError
from repro.httpkit import Request
from repro.netsim import Network
from repro.vantage import VANTAGE_POINTS
from tests.servers import StaticServer


def req(url, initiator="https://site.de/", rtype="script"):
    return Request(url=url, initiator=initiator, resource_type=rtype)


class TestFilterParsing:
    def test_comment_lines_skipped(self):
        assert parse_filter_line("! comment") is None
        assert parse_filter_line("[Adblock Plus 2.0]") is None
        assert parse_filter_line("") is None

    def test_host_anchor(self):
        f = parse_filter_line("||ads.example.com^")
        assert isinstance(f, NetworkFilter)
        assert f.anchor_domain == "ads.example.com"

    def test_options(self):
        f = parse_filter_line("||t.net^$script,third-party")
        assert f.resource_types == {"script"}
        assert f.third_party is True

    def test_domain_option(self):
        f = parse_filter_line("||t.net^$domain=a.de|~b.de")
        assert f.include_domains == {"a.de"}
        assert f.exclude_domains == {"b.de"}

    def test_exception(self):
        f = parse_filter_line("@@||good.net^")
        assert f.is_exception

    def test_substring_wildcard(self):
        f = parse_filter_line("*cdn.opencmp.net/*")
        assert f.substring_regex is not None

    def test_cosmetic_generic(self):
        f = parse_filter_line("##.ad-banner")
        assert isinstance(f, CosmeticFilter)
        assert f.domains == set()

    def test_cosmetic_domain_specific(self):
        f = parse_filter_line("example.de,other.de##div[data-x]")
        assert f.domains == {"example.de", "other.de"}

    def test_cosmetic_exception(self):
        f = parse_filter_line("example.de#@#.ad-banner")
        assert f.is_exception

    @pytest.mark.parametrize("bad", ["$script", "##", "||^", "||a/b^", "||x^$frobnicate=1"])
    def test_syntax_errors(self, bad):
        with pytest.raises(FilterSyntaxError):
            parse_filter_line(bad)

    def test_parse_filter_list_splits_kinds(self):
        network, cosmetic = parse_filter_list(
            "||a.net^\n##.x\n! c\n@@||b.net^\nexample.de##.y\n"
        )
        assert len(network) == 2
        assert len(cosmetic) == 2


class TestMatching:
    def test_host_anchor_matches_subdomains(self):
        f = parse_filter_line("||tracker.net^")
        assert f.matches(req("https://tracker.net/a.js"))
        assert f.matches(req("https://cdn.tracker.net/a.js"))
        assert not f.matches(req("https://nottracker.net/a.js"))

    def test_type_option_restricts(self):
        f = parse_filter_line("||t.net^$image")
        assert f.matches(req("https://t.net/x.gif", rtype="image"))
        assert not f.matches(req("https://t.net/x.js", rtype="script"))

    def test_third_party_option(self):
        f = parse_filter_line("||site.de^$third-party")
        assert not f.matches(req("https://cdn.site.de/x.js", initiator="https://www.site.de/"))
        assert f.matches(req("https://cdn.site.de/x.js", initiator="https://other.de/"))

    def test_domain_option(self):
        f = parse_filter_line("||t.net^$domain=news.de")
        assert f.matches(req("https://t.net/x.js", initiator="https://www.news.de/"))
        assert not f.matches(req("https://t.net/x.js", initiator="https://blog.de/"))

    def test_substring_with_separator(self):
        f = parse_filter_line("*cdn.opencmp.net/*")
        assert f.matches(req("https://cdn.opencmp.net/cmp.js"))
        assert not f.matches(req("https://opencmp.net/cmp.js"))


class TestEngine:
    def make_engine(self):
        engine = FilterEngine()
        engine.add_list("||blockme.net^\n@@||blockme.net^$domain=trusted.de\n##.ad")
        return engine

    def test_block(self):
        engine = self.make_engine()
        assert engine.should_block(req("https://blockme.net/x.js"))

    def test_exception_overrides(self):
        engine = self.make_engine()
        r = req("https://blockme.net/x.js", initiator="https://trusted.de/")
        assert not engine.should_block(r)

    def test_cosmetic_selectors(self):
        engine = FilterEngine()
        engine.add_list("##.ad\nexample.de##.wall\nexample.de#@#.ad")
        assert engine.cosmetic_selectors("www.example.de") == [".wall"]
        assert engine.cosmetic_selectors("other.net") == [".ad"]


class TestFilterTokens:
    def test_bounded_runs_are_good(self):
        assert good_filter_tokens("/pixel?id=") == ["pixel", "id"]

    def test_edge_and_wildcard_runs_are_excluded(self):
        # "cdn" touches the start, "net" the "*": either could be a
        # fragment of a longer token in a matching URL.
        assert good_filter_tokens("cdn.opencmp.net*") == ["opencmp"]

    def test_separator_is_a_valid_boundary(self):
        assert good_filter_tokens("/ads^") == ["ads"]


@pytest.mark.parametrize("engine_cls", [FilterEngine, NaiveFilterEngine])
class TestHitCounting:
    def _engine(self, engine_cls):
        engine = engine_cls()
        engine.add_list("||blocked.net^\n@@||blocked.net^$domain=trusted.de\n")
        return engine

    def test_one_decision_counts_once(self, engine_cls):
        engine = self._engine(engine_cls)
        request = req("https://blocked.net/a.js")
        assert engine.should_block(request)
        # Introspection after the decision must not inflate the logger.
        assert engine.explain(request) == "||blocked.net^"
        assert engine.matching_filter(request).raw == "||blocked.net^"
        assert dict(engine.hit_counts) == {"||blocked.net^": 1}

    def test_exceptions_attribute_the_hit_to_the_allow_rule(self, engine_cls):
        engine = self._engine(engine_cls)
        request = req("https://blocked.net/a.js", initiator="https://trusted.de/")
        assert not engine.should_block(request)
        assert dict(engine.hit_counts) == {
            "@@||blocked.net^$domain=trusted.de": 1
        }

    def test_logger_ranking(self, engine_cls):
        engine = engine_cls()
        engine.add_list("||a.net^\n||b.net^\n")
        for _ in range(3):
            engine.should_block(req("https://a.net/x.js"))
        engine.should_block(req("https://b.net/x.js"))
        engine.explain(req("https://a.net/x.js"))  # must not count
        assert engine.hit_counts.most_common() == [("||a.net^", 3), ("||b.net^", 1)]

    def test_shared_engine_concurrent_counts_are_exact(self, engine_cls):
        """Regression: a shared engine under the parallel executor must
        not drop hit-count increments."""
        engine = engine_cls()
        engine.add_list("||hot.net^\n")
        request = req("https://hot.net/x.js")
        per_thread, threads = 500, 8
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(
                pool.map(
                    lambda _: [
                        engine.should_block(request) for _ in range(per_thread)
                    ],
                    range(threads),
                )
            )
        assert engine.hit_counts["||hot.net^"] == per_thread * threads


class TestBuiltinLists:
    def test_easylist_blocks_known_ad_domain(self):
        engine = FilterEngine()
        engine.add_list(easylist())
        assert engine.should_block(req("https://doubleclick.net/ads.js"))
        assert engine.should_block(req("https://sub.trackmax.com/t.js"))

    def test_easylist_does_not_block_cmp(self):
        engine = FilterEngine()
        engine.add_list(easylist())
        assert not engine.should_block(req("https://cdn.opencmp.net/cmp.js"))

    def test_annoyances_blocks_cmp_and_smp(self):
        engine = FilterEngine()
        engine.add_list(annoyances_list())
        assert engine.should_block(req("https://cdn.opencmp.net/cmp.js"))
        assert engine.should_block(req("https://cdn.contentpass.net/loader.js"))
        assert engine.should_block(req("https://cdn.freechoice.club/loader.js"))

    def test_annoyances_does_not_block_unlisted_cmp(self):
        engine = FilterEngine()
        engine.add_list(annoyances_list())
        assert not engine.should_block(req("https://cdn.privacyhub-cdn.com/l.js"))


class TestUBlockExtension:
    def test_blocks_tracker_requests_in_browser(self):
        net = Network()
        net.register(
            "site.de",
            StaticServer('<img src="https://doubleclick.net/p.gif"><p>x</p>'),
        )
        ublock = UBlockOrigin()
        browser = Browser(net, VANTAGE_POINTS["DE"], extensions=[ublock])
        page = browser.visit("site.de")
        assert len(page.blocked_requests) == 1
        assert ublock.blocked_count == 1
        assert not browser.jar.has("uid", "doubleclick.net")

    def test_never_blocks_documents(self):
        net = Network()
        net.register("doubleclick.net", StaticServer("<p>landing</p>"))
        browser = Browser(
            net, VANTAGE_POINTS["DE"], extensions=[UBlockOrigin()]
        )
        page = browser.visit("doubleclick.net")
        assert page.status == 200

    def test_cosmetic_filtering_removes_elements(self):
        net = Network()
        net.register(
            "site.de",
            StaticServer('<div class="ad-banner-top">buy</div><p>body</p>'),
        )
        browser = Browser(net, VANTAGE_POINTS["DE"], extensions=[UBlockOrigin()])
        page = browser.visit("site.de")
        assert "buy" not in page.visible_text()

    def test_annoyances_flag(self):
        assert UBlockOrigin().annoyances_enabled is False
        assert UBlockOrigin(annoyances=True).annoyances_enabled is True
