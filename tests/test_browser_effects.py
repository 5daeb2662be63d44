"""Edge-case tests for the browser's DOM-effect runtime and pipeline."""

import pytest

from repro.browser import Browser
from repro.browser.effects import (
    EffectRuntime,
    decode_effects,
    encode_effects,
)
from repro.dom.selector import query_selector
from repro.errors import ParseError
from repro.netsim import Network, OriginServer
from repro.vantage import VANTAGE_POINTS
from tests.servers import StaticServer


class EffectServer(OriginServer):
    def __init__(self, effects):
        self.payload = encode_effects(effects)

    def handle(self, request, visitor):
        return self.effects(request, self.payload)


def load_page(html, effect_hosts=None):
    net = Network()
    net.register("site.de", StaticServer(html))
    for host, effects in (effect_hosts or {}).items():
        net.register(host, EffectServer(effects))
    browser = Browser(net, VANTAGE_POINTS["DE"])
    return browser, browser.visit("site.de")


class TestEffectCodec:
    def test_round_trip(self):
        effects = [{"op": "lock-scroll"}, {"op": "set-flag", "key": "k"}]
        assert decode_effects(encode_effects(effects)) == effects

    def test_empty_body(self):
        assert decode_effects("") == []
        assert decode_effects("  ") == []

    @pytest.mark.parametrize(
        "bad", ['{"op": "x"}', "[1, 2]", '[{"noop": 1}]', "not json"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            decode_effects(bad)


class TestEffectOps:
    def test_append_html_to_selector_target(self):
        _, page = load_page(
            '<div id="slot"></div>'
            '<script src="https://fx.net/e.js"></script>',
            {
                "fx.net": [
                    {"op": "append-html", "target": "#slot",
                     "html": "<p>injected</p>"}
                ]
            },
        )
        slot = query_selector(page.document, "#slot")
        assert "injected" in slot.text_content()

    def test_append_html_missing_target_is_noop(self):
        _, page = load_page(
            '<script src="https://fx.net/e.js"></script>',
            {"fx.net": [{"op": "append-html", "target": "#ghost",
                         "html": "<p>lost</p>"}]},
        )
        assert "lost" not in page.visible_text()

    def test_injected_resources_are_loaded(self):
        net = Network()
        net.register(
            "site.de",
            StaticServer('<script src="https://fx.net/e.js"></script>'),
        )
        net.register(
            "fx.net",
            EffectServer(
                [{"op": "append-html",
                  "html": '<img src="https://pix.net/p.gif">'}]
            ),
        )
        net.register("pix.net", StaticServer("gif"))
        browser = Browser(net, VANTAGE_POINTS["DE"])
        page = browser.visit("site.de")
        assert any("pix.net" in str(r.url) for r in page.requests)

    def test_remove_effect(self):
        _, page = load_page(
            '<div class="promo">ad</div>'
            '<script src="https://fx.net/e.js"></script>',
            {"fx.net": [{"op": "remove", "target": ".promo"}]},
        )
        assert "ad" not in page.visible_text()

    def test_set_flag(self):
        _, page = load_page(
            '<script src="https://fx.net/e.js"></script>',
            {"fx.net": [{"op": "set-flag", "key": "marker", "value": 7}]},
        )
        assert page.flags["marker"] == 7

    def test_lock_scroll_sets_body_style(self):
        _, page = load_page(
            '<script src="https://fx.net/e.js"></script>',
            {"fx.net": [{"op": "lock-scroll"}]},
        )
        assert page.scroll_locked
        assert page.scroll_locked
        assert "overflow:hidden" in (page.document.body.get_attribute("style") or "")

    def test_if_blocked_else_branch(self):
        _, page = load_page(
            '<script src="https://fx.net/e.js"></script>',
            {
                "fx.net": [
                    {"op": "if-blocked", "pattern": "never-blocked",
                     "then": [{"op": "set-flag", "key": "then"}],
                     "else": [{"op": "set-flag", "key": "else"}]}
                ]
            },
        )
        assert "else" in page.flags and "then" not in page.flags

    def test_set_page_cookie_requires_name(self):
        _, page = load_page("<p>x</p>")
        runtime = EffectRuntime(page)
        with pytest.raises(ParseError):
            runtime.apply([{"op": "set-page-cookie"}])

    def test_unknown_op_raises(self):
        _, page = load_page("<p>x</p>")
        runtime = EffectRuntime(page)
        with pytest.raises(ParseError):
            runtime.apply([{"op": "teleport"}])


class TestPipelineEdgeCases:
    def test_frame_depth_limit(self):
        # A frame that embeds itself would recurse forever without a cap.
        net = Network()
        net.register(
            "site.de",
            StaticServer('<iframe src="https://loop.net/f"></iframe>'),
        )
        net.register(
            "loop.net",
            StaticServer('<iframe src="https://loop.net/f"></iframe>'),
        )
        browser = Browser(net, VANTAGE_POINTS["DE"])
        page = browser.visit("site.de")  # must terminate
        assert page.status == 200

    def test_duplicate_elements_fetched_once(self):
        net = Network()

        class CountingServer(OriginServer):
            def __init__(self):
                self.hits = 0

            def handle(self, request, visitor):
                self.hits += 1
                return self.pixel(request)

        counter = CountingServer()
        net.register("site.de", StaticServer(
            '<img id="i" src="https://pix.net/p.gif">'
        ))
        net.register("pix.net", counter)
        browser = Browser(net, VANTAGE_POINTS["DE"])
        browser.visit("site.de")
        assert counter.hits == 1

    def test_stylesheet_links_fetched(self):
        net = Network()
        net.register(
            "site.de",
            StaticServer('<link rel="stylesheet" href="https://cdn.net/a.css">'),
        )
        net.register("cdn.net", StaticServer("body{}"))
        browser = Browser(net, VANTAGE_POINTS["DE"])
        page = browser.visit("site.de")
        assert any(r.resource_type == "stylesheet" for r in page.requests)

    def test_non_stylesheet_links_ignored(self):
        net = Network()
        net.register(
            "site.de",
            StaticServer('<link rel="icon" href="https://cdn.net/i.png">'),
        )
        browser = Browser(net, VANTAGE_POINTS["DE"])
        page = browser.visit("site.de")
        assert len(page.requests) == 1  # only the document

    def test_server_error_page_raises(self):
        net = Network()
        net.register("site.de", StaticServer("boom", status=500))
        browser = Browser(net, VANTAGE_POINTS["DE"])
        from repro.errors import NavigationError

        with pytest.raises(NavigationError):
            browser.visit("site.de")

    def test_404_page_returned(self):
        net = Network()
        net.register("site.de", StaticServer("gone", status=404))
        browser = Browser(net, VANTAGE_POINTS["DE"])
        page = browser.visit("site.de")
        assert page.status == 404

    def test_all_documents_iterates_frames(self):
        html = (
            '<iframe srcdoc="&lt;iframe srcdoc=&amp;quot;&lt;p&gt;deep'
            '&lt;/p&gt;&amp;quot;&gt;&lt;/iframe&gt;"></iframe>'
        )
        _, page = load_page(html)
        docs = list(page.all_documents())
        assert len(docs) >= 2
