"""Integration tests for the network simulator and browser."""


import pytest

from repro.browser import Browser, By, WebDriver
from repro.browser.effects import encode_effects
from repro.dom.selector import query_selector
from repro.errors import (
    ClosedShadowRootError,
    ConnectionRefused,
    DNSError,
    ElementNotInteractableError,
    NavigationError,
    NoSuchElementError,
)
from repro.httpkit import Request
from repro.netsim import Network, OriginServer, VisitorContext
from repro.vantage import VANTAGE_POINTS
from tests.servers import StaticServer


DE = VANTAGE_POINTS["DE"]


class EffectScriptServer(OriginServer):
    """Serves a DOM-effect payload for any path."""

    def __init__(self, effects):
        self.effects = effects
        self.requests_seen = 0

    def handle(self, request, visitor):
        self.requests_seen += 1
        return self.effects_response(request)

    def effects_response(self, request):
        return self.effects_(request)

    def effects_(self, request):
        return OriginServer.effects(request, encode_effects(self.effects))


class CookieSettingServer(OriginServer):
    def handle(self, request, visitor):
        response = OriginServer.pixel(request)
        response.add_cookie(f"uid=visitor{visitor.visit_id}; Max-Age=86400")
        return response


def make_network():
    network = Network()
    return network


class TestNetwork:
    def test_register_and_fetch(self):
        net = make_network()
        net.register("example.de", StaticServer("<p>hi</p>"))
        req = Request(url="https://www.example.de/")
        resp = net.fetch(req, VisitorContext(vp=DE))
        assert resp.ok and "hi" in resp.body

    def test_dns_error_for_unknown(self):
        net = make_network()
        with pytest.raises(DNSError):
            net.fetch(Request(url="https://nowhere.zz/"), VisitorContext(vp=DE))

    def test_unreachable(self):
        net = make_network()
        net.mark_unreachable("dead.de")
        with pytest.raises(ConnectionRefused):
            net.fetch(Request(url="https://dead.de/"), VisitorContext(vp=DE))

    def test_knows(self):
        net = make_network()
        net.register("example.de", StaticServer("x"))
        assert net.knows("www.example.de")
        assert not net.knows("other.net")

    def test_request_count(self):
        net = make_network()
        net.register("example.de", StaticServer("x"))
        net.fetch(Request(url="https://example.de/"), VisitorContext(vp=DE))
        assert net.request_count == 1


class TestBrowserNavigation:
    def test_visit_parses_document(self):
        net = make_network()
        net.register("example.de", StaticServer("<h1>Welcome</h1>"))
        browser = Browser(net, DE)
        page = browser.visit("example.de")
        assert "Welcome" in page.visible_text()
        assert page.url.host == "example.de"

    def test_visit_unknown_raises_navigation_error(self):
        browser = Browser(make_network(), DE)
        with pytest.raises(NavigationError):
            browser.visit("missing.zz")

    def test_document_cookies_stored(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer("<p>x</p>", set_cookies=["session=abc; Max-Age=60"]),
        )
        browser = Browser(net, DE)
        browser.visit("example.de")
        assert browser.jar.has("session", "example.de")

    def test_subresource_cookies_and_third_party(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer('<img src="https://tracker.net/p.gif"><p>x</p>'),
        )
        net.register("tracker.net", CookieSettingServer())
        browser = Browser(net, DE)
        page = browser.visit("example.de")
        assert browser.jar.has("uid", "tracker.net")
        third = [
            c for c in browser.jar.all_cookies() if c.site != "example.de"
        ]
        assert len(third) == 1
        assert len(page.requests) == 2

    def test_script_effects_append_html(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer('<script src="https://cmp.net/loader.js"></script><p>x</p>'),
        )
        net.register(
            "cmp.net",
            EffectScriptServer(
                [{"op": "append-html", "html": '<div id="wall">Pay or accept</div>'}]
            ),
        )
        browser = Browser(net, DE)
        page = browser.visit("example.de")
        assert query_selector(page.document, "#wall") is not None

    def test_effects_can_set_first_party_cookie(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer('<script src="https://cmp.net/l.js"></script>'),
        )
        net.register(
            "cmp.net",
            EffectScriptServer(
                [{"op": "set-page-cookie", "name": "consent", "value": "shown",
                  "scope": "site"}]
            ),
        )
        browser = Browser(net, DE)
        browser.visit("example.de")
        cookie = browser.jar.get("consent", "example.de")
        assert cookie is not None and cookie.value == "shown"

    def test_effect_loaded_resources_fetch(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer('<script src="https://adnet.com/l.js"></script>'),
        )
        net.register(
            "adnet.com",
            EffectScriptServer(
                [{"op": "load-resources",
                  "urls": ["https://sync1.net/p.gif", "https://sync2.net/p.gif"]}]
            ),
        )
        net.register("sync1.net", CookieSettingServer())
        net.register("sync2.net", CookieSettingServer())
        browser = Browser(net, DE)
        browser.visit("example.de")
        assert browser.jar.has("uid", "sync1.net")
        assert browser.jar.has("uid", "sync2.net")

    def test_remote_iframe_loads_and_nests(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer('<iframe src="https://frames.net/banner"></iframe>'),
        )
        net.register(
            "frames.net",
            StaticServer('<p>frame body</p><img src="https://tracker.net/i.gif">'),
        )
        net.register("tracker.net", CookieSettingServer())
        browser = Browser(net, DE)
        page = browser.visit("example.de")
        assert "frame body" in page.visible_text()
        assert browser.jar.has("uid", "tracker.net")

    def test_failed_subresource_recorded(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer('<img src="https://gone.zz/x.gif">'),
        )
        browser = Browser(net, DE)
        page = browser.visit("example.de")
        assert len(page.failed_requests) == 1

    def test_visit_ids_increment(self):
        net = make_network()
        net.register("example.de", CookieSettingServer())

        class HtmlCookieServer(OriginServer):
            def handle(self, request, visitor):
                resp = OriginServer.html(request, "<p>x</p>")
                resp.add_cookie(f"v=visit{visitor.visit_id}")
                return resp

        net.register("seq.de", HtmlCookieServer())
        browser = Browser(net, DE)
        browser.visit("seq.de")
        first = browser.jar.get("v", "seq.de").value
        browser.visit("seq.de")
        second = browser.jar.get("v", "seq.de").value
        assert first != second

    def test_clear_site_data(self):
        net = make_network()
        net.register(
            "example.de",
            StaticServer("<p>x</p>", set_cookies=["a=1; Max-Age=60"]),
        )
        browser = Browser(net, DE)
        browser.visit("example.de")
        assert browser.clear_site_data("example.de") == 1
        assert len(browser.jar) == 0


class TestClickSemantics:
    BANNER_HTML = (
        '<div data-banner="1" id="b">'
        '<p>We use cookies</p>'
        '<button id="acc" data-action="accept" data-cookie="consent">OK</button>'
        "</div><p>content</p>"
    )

    def make_browser(self, html=None):
        net = make_network()
        net.register("example.de", StaticServer(html or self.BANNER_HTML))
        return Browser(net, DE)

    def test_accept_sets_cookie_and_removes_banner(self):
        browser = self.make_browser()
        page = browser.visit("example.de")
        button = query_selector(page.document, "#acc")
        outcome = browser.click(page, button)
        assert outcome.action == "accept"
        assert outcome.removed_banner
        assert browser.jar.get("consent", "example.de").value == "accept"
        assert query_selector(page.document, "#b") is None

    def test_click_hidden_raises(self):
        browser = self.make_browser(
            '<button id="x" style="display:none" data-action="accept">A</button>'
        )
        page = browser.visit("example.de")
        with pytest.raises(ElementNotInteractableError):
            browser.click(page, query_selector(page.document, "#x"))

    def test_click_banner_in_iframe_removes_host(self):
        html = (
            '<iframe data-banner="1" id="host" '
            'srcdoc="&lt;button id=in data-action=accept&gt;OK&lt;/button&gt;">'
            "</iframe>"
        )
        browser = self.make_browser(html)
        page = browser.visit("example.de")
        iframe = query_selector(page.document, "#host")
        button = query_selector(iframe.content_document, "#in")
        outcome = browser.click(page, button)
        assert outcome.removed_banner
        assert query_selector(page.document, "#host") is None

    def test_click_banner_in_shadow_removes_host(self):
        html = (
            '<div data-banner="1" id="host"><template shadowrootmode="open">'
            '<button id="in" data-action="accept">OK</button>'
            "</template></div>"
        )
        browser = self.make_browser(html)
        page = browser.visit("example.de")
        host = query_selector(page.document, "#host")
        button = host.shadow_root.children[0]
        outcome = browser.click(page, button)
        assert outcome.removed_banner
        assert query_selector(page.document, "#host") is None

    def test_subscribe_click(self):
        browser = self.make_browser(
            '<button id="s" data-action="subscribe" '
            'data-href="https://smp.net/checkout">Subscribe</button>'
        )
        page = browser.visit("example.de")
        outcome = browser.click(page, query_selector(page.document, "#s"))
        assert outcome.navigate_to == "https://smp.net/checkout"
        assert page.flags["subscribe_clicked"]


class TestWebDriver:
    HTML = (
        '<div id="host"><template shadowrootmode="open">'
        '<button id="shadow-btn">Hidden</button></template></div>'
        '<div id="closed-host"><template shadowrootmode="closed">'
        '<button id="closed-btn">Secret</button></template></div>'
        '<iframe id="fr" srcdoc="&lt;button id=fb&gt;Frame&lt;/button&gt;"></iframe>'
        '<button id="top-btn">Top</button>'
    )

    def make_driver(self):
        net = make_network()
        net.register("example.de", StaticServer(self.HTML))
        browser = Browser(net, DE)
        page = browser.visit("example.de")
        return WebDriver(browser, page)

    def test_css_lookup_sees_only_main_context(self):
        driver = self.make_driver()
        buttons = driver.find_elements(By.CSS_SELECTOR, "button")
        assert [b.get_attribute("id") for b in buttons] == ["top-btn"]

    def test_xpath_lookup(self):
        driver = self.make_driver()
        assert driver.find_element(By.XPATH, "//button[@id='top-btn']")

    def test_missing_element_raises(self):
        driver = self.make_driver()
        with pytest.raises(NoSuchElementError):
            driver.find_element(By.CSS_SELECTOR, "#nope")

    def test_open_shadow_root_accessible(self):
        driver = self.make_driver()
        host = driver.find_element(By.ID, "host")
        inner = host.shadow_root.find_elements(By.CSS_SELECTOR, "button")
        assert [b.get_attribute("id") for b in inner] == ["shadow-btn"]

    def test_closed_shadow_root_raises(self):
        driver = self.make_driver()
        host = driver.find_element(By.ID, "closed-host")
        with pytest.raises(ClosedShadowRootError):
            _ = host.shadow_root

    def test_pierce_reaches_closed_root(self):
        driver = self.make_driver()
        host = driver.find_element(By.ID, "closed-host")
        ctx = driver.pierce_shadow_root(host)
        inner = ctx.find_elements(By.CSS_SELECTOR, "button")
        assert [b.get_attribute("id") for b in inner] == ["closed-btn"]

    def test_shadow_host_scans(self):
        driver = self.make_driver()
        assert len(driver.elements_with_shadow_root()) == 1
        assert len(driver.elements_with_any_shadow_root()) == 2

    def test_frame_switching(self):
        driver = self.make_driver()
        frame = driver.iframe_elements()[0]
        driver.switch_to_frame(frame)
        assert driver.find_element(By.ID, "fb").text == "Frame"
        driver.switch_to_default_content()
        assert driver.find_elements(By.ID, "fb") == []

    def test_clone_workaround_primitive(self):
        driver = self.make_driver()
        host = driver.find_element(By.ID, "closed-host")
        shadow = driver.pierce_shadow_root(host)
        body = driver.page.document.body
        for child in shadow.root.children:
            driver.execute_append_clone(child, body)
        found = driver.find_elements(By.CSS_SELECTOR, "#closed-btn")
        assert len(found) == 1
