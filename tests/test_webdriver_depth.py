"""Deeper WebDriver and netsim behaviour tests."""

import pytest

from repro.browser import Browser, By, WebDriver
from repro.dom import Element
from repro.dom.selector import query_selector
from repro.errors import NoSuchElementError
from repro.netsim import Network, OriginServer, VisitorContext
from repro.vantage import VANTAGE_POINTS, Regulation, get_vantage_point
from tests.servers import StaticServer


def make_driver(html):
    net = Network()
    net.register("drv.de", StaticServer(html))
    browser = Browser(net, VANTAGE_POINTS["DE"])
    page = browser.visit("drv.de")
    return WebDriver(browser, page)


class TestLocators:
    HTML = (
        '<div id="a" class="x"><span class="y">one</span></div>'
        '<span class="y">two</span>'
    )

    def test_tag_name(self):
        driver = make_driver(self.HTML)
        assert len(driver.find_elements(By.TAG_NAME, "span")) == 2

    def test_id_locator(self):
        driver = make_driver(self.HTML)
        assert driver.find_element(By.ID, "a").tag_name == "div"

    def test_unknown_strategy(self):
        driver = make_driver(self.HTML)
        with pytest.raises(ValueError):
            driver.find_elements("by vibes", "x")

    def test_element_text_and_attrs(self):
        driver = make_driver(self.HTML)
        el = driver.find_element(By.CSS_SELECTOR, "#a span")
        assert el.text == "one"
        assert el.get_attribute("class") == "y"
        assert el.is_displayed()

    def test_page_source_round_trips(self):
        driver = make_driver(self.HTML)
        assert 'id="a"' in driver.page_source


class TestFrameContext:
    HTML = (
        '<iframe id="f1" srcdoc="&lt;p id=inner&gt;in frame&lt;/p&gt;"></iframe>'
        '<p id="outer">outside</p>'
    )

    def test_context_isolation(self):
        driver = make_driver(self.HTML)
        assert driver.find_elements(By.ID, "inner") == []
        driver.switch_to_frame(driver.iframe_elements()[0])
        assert driver.find_element(By.ID, "inner").text == "in frame"
        assert driver.find_elements(By.ID, "outer") == []

    def test_switch_to_unloaded_frame_raises(self):
        driver = make_driver('<iframe id="empty"></iframe><p>x</p>')
        empty = driver.find_element(By.ID, "empty")
        with pytest.raises(NoSuchElementError):
            driver.switch_to_frame(empty)

    def test_default_content_restores(self):
        driver = make_driver(self.HTML)
        driver.switch_to_frame(driver.iframe_elements()[0])
        driver.switch_to_default_content()
        assert driver.find_element(By.ID, "outer").text == "outside"


class TestVantagePoints:
    def test_get_vantage_point(self):
        assert get_vantage_point("DE").city == "Frankfurt"
        with pytest.raises(KeyError):
            get_vantage_point("MARS")

    def test_regulations(self):
        assert get_vantage_point("DE").regulation is Regulation.GDPR
        assert get_vantage_point("USW").regulation is Regulation.CCPA
        assert get_vantage_point("BR").regulation is Regulation.LGPD
        assert get_vantage_point("USE").regulation is Regulation.NONE

    def test_eu_flags(self):
        eu = [vp.code for vp in VANTAGE_POINTS.values() if vp.in_eu]
        assert sorted(eu) == ["DE", "SE"]

    def test_str(self):
        assert "Frankfurt" in str(get_vantage_point("DE"))


class GeoServer(OriginServer):
    """Serves different content per visitor region."""

    def handle(self, request, visitor):
        if visitor.vp.in_eu:
            return self.html(request, "<p>eu content</p>")
        return self.html(request, "<p>global content</p>")


class TestGeoDependence:
    def test_servers_see_vantage_point(self):
        net = Network()
        net.register("geo.de", GeoServer())
        eu_page = Browser(net, VANTAGE_POINTS["DE"]).visit("geo.de")
        us_page = Browser(net, VANTAGE_POINTS["USE"]).visit("geo.de")
        assert "eu content" in eu_page.visible_text()
        assert "global content" in us_page.visible_text()

    def test_visitor_context_bot_flag(self):
        ctx = VisitorContext(vp=VANTAGE_POINTS["DE"], stealth=False)
        assert ctx.looks_like_bot
        assert not VisitorContext(vp=VANTAGE_POINTS["DE"]).looks_like_bot
        crawler_ua = VisitorContext(
            vp=VANTAGE_POINTS["DE"],
            user_agent="HeadlessCrawler/1.0",
        )
        assert crawler_ua.looks_like_bot


class TestClickBehaviourHook:
    def test_on_click_callback_runs(self):
        net = Network()
        net.register(
            "drv.de",
            StaticServer('<button id="b" data-action="dismiss">x</button>'),
        )
        browser = Browser(net, VANTAGE_POINTS["DE"])
        page = browser.visit("drv.de")
        # The visit serves a shared read-only parse: take the page's
        # private copy before installing a hook on it.
        button = page.writable(query_selector(page.document, "#b"))
        fired = []
        button.on_click = lambda el: fired.append(el.id)
        browser.click(page, button)
        assert fired == ["b"]

    def test_click_on_clone_preserves_hook(self):
        el = Element("button")
        el.on_click = lambda e: None
        assert el.clone().on_click is el.on_click
