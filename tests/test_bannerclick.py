"""Tests for the BannerClick detector and cookiewall classifier."""

import pytest

from repro.bannerclick import (
    BannerClick,
    accept_banner,
    find_currency_amounts,
    has_cookiewall_words,
    reject_banner,
)
from repro.bannerclick.corpus import has_accept_words, has_banner_words
from repro.browser import Browser
from repro.dom.selector import query_selector
from repro.errors import MeasurementError
from repro.netsim import Network
from repro.vantage import VANTAGE_POINTS
from repro.webgen import BannerKind
from tests.servers import StaticServer


def page_for(html):
    net = Network()
    net.register("site.de", StaticServer(html))
    browser = Browser(net, VANTAGE_POINTS["DE"])
    return browser, browser.visit("site.de")


WALL_TEXT = (
    "Weiterlesen mit Werbung – oder buchen Sie das Pur-Abo "
    "für nur 2,99 € im Monat."
)

REGULAR_BANNER = (
    '<div class="cookie-banner" role="dialog">'
    "<p>Wir verwenden Cookies für Inhalte und Anzeigen.</p>"
    '<button data-action="accept" data-cookie="cmp_consent">Alle akzeptieren</button>'
    '<button data-action="reject" data-cookie="cmp_consent">Ablehnen</button>'
    "</div>"
)

WALL_MAIN = (
    f'<div id="cw-wall" class="cw-overlay"><p>{WALL_TEXT}</p>'
    '<button data-action="accept" data-cookie="cw_consent">Mit Werbung weiterlesen</button>'
    '<button data-action="subscribe">Jetzt Abo abschließen</button></div>'
)


class TestCorpus:
    @pytest.mark.parametrize(
        "text",
        [
            "buchen Sie das Pur-Abo jetzt",
            "als Abonnent lesen",
            "attiva l'abbonamento",
            "devenez abonné",
            "neem een abonnement",
            "enjoy an ad-free experience",
            "subscribe today",
            "subscribing is easy",
        ],
    )
    def test_wall_words_match(self, text):
        assert has_cookiewall_words(text)

    @pytest.mark.parametrize(
        "text",
        [
            "read more about us",         # "abo" inside "about" must not hit
            "above the fold",
            "we use cookies",
            "laboratory results",
        ],
    )
    def test_wall_words_no_false_hit(self, text):
        assert not has_cookiewall_words(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("nur 2,99 € im Monat", 1),
            ("pay $3.99 or 3.99$ or 3.99 $", 3),
            ("CHF 2.90 pro Monat", 1),
            ("AU$4.90 per month", 1),
            ("EUR 3.99 jährlich", 1),
            ("£2.60/month", 1),
            ("kostet nichts", 0),
            ("the $ sign alone", 0),
            ("year 2023 without currency", 0),
        ],
    )
    def test_currency_combinations(self, text, expected):
        assert len(find_currency_amounts(text)) == expected

    def test_accept_and_banner_words(self):
        assert has_accept_words("Alle akzeptieren")
        assert has_accept_words("Accept all")
        assert has_accept_words("Godkänn alla")
        assert has_banner_words("Wir verwenden Cookies")
        assert has_banner_words("continue with ads and tracking")
        assert not has_banner_words("an article about sports")


class TestDetectionMainDOM:
    def test_regular_banner_detected(self):
        _, page = page_for(REGULAR_BANNER + "<p>article</p>")
        detection = BannerClick().detect(page)
        assert detection.found
        assert detection.location == "main"
        assert not detection.is_cookiewall
        assert detection.accept_element is not None
        assert detection.has_reject

    def test_wall_detected_and_classified(self):
        _, page = page_for(WALL_MAIN)
        detection = BannerClick().detect(page)
        assert detection.found
        assert detection.is_cookiewall
        assert detection.wall_word_match
        assert detection.currency_matches
        assert not detection.has_reject

    def test_no_banner_page(self):
        _, page = page_for("<main><p>just an article</p></main>")
        detection = BannerClick().detect(page)
        assert not detection.found
        assert not detection.is_cookiewall

    def test_hidden_banner_ignored(self):
        html = REGULAR_BANNER.replace(
            'class="cookie-banner"', 'class="cookie-banner" style="display:none"'
        )
        _, page = page_for(html)
        assert not BannerClick().detect(page).found

    def test_currency_only_wall(self):
        # Spanish-style wall: no corpus subscription word, currency only.
        html = (
            '<div class="cw-overlay"><p>Sigue leyendo con publicidad o '
            "consigue la web sin publicidad por 2,99 € al mes.</p>"
            '<button data-action="accept">Aceptar y continuar</button></div>'
        )
        _, page = page_for(html)
        detection = BannerClick().detect(page)
        assert detection.is_cookiewall
        assert not detection.wall_word_match
        assert detection.currency_matches


class TestDetectionIframe:
    HTML = (
        '<iframe id="cw-frame" data-banner="1" srcdoc="'
        "&lt;div class='cw-content'&gt;&lt;p&gt;Weiterlesen mit Werbung oder "
        "Pur-Abo für 2,99 € im Monat&lt;/p&gt;"
        "&lt;button data-action='accept' data-cookie='cw_consent'&gt;"
        "Mit Werbung weiterlesen&lt;/button&gt;&lt;/div&gt;"
        '"></iframe>'
    )

    def test_wall_in_iframe_found(self):
        _, page = page_for(self.HTML)
        detection = BannerClick().detect(page)
        assert detection.found
        assert detection.location == "iframe"
        assert detection.is_cookiewall

    def test_iframe_scan_can_be_disabled(self):
        _, page = page_for(self.HTML)
        detection = BannerClick(iframes=False).detect(page)
        assert not detection.found


class TestDetectionShadowDOM:
    def wall_in_shadow(self, mode):
        return (
            f'<div id="cw-host" data-banner="1"><template shadowrootmode="{mode}">'
            f'<div class="cw-content"><p>{WALL_TEXT}</p>'
            '<button data-action="accept" data-cookie="cw_consent">'
            "Mit Werbung weiterlesen</button></div></template></div>"
        )

    def test_open_shadow_wall_found(self):
        _, page = page_for(self.wall_in_shadow("open"))
        detection = BannerClick().detect(page)
        assert detection.found
        assert detection.location == "shadow-open"
        assert detection.is_cookiewall
        assert detection.shadow_host is not None

    def test_closed_shadow_wall_found(self):
        _, page = page_for(self.wall_in_shadow("closed"))
        detection = BannerClick().detect(page)
        assert detection.location == "shadow-closed"
        assert detection.is_cookiewall

    def test_shadow_scan_can_be_disabled(self):
        _, page = page_for(self.wall_in_shadow("open"))
        assert not BannerClick(shadow_dom=False).detect(page).found

    def test_closed_support_can_be_disabled(self):
        _, page = page_for(self.wall_in_shadow("closed"))
        detection = BannerClick(closed_shadow=False).detect(page)
        assert not detection.found
        # Open roots still work with closed support off.
        _, page = page_for(self.wall_in_shadow("open"))
        assert BannerClick(closed_shadow=False).detect(page).found

    def test_clone_workaround_cleans_up(self):
        _, page = page_for(self.wall_in_shadow("open"))
        body = page.document.body
        before = len(body.children)
        BannerClick().detect(page)
        assert len(body.children) == before

    def test_mapped_button_is_in_live_shadow_tree(self):
        browser, page = page_for(self.wall_in_shadow("open"))
        detection = BannerClick().detect(page)
        host = query_selector(page.document, "#cw-host")
        shadow = host.attached_shadow_root
        assert detection.accept_element.owner_document is page.document
        node = detection.accept_element
        while node.parent is not None:
            node = node.parent
        assert node is shadow


class TestClassifierAblations:
    def test_words_only(self):
        _, page = page_for(WALL_MAIN)
        detection = BannerClick(currency_patterns=False).detect(page)
        assert detection.is_cookiewall          # subscription words suffice
        assert detection.currency_matches == []

    def test_currency_only(self):
        _, page = page_for(WALL_MAIN)
        detection = BannerClick(subscription_words=False).detect(page)
        assert detection.is_cookiewall          # currency pattern suffices
        assert not detection.wall_word_match

    def test_neither_classifier(self):
        _, page = page_for(WALL_MAIN)
        detection = BannerClick(
            subscription_words=False, currency_patterns=False
        ).detect(page)
        assert detection.found
        assert not detection.is_cookiewall


class TestInteraction:
    def test_accept_clicks_and_sets_cookie(self):
        browser, page = page_for(REGULAR_BANNER)
        detection = BannerClick().detect(page)
        outcome = accept_banner(browser, page, detection)
        assert outcome.cookie == ("cmp_consent", "accept")
        assert browser.jar.get("cmp_consent", "site.de").value == "accept"

    def test_reject_clicks(self):
        browser, page = page_for(REGULAR_BANNER)
        detection = BannerClick().detect(page)
        outcome = reject_banner(browser, page, detection)
        assert outcome.cookie == ("cmp_consent", "reject")

    def test_reject_on_wall_raises(self):
        browser, page = page_for(WALL_MAIN)
        detection = BannerClick().detect(page)
        with pytest.raises(MeasurementError):
            reject_banner(browser, page, detection)

    def test_accept_without_detection_raises(self):
        browser, page = page_for("<p>nothing</p>")
        detection = BannerClick().detect(page)
        with pytest.raises(MeasurementError):
            accept_banner(browser, page, detection)


class TestAgainstGeneratedWorld:
    def test_full_recall_on_generated_walls(self, medium_world):
        bc = BannerClick()
        for domain in sorted(medium_world.wall_domains):
            spec = medium_world.sites[domain]
            browser = medium_world.browser("DE")
            page = browser.visit(domain)
            detection = bc.detect(page)
            assert detection.is_cookiewall, (domain, spec.wall.placement)

    def test_bait_sites_are_false_positives(self, medium_world):
        bc = BannerClick()
        for domain in sorted(medium_world.bait_domains):
            browser = medium_world.browser("DE")
            page = browser.visit(domain)
            detection = bc.detect(page)
            assert detection.is_cookiewall  # intended FP
            assert medium_world.sites[domain].banner is BannerKind.BAIT

    def test_location_matches_placement(self, medium_world):
        bc = BannerClick()
        for domain in sorted(medium_world.wall_domains):
            spec = medium_world.sites[domain]
            browser = medium_world.browser("DE")
            page = browser.visit(domain)
            detection = bc.detect(page)
            expected = spec.wall.placement
            if expected in ("shadow-open", "shadow-closed"):
                assert detection.location == expected
            elif expected == "iframe":
                assert detection.location == "iframe"
            else:
                assert detection.location == "main"

    def test_regular_sites_not_walls(self, medium_world):
        bc = BannerClick()
        regular = [
            d for d in medium_world.crawl_targets
            if medium_world.sites[d].banner is BannerKind.REGULAR
        ][:40]
        for domain in regular:
            browser = medium_world.browser("DE")
            page = browser.visit(domain)
            detection = bc.detect(page)
            assert not detection.is_cookiewall, domain
