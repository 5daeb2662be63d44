"""Matrix tests: every banner/wall template variant must be detectable.

The detector's word corpus must cover every language × variant ×
placement combination the generator can emit — this is the systematic
coverage behind the paper's 100% recall claim (§3).
"""

import pytest

from repro.bannerclick import BannerClick
from repro.browser import Browser
from repro.lang import detect_language
from repro.netsim import Network
from repro.pricing import extract_price
from repro.soup import Soup, parse_document
from repro.vantage import VANTAGE_POINTS
from repro.webgen.banners import _TEXTS as BANNER_LANGS
from repro.webgen.banners import regular_banner_html
from repro.webgen.cookiewalls import _TEXTS as WALL_LANGS
from repro.webgen.cookiewalls import wall_markup
from repro.webgen.spec import SiteSpec, WallSpec, BannerKind
from tests.servers import StaticServer

ALL_REGIONS = frozenset(VANTAGE_POINTS)


def page_for(html):
    net = Network()
    net.register("matrix.de", StaticServer(html))
    browser = Browser(net, VANTAGE_POINTS["DE"])
    return browser.visit("matrix.de")


def wall_spec(language, placement, *, period="month", currency="EUR",
              cents=299):
    return SiteSpec(
        domain="matrix.de",
        tld="de",
        language=language,
        category="News and Media",
        banner=BannerKind.COOKIEWALL,
        reject_button=False,
        site_name="Matrix",
        wall=WallSpec(
            placement=placement,
            serving="inline",
            provider=None,
            monthly_price_cents=cents,
            display_currency=currency,
            billing_period=period,
            regions=ALL_REGIONS,
        ),
    )


class TestRegularBannerMatrix:
    @pytest.mark.parametrize("language", sorted(BANNER_LANGS))
    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    def test_detected_with_accept(self, language, variant):
        html = regular_banner_html(language, variant=variant)
        page = page_for(html)
        detection = BannerClick().detect(page)
        assert detection.found, (language, variant)
        assert detection.accept_element is not None, (language, variant)
        assert not detection.is_cookiewall, (language, variant)

    @pytest.mark.parametrize("language", sorted(BANNER_LANGS))
    def test_reject_button_found(self, language):
        html = regular_banner_html(language, reject_button=True)
        detection = BannerClick().detect(page_for(html))
        assert detection.has_reject, language

    @pytest.mark.parametrize("language", sorted(BANNER_LANGS))
    def test_banner_language_is_detectable(self, language):
        text = Soup(parse_document(regular_banner_html(language))).get_text()
        # Banner text alone is short; it must at least not be mistaken
        # for a *different* language with high confidence.
        result = detect_language(text)
        assert result.language == language or not result.is_reliable


class TestWallMatrix:
    @pytest.mark.parametrize("language", sorted(WALL_LANGS))
    @pytest.mark.parametrize(
        "placement", ["main", "iframe", "shadow-open", "shadow-closed"]
    )
    def test_wall_detected_everywhere(self, language, placement):
        spec = wall_spec(language, placement)
        page = page_for(wall_markup(spec))
        detection = BannerClick().detect(page)
        assert detection.is_cookiewall, (language, placement)
        assert detection.accept_element is not None
        assert not detection.has_reject

    @pytest.mark.parametrize("language", sorted(WALL_LANGS))
    @pytest.mark.parametrize("period", ["month", "year"])
    def test_wall_price_extracts(self, language, period):
        spec = wall_spec(language, "main", period=period)
        text = Soup(parse_document(wall_markup(spec))).get_text()
        price = extract_price(text)
        assert price is not None, (language, period)
        assert price.period == period
        assert abs(price.monthly_eur_cents - 299) <= 2

    @pytest.mark.parametrize(
        "currency", ["EUR", "USD", "GBP", "CHF", "AUD"]
    )
    def test_wall_currency_variants_extract(self, currency):
        spec = wall_spec("en", "main", currency=currency)
        text = Soup(parse_document(wall_markup(spec))).get_text()
        price = extract_price(text)
        assert price is not None, currency
        assert price.currency == currency
        assert abs(price.monthly_eur_cents - 299) <= 2

    @pytest.mark.parametrize("cents", [99, 199, 299, 499, 899, 999])
    def test_wall_price_levels_extract(self, cents):
        spec = wall_spec("de", "main", cents=cents)
        text = Soup(parse_document(wall_markup(spec))).get_text()
        price = extract_price(text)
        assert price is not None
        assert abs(price.monthly_eur_cents - cents) <= 2

    @pytest.mark.parametrize("language", sorted(WALL_LANGS))
    def test_wall_has_no_reject_words(self, language):
        """Walls must not accidentally contain reject-button wording."""
        from repro.bannerclick.corpus import has_reject_words

        spec = wall_spec(language, "main")
        buttons = Soup(parse_document(wall_markup(spec))).find_all("button")
        for button in buttons:
            assert not has_reject_words(button.get_text()), language
