"""Tests for price extraction and currency normalisation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.figures import PriceRecord
from repro.pricing import (
    FX_RATES_PER_EUR,
    extract_price,
    format_amount,
    to_eur_cents,
)
from repro.pricing.currency import convert_from_eur_cents


class TestCurrency:
    def test_eur_identity(self):
        assert to_eur_cents(299, "EUR") == 299
        assert convert_from_eur_cents(299, "EUR") == 299

    def test_usd_round_trip_close(self):
        usd = convert_from_eur_cents(300, "USD")
        assert usd == 325  # the paper's 3 EUR = 3.25 USD
        assert abs(to_eur_cents(usd, "USD") - 300) <= 1

    @pytest.mark.parametrize("currency", sorted(FX_RATES_PER_EUR))
    def test_round_trip_all_currencies(self, currency):
        for cents in (99, 299, 999):
            converted = convert_from_eur_cents(cents, currency)
            back = to_eur_cents(converted, currency)
            assert abs(back - cents) <= 2

    def test_german_locale_format(self):
        assert format_amount(299, "EUR", locale="de") == "2,99 €"

    def test_english_locale_format(self):
        assert format_amount(325, "USD", locale="en") == "$3.25"
        assert format_amount(290, "CHF", locale="en") == "CHF 2.90"
        assert format_amount(490, "AUD", locale="en") == "AU$4.90"


class TestExtraction:
    @pytest.mark.parametrize(
        "text,cents,currency,period",
        [
            ("das Pur-Abo für nur 2,99 € im Monat", 299, "EUR", "month"),
            ("subscribe for $3.25 per month", 325, "USD", "month"),
            ("ad-free for £2.60/month", 260, "GBP", "month"),
            ("CHF 2.90 pro Monat", 290, "CHF", "month"),
            ("AU$4.90 per month", 490, "AUD", "month"),
            ("nur 35,88 € im Jahr", 3588, "EUR", "year"),
            ("EUR 3.99 monthly", 399, "EUR", "month"),
            ("3.99$ a month", 399, "USD", "month"),
            ("3.99 $ per month", 399, "USD", "month"),
            ("l'abbonamento a 1,99 € al mese", 199, "EUR", "month"),
            ("abonnement voor 2,99 € per maand", 299, "EUR", "month"),
        ],
    )
    def test_extracts(self, text, cents, currency, period):
        price = extract_price(text)
        assert price is not None
        assert price.amount_cents == cents
        assert price.currency == currency
        assert price.period == period

    def test_yearly_normalised_to_month(self):
        price = extract_price("nur 35,88 € im Jahr")
        assert price.monthly_eur_cents == 299

    def test_usd_normalised_to_eur(self):
        price = extract_price("only $3.25 per month")
        assert abs(price.monthly_eur_cents - 300) <= 1

    @pytest.mark.parametrize(
        "text", ["no price here", "", "year 2024", "the $ sign", "100 percent"]
    )
    def test_no_price(self, text):
        assert extract_price(text) is None

    def test_first_price_wins(self):
        price = extract_price("was 4,99 € now 2,99 € im Monat")
        assert price.amount_cents == 499

    def test_price_bucket(self):
        """Figure 2's bucket *b* covers ((b-1) EUR, b EUR]."""
        for cents, bucket in ((299, 3), (300, 3), (301, 4), (99, 1)):
            assert PriceRecord("a.de", "de", cents).bucket == bucket

    @given(
        cents=st.integers(min_value=50, max_value=999),
        currency=st.sampled_from(["EUR", "USD", "GBP", "CHF", "AUD"]),
        locale=st.sampled_from(["de", "en", "it", "fr"]),
    )
    def test_property_format_extract_round_trip(self, cents, currency, locale):
        displayed = convert_from_eur_cents(cents, currency)
        text = f"offer: {format_amount(displayed, currency, locale=locale)} per month"
        price = extract_price(text)
        assert price is not None
        assert price.currency == currency
        assert abs(price.monthly_eur_cents - cents) <= 2

    def test_wall_template_prices_extract(self, medium_world):
        """Every generated wall's displayed price must round-trip."""
        from repro.webgen.cookiewalls import wall_body_html
        from repro.soup import Soup, parse_document

        for domain in sorted(medium_world.wall_domains):
            spec = medium_world.sites[domain]
            text = Soup(parse_document(wall_body_html(spec))).get_text()
            price = extract_price(text)
            assert price is not None, (domain, text)
            assert abs(
                price.monthly_eur_cents - spec.wall.monthly_price_cents
            ) <= 3, (domain, text)
