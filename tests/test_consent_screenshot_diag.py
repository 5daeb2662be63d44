"""Tests for TCF consent strings and the paper-comparison module."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.papercheck import (
    PAPER_VALUES,
    PaperValue,
    compare_with_paper,
)
from repro.consent import ConsentRecord, decode_tc_string, encode_tc_string
from repro.consent.tcf import (
    ALL_PURPOSES,
    accept_all_string,
    reject_all_string,
)
from repro.errors import ParseError
from repro.experiments.runner import ExperimentResult


class TestTCF:
    def test_round_trip(self):
        record = ConsentRecord(
            cmp_id=42,
            purposes=frozenset({1, 3, 7}),
            vendors=frozenset({11, 99}),
            signal="accept",
        )
        decoded = decode_tc_string(encode_tc_string(record))
        assert decoded == record

    def test_accept_all(self):
        decoded = decode_tc_string(accept_all_string(7))
        assert decoded.signal == "accept"
        assert decoded.purposes == ALL_PURPOSES
        assert decoded.cmp_id == 7

    def test_reject_all(self):
        decoded = decode_tc_string(reject_all_string(7))
        assert decoded.is_reject
        assert decoded.purposes == frozenset()

    @pytest.mark.parametrize(
        "bad",
        ["", "!!!!", "bm90LXRjZg", encode_tc_string(
            ConsentRecord(cmp_id=1, signal="accept"))[:-4] + "aaaa"],
    )
    def test_bad_strings_rejected(self, bad):
        with pytest.raises(ParseError):
            decode_tc_string(bad)

    def test_bad_records_rejected(self):
        with pytest.raises(ParseError):
            encode_tc_string(ConsentRecord(cmp_id=-1))
        with pytest.raises(ParseError):
            encode_tc_string(ConsentRecord(cmp_id=1, purposes=frozenset({11})))
        with pytest.raises(ParseError):
            encode_tc_string(ConsentRecord(cmp_id=1, signal="maybe"))

    @given(
        cmp_id=st.integers(min_value=0, max_value=9999),
        purposes=st.frozensets(st.integers(min_value=1, max_value=10)),
        vendors=st.frozensets(
            st.integers(min_value=1, max_value=5000), max_size=20
        ),
        signal=st.sampled_from(["accept", "reject"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, cmp_id, purposes, vendors, signal):
        record = ConsentRecord(cmp_id, purposes, vendors, signal)
        assert decode_tc_string(encode_tc_string(record)) == record

    def test_cmp_backed_click_writes_tc_string(self, medium_world):
        from repro.bannerclick import BannerClick, accept_banner
        from repro.webgen import BannerKind

        domain = next(
            d for d in medium_world.crawl_targets
            if medium_world.sites[d].banner is BannerKind.REGULAR
            and medium_world.sites[d].cmp is not None
        )
        browser = medium_world.browser("DE")
        page = browser.visit(domain)
        detection = BannerClick().detect(page)
        accept_banner(browser, page, detection)
        cookie = browser.jar.get("cmp_consent", domain)
        assert cookie is not None
        decoded = decode_tc_string(cookie.value)
        assert decoded.signal == "accept"
        assert decoded.purposes == ALL_PURPOSES
        # The site must still honour the TC-string consent on reload.
        page = browser.reload(page)
        assert any(r.is_third_party for r in page.requests)


class TestPaperCheck:
    def test_paper_values_reference_known_experiments(self):
        known = {
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "accuracy", "ublock", "landscape", "smp",
        }
        for value in PAPER_VALUES:
            assert value.experiment in known

    def test_holds_semantics(self):
        ratio = PaperValue("x", "m", 10.0, "ratio", 2.0)
        assert ratio.holds(10.0) and ratio.holds(5.0) and ratio.holds(20.0)
        assert not ratio.holds(4.9) and not ratio.holds(21.0)
        band = PaperValue("x", "m", 0.7, "band", 0.1)
        assert band.holds(0.65) and not band.holds(0.55)
        exact = PaperValue("x", "m", 0.0, "exact", 0)
        assert exact.holds(0.0) and not exact.holds(0.1)

    def test_missing_experiment_fails_gracefully(self):
        comparison = compare_with_paper([])
        assert comparison.holding == 0
        assert all(row.measured is None for row in comparison.rows)

    def test_compare_with_results(self):
        results = [
            ExperimentResult(
                "accuracy", "t", "r",
                {"full_precision": 0.97, "full_recall": 1.0},
            )
        ]
        values = [
            PaperValue("accuracy", "precision", 0.982, "band", 0.05,
                       lambda d: d["full_precision"]),
            PaperValue("accuracy", "recall", 1.0, "exact", 0,
                       lambda d: d["full_recall"]),
        ]
        comparison = compare_with_paper(results, values)
        assert comparison.holding == 2
        markdown = comparison.render_markdown()
        assert "| accuracy |" in markdown
        assert "2/2" in markdown

    def test_render_text(self):
        comparison = compare_with_paper([])
        text = comparison.render_text()
        assert "FAIL" in text

    def test_medium_world_holds_most_shapes(self, medium_context):
        """At 5% scale, the robust shape checks must already hold."""
        from repro.experiments import EXPERIMENTS, run_experiment

        results = [
            run_experiment(e, context=medium_context) for e in EXPERIMENTS
        ]
        subset = [
            v for v in PAPER_VALUES
            if (v.experiment, v.metric) in {
                ("accuracy", "recall"),
                ("fig2", "modal price bucket (EUR)"),
                ("fig5", "subscription median tracking"),
                ("fig6", "|Pearson r|"),
                ("ublock", "suppressed share"),
            }
        ]
        comparison = compare_with_paper(results, subset)
        assert comparison.holding == comparison.total, (
            comparison.render_text()
        )
