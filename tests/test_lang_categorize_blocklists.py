"""Tests for language detection, categorisation, and justdomains."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocklists import JustDomainsList, builtin_list
from repro.categorize import CATEGORIES, WebFilterDB
from repro.httpkit import Cookie
from repro.lang import (
    CORPORA,
    LANGUAGES,
    LanguageDetector,
    detect_language,
)


def sample_sentences(language, count, rng):
    """*count* sentences drawn (with replacement) from a language corpus."""
    return [rng.choice(CORPORA[language]) for _ in range(count)]


class TestLanguageDetector:
    @pytest.fixture(scope="class")
    def detector(self):
        return LanguageDetector()

    @pytest.mark.parametrize("language", sorted(CORPORA))
    def test_detects_own_corpus(self, detector, language):
        text = " ".join(CORPORA[language][:5])
        result = detector.detect(text)
        assert result.language == language
        assert result.is_reliable

    def test_empty_text_unreliable(self, detector):
        result = detector.detect("")
        assert result.language == "und"
        assert not result.is_reliable

    def test_numbers_only_unreliable(self, detector):
        assert not detector.detect("3.99 2026 42").is_reliable

    def test_single_sentences_mostly_correct(self, detector):
        correct = total = 0
        for language, sentences in CORPORA.items():
            for sentence in sentences:
                total += 1
                if detector.detect(sentence).language == language:
                    correct += 1
        assert correct / total > 0.9

    def test_module_level_helper(self):
        assert detect_language("Die Preise sind gestiegen und der Verein sucht Helfer.").language == "de"

    def test_sampled_page_text_detected(self, detector):
        rng = random.Random(99)
        for language in ("de", "en", "it", "sv"):
            text = " ".join(sample_sentences(language, 8, rng))
            assert detector.detect(text).language == language

    def test_languages_property(self, detector):
        assert sorted(detector.scores("hallo welt")) == sorted(CORPORA)

    @given(language=st.sampled_from(sorted(CORPORA)), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_multi_sentence_accuracy(self, language, seed):
        rng = random.Random(seed)
        text = " ".join(sample_sentences(language, 6, rng))
        assert detect_language(text).language == language


class TestWebFilterDB:
    def test_add_and_lookup(self):
        db = WebFilterDB()
        db.add("spiegel.de", "News and Media")
        assert db.lookup("www.spiegel.de") == "News and Media"

    def test_unknown_falls_back(self):
        db = WebFilterDB()
        assert db.lookup("unknown.net") == "Others"

    def test_invalid_category_rejected(self):
        db = WebFilterDB()
        with pytest.raises(ValueError):
            db.add("x.de", "Cat Videos")

    def test_contains_and_len(self):
        db = WebFilterDB({"a.de": "Sports", "b.de": "Games"})
        assert "www.a.de" in db
        assert "c.de" not in db
        assert len(db) == 2

    def test_figure1_vocabulary_present(self):
        for category in (
            "News and Media", "Business", "Information Technology",
            "Web-based Email", "Personal Vehicles", "Restaurant and Dining",
        ):
            assert category in CATEGORIES


def make_cookie(domain, name="x"):
    return Cookie(name=name, value="1", domain=domain)


class TestJustDomains:
    def test_exact_and_subdomain_match(self):
        jd = JustDomainsList(["tracker.net"])
        assert jd.matches_domain("tracker.net")
        assert jd.matches_domain("sync.tracker.net")
        assert not jd.matches_domain("nottracker.net")

    def test_cookie_classification(self):
        jd = JustDomainsList(["tracker.net"])
        assert jd.is_tracking_cookie(make_cookie("tracker.net"))
        assert not jd.is_tracking_cookie(make_cookie("cdnedge.net"))

    def test_count_tracking(self):
        jd = JustDomainsList(["a.net", "b.net"])
        cookies = [make_cookie("a.net"), make_cookie("x.b.net"), make_cookie("c.net")]
        assert [c.domain for c in cookies if jd.is_tracking_cookie(c)] == [
            "a.net", "x.b.net",
        ]

    def test_text_round_trip(self):
        jd = JustDomainsList(["b.net", "a.net"])
        parsed = JustDomainsList.from_text(jd.to_text())
        assert sorted(parsed) == ["a.net", "b.net"]

    def test_from_text_skips_comments(self):
        jd = JustDomainsList.from_text("# comment\n\na.net\n  b.net  \n")
        assert len(jd) == 2

    def test_builtin_contains_known_trackers(self):
        jd = builtin_list()
        assert "doubleclick.net" in jd
        assert "trackmax.com" in jd
        assert "google-analytics.com" in jd

    def test_builtin_excludes_cdns_and_smps(self):
        jd = builtin_list()
        assert "cdnedge.net" not in jd
        assert "contentpass.net" not in jd
        assert "opencmp.net" not in jd

    def test_builtin_extension(self):
        jd = builtin_list(extra=["custom-tracker.example"])
        assert "custom-tracker.example" in jd

    def test_dunder_contains_non_string(self):
        assert 42 not in builtin_list()
