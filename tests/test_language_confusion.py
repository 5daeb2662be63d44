"""Language-identification quality: confusion behaviour across corpora."""

import random

import pytest

from repro.lang import CORPORA, LanguageDetector


def sample_sentences(language, count, rng):
    """*count* sentences drawn (with replacement) from a language corpus."""
    return [rng.choice(CORPORA[language]) for _ in range(count)]


@pytest.fixture(scope="module")
def detector():
    return LanguageDetector()


class TestConfusion:
    def test_no_systematic_confusion_pairs(self, detector):
        """No language may lose >20% of its 3-sentence samples to one
        other language (Swedish/Danish are close; German/Dutch too)."""
        rng = random.Random(4)
        for language in CORPORA:
            losses = {}
            trials = 25
            for _ in range(trials):
                text = " ".join(sample_sentences(language, 3, rng))
                got = detector.detect(text).language
                if got != language:
                    losses[got] = losses.get(got, 0) + 1
            for other, count in losses.items():
                assert count / trials <= 0.2, (language, other, count)

    def test_scores_rank_truth_highly(self, detector):
        rng = random.Random(9)
        for language in ("de", "sv", "nl", "da"):
            text = " ".join(sample_sentences(language, 5, rng))
            scores = detector.scores(text)
            ranked = sorted(scores, key=lambda k: -scores[k])
            assert ranked[0] == language

    def test_mixed_language_text_still_classified(self, detector):
        de = CORPORA["de"][0]
        en = CORPORA["en"][0]
        result = detector.detect(f"{de} {de} {en}")
        assert result.language == "de"

    def test_confidence_increases_with_length(self, detector):
        rng = random.Random(2)
        short = detector.detect(" ".join(sample_sentences("it", 1, rng)))
        long = detector.detect(" ".join(sample_sentences("it", 10, rng)))
        assert long.confidence >= short.confidence * 0.9

    def test_custom_corpora(self):
        custom = LanguageDetector(
            {"aa": ["zzzz zzzz zzzz"], "bb": ["qqqq qqqq qqqq"]}
        )
        assert custom.detect("zzzz zzzz").language == "aa"
        assert sorted(custom.scores("zzzz")) == ["aa", "bb"]


class TestDetectorEdgeCases:
    def test_whitespace_only(self, detector):
        assert not detector.detect("   \n\t ").is_reliable

    def test_single_word(self, detector):
        result = detector.detect("Datenschutz")
        assert result.language in CORPORA or result.language == "und"

    def test_unicode_punctuation_ignored(self, detector):
        result = detector.detect("»Wetter« – die Preise sind gestiegen!")
        assert result.language == "de"
