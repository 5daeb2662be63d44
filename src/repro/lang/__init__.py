"""Language identification (the paper uses CLD3; we train our own).

A character-trigram Naive Bayes classifier over embedded seed corpora
for the languages relevant to the measurement: the vantage-point
languages (German, Swedish, English, Portuguese, Zulu) and the site
languages observed among cookiewalls (German, English, Italian,
French, Spanish, Dutch, Danish).
"""

from repro.lang.corpus import CORPORA, LANGUAGES
from repro.lang.detector import LanguageDetector, LanguageResult, detect_language

__all__ = [
    "LANGUAGES",
    "CORPORA",
    "LanguageDetector",
    "LanguageResult",
    "detect_language",
]
