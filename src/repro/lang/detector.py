"""Character-trigram Naive Bayes language identification."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.lang.corpus import CORPORA

_PAD = "\x02"


def _normalize(text: str) -> str:
    """Lowercase and keep letters/spaces only (collapse the rest)."""
    out = []
    last_space = True
    for ch in text.lower():
        if ch.isalpha():
            out.append(ch)
            last_space = False
        elif not last_space:
            out.append(" ")
            last_space = True
    return "".join(out).strip()


def _trigrams(text: str) -> Iterable[str]:
    for word in text.split():
        padded = f"{_PAD}{word}{_PAD}"
        if len(padded) < 3:
            continue
        for i in range(len(padded) - 2):
            yield padded[i:i + 3]


@dataclass(frozen=True)
class LanguageResult:
    """The detector's verdict for one text."""

    language: str
    confidence: float      # posterior probability of the best language
    is_reliable: bool      # mirrors CLD3's reliability flag

    def __str__(self) -> str:
        return f"{self.language} ({self.confidence:.2f})"


class LanguageDetector:
    """A multinomial Naive Bayes classifier over character trigrams.

    It keeps its constructor arguments (``corpora`` ``None`` meaning the
    built-in :data:`~repro.lang.corpus.CORPORA`), so a worker process
    can rebuild an identical detector from them.
    """

    def __init__(self, corpora: Optional[Dict[str, List[str]]] = None,
                 *, min_confidence: float = 0.5) -> None:
        self.corpora = corpora
        self.min_confidence = min_confidence
        self._log_probs: Dict[str, Dict[str, float]] = {}
        self._fallback: Dict[str, float] = {}
        self._train(corpora or CORPORA)

    def _train(self, corpora: Dict[str, List[str]]) -> None:
        vocabulary = set()
        counts: Dict[str, Counter] = {}
        for language, sentences in corpora.items():
            counter: Counter = Counter()
            for sentence in sentences:
                counter.update(_trigrams(_normalize(sentence)))
            counts[language] = counter
            vocabulary.update(counter)
        vocab_size = max(len(vocabulary), 1)
        for language, counter in counts.items():
            total = sum(counter.values())
            denominator = total + vocab_size
            self._log_probs[language] = {
                gram: math.log((count + 1) / denominator)
                for gram, count in counter.items()
            }
            self._fallback[language] = math.log(1 / denominator)

    # ------------------------------------------------------------------
    def scores(self, text: str) -> Dict[str, float]:
        """Log-likelihood per language for *text*."""
        grams = list(_trigrams(_normalize(text)))
        result: Dict[str, float] = {}
        for language, table in self._log_probs.items():
            fallback = self._fallback[language]
            result[language] = sum(table.get(g, fallback) for g in grams)
        return result

    def detect(self, text: str) -> LanguageResult:
        """Classify *text*; unreliable for empty/ambiguous input."""
        grams = list(_trigrams(_normalize(text)))
        if not grams:
            return LanguageResult("und", 0.0, is_reliable=False)
        scores = self.scores(text)
        # Convert log-likelihoods to a posterior via the log-sum-exp trick.
        best_language = max(scores, key=lambda k: scores[k])
        max_score = scores[best_language]
        total = sum(math.exp(s - max_score) for s in scores.values())
        confidence = 1.0 / total
        return LanguageResult(
            language=best_language,
            confidence=confidence,
            is_reliable=confidence >= self.min_confidence,
        )


_DEFAULT: Optional[LanguageDetector] = None


def detect_language(text: str) -> LanguageResult:
    """Detect with a lazily constructed shared default detector."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = LanguageDetector()
    return _DEFAULT.detect(text)
