"""Price extraction from cookiewall/offer text (paper §4.2).

Recognises the amount/currency formats real walls use (and the ones in
the paper's pattern list: ``$3.99``, ``3.99$``, ``3.99 $``, currency
words), detects the billing period from multilingual period phrases,
and normalises everything to **EUR cents per month**.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.pricing.currency import to_eur_cents

#: Currency token → ISO code, ordered by specificity (longest first).
_CURRENCY_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("AU$", "AUD"), ("R$", "BRL"), ("CHF", "CHF"), ("CNY", "CNY"),
    ("EUR", "EUR"), ("USD", "USD"), ("GBP", "GBP"), ("AUD", "AUD"),
    ("ZAR", "ZAR"), ("SEK", "SEK"), ("Rs", "INR"), ("kr", "SEK"),
    ("€", "EUR"), ("$", "USD"), ("£", "GBP"),
)

_AMOUNT = r"(\d{1,4}(?:[.,]\d{2})?)"


def _token_pattern() -> str:
    return "|".join(re.escape(token) for token, _ in _CURRENCY_TOKENS)


_PRE_RE = re.compile(rf"({_token_pattern()})\s*{_AMOUNT}")
_POST_RE = re.compile(rf"{_AMOUNT}\s*({_token_pattern()})")

_YEAR_WORDS = (
    "im jahr", "pro jahr", "jährlich", "per year", "/year", "yearly",
    "a year", "all'anno", "par an", "al año", "per jaar", "om året",
    "per annum",
)
_MONTH_WORDS = (
    "im monat", "pro monat", "monatlich", "per month", "/month",
    "monthly", "a month", "al mese", "par mois", "al mes", "per maand",
    "om måneden", "mtl",
)


@dataclass(frozen=True)
class ExtractedPrice:
    """A price found in offer text, normalised to €/month."""

    amount_cents: int        # as displayed, in the displayed currency
    currency: str
    period: str              # "month" or "year"
    monthly_eur_cents: int   # normalised

    @property
    def monthly_eur(self) -> float:
        return self.monthly_eur_cents / 100.0


def _parse_amount(text: str) -> int:
    """'2,99' / '2.99' / '3' → cents."""
    text = text.strip()
    if "," in text and text.rsplit(",", 1)[-1].isdigit() \
            and len(text.rsplit(",", 1)[-1]) == 2:
        units, cents = text.rsplit(",", 1)
        return int(units) * 100 + int(cents)
    if "." in text and len(text.rsplit(".", 1)[-1]) == 2:
        units, cents = text.rsplit(".", 1)
        return int(units) * 100 + int(cents)
    return int(re.sub(r"\D", "", text) or 0) * 100


def _lookup_currency(token: str) -> str:
    for known, code in _CURRENCY_TOKENS:
        if known == token:
            return code
    raise KeyError(token)


def _detect_period(text: str) -> str:
    lowered = text.lower()
    best_period = "month"
    best_pos: Optional[int] = None
    for words, period in ((_YEAR_WORDS, "year"), (_MONTH_WORDS, "month")):
        for word in words:
            pos = lowered.find(word)
            if pos >= 0 and (best_pos is None or pos < best_pos):
                best_pos = pos
                best_period = period
    return best_period


def extract_price(text: str) -> Optional[ExtractedPrice]:
    """Find the first price mention in *text*, or None.

    >>> extract_price("das Pur-Abo für nur 2,99 € im Monat").monthly_eur
    2.99
    >>> extract_price("subscribe for $38.99 per year").monthly_eur_cents
    300
    """
    if not text:
        return None
    pre = _PRE_RE.search(text)
    post = _POST_RE.search(text)
    match = None
    amount_text = ""
    token = ""
    if pre is not None and (post is None or pre.start() <= post.start()):
        match, token, amount_text = pre, pre.group(1), pre.group(2)
    elif post is not None:
        match, amount_text, token = post, post.group(1), post.group(2)
    if match is None:
        return None
    amount_cents = _parse_amount(amount_text)
    if amount_cents <= 0:
        return None
    currency = _lookup_currency(token)
    period = _detect_period(text)
    eur_cents = to_eur_cents(amount_cents, currency)
    if period == "year":
        monthly = int(round(eur_cents / 12.0))
    else:
        monthly = eur_cents
    return ExtractedPrice(
        amount_cents=amount_cents,
        currency=currency,
        period=period,
        monthly_eur_cents=monthly,
    )
