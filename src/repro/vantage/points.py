"""The eight measurement vantage points used in the paper (§3).

Each vantage point carries the attributes Table 1 is split by: the
country whose CrUX-like toplist it contributes, the associated ccTLD,
and the most commonly spoken language in that country.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.vantage.regulation import Regulation


@dataclass(frozen=True)
class VantagePoint:
    """A measurement location (modelled after an AWS region)."""

    code: str             # short identifier used throughout the library
    city: str
    country: str
    country_code: str     # ISO-ish country code; keys the toplists
    cctld: str            # ccTLD associated with the VP country
    language: str         # most commonly spoken language (ISO 639-1)
    regulation: Regulation
    in_eu: bool = False

    def __str__(self) -> str:
        return f"{self.city} ({self.code})"


#: Display/iteration order used by Table 1 in the paper.
VP_ORDER: Tuple[str, ...] = (
    "USE", "USW", "BR", "DE", "SE", "ZA", "IN", "AU",
)

VANTAGE_POINTS: Dict[str, VantagePoint] = {
    "USE": VantagePoint(
        code="USE", city="Ashburn", country="United States (East)",
        country_code="US", cctld="us", language="en",
        regulation=Regulation.NONE,
    ),
    "USW": VantagePoint(
        code="USW", city="San Francisco", country="United States (West)",
        country_code="US", cctld="us", language="en",
        regulation=Regulation.CCPA,
    ),
    "BR": VantagePoint(
        code="BR", city="São Paulo", country="Brazil",
        country_code="BR", cctld="br", language="pt",
        regulation=Regulation.LGPD,
    ),
    "DE": VantagePoint(
        code="DE", city="Frankfurt", country="Germany",
        country_code="DE", cctld="de", language="de",
        regulation=Regulation.GDPR, in_eu=True,
    ),
    "SE": VantagePoint(
        code="SE", city="Stockholm", country="Sweden",
        country_code="SE", cctld="se", language="sv",
        regulation=Regulation.GDPR, in_eu=True,
    ),
    "ZA": VantagePoint(
        code="ZA", city="Cape Town", country="South Africa",
        country_code="ZA", cctld="za", language="zu",
        regulation=Regulation.NONE,
    ),
    "IN": VantagePoint(
        code="IN", city="Mumbai", country="India",
        country_code="IN", cctld="in", language="en",
        regulation=Regulation.NONE,
    ),
    "AU": VantagePoint(
        code="AU", city="Sydney", country="Australia",
        country_code="AU", cctld="au", language="en",
        regulation=Regulation.NONE,
    ),
}

#: Distinct toplist countries (US appears twice among VPs).
TOPLIST_COUNTRIES: Tuple[str, ...] = ("US", "BR", "DE", "SE", "ZA", "IN", "AU")


def get_vantage_point(code: str) -> VantagePoint:
    """Look up a vantage point by code, case-insensitively.

    ``"de"``, ``"De"`` and ``"DE"`` all resolve to Frankfurt.  Unknown
    codes raise a :class:`KeyError` that names the known vantage
    points instead of echoing the bad key bare.
    """
    point = VANTAGE_POINTS.get(code)
    if point is None and isinstance(code, str):
        point = VANTAGE_POINTS.get(code.upper())
    if point is None:
        known = ", ".join(sorted(VANTAGE_POINTS))
        raise KeyError(f"unknown vantage point {code!r}; known: {known}")
    return point
