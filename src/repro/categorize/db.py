"""A curated domain→category lookup service.

The paper queries FortiGuard's web filter database to label cookiewall
sites by category (Figure 1).  FortiGuard is itself a curated oracle,
so the faithful reproduction is a lookup service populated by the
world generator — the analysis code only ever sees the service API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.urlkit import registrable_domain

#: Category vocabulary (the Figure 1 x-axis plus common extras).
CATEGORIES: Tuple[str, ...] = (
    "News and Media",
    "Business",
    "Information Technology",
    "Entertainment",
    "Sports",
    "Reference",
    "Society and Lifestyles",
    "Search Engines and Portals",
    "Health and Wellness",
    "Games",
    "Web-based Email",
    "Travel",
    "Personal Vehicles",
    "Restaurant and Dining",
    "Finance and Banking",
    "Shopping",
    "Education",
    "Government",
    "Streaming Media",
    "Others",
)

UNKNOWN_CATEGORY = "Others"


class WebFilterDB:
    """Maps registrable domains to content categories."""

    def __init__(self, entries: Optional[Dict[str, str]] = None) -> None:
        self._entries: Dict[str, str] = {}
        if entries:
            for domain, category in entries.items():
                self.add(domain, category)

    def add(self, domain: str, category: str) -> None:
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; must be one of CATEGORIES"
            )
        site = registrable_domain(domain) or domain.lower()
        self._entries[site] = category

    def update(self, entries: Iterable[Tuple[str, str]]) -> None:
        for domain, category in entries:
            self.add(domain, category)

    def lookup(self, domain: str) -> str:
        """The category for *domain* (falls back to 'Others')."""
        site = registrable_domain(domain) or domain.lower()
        return self._entries.get(site, UNKNOWN_CATEGORY)

    def __contains__(self, domain: object) -> bool:
        if not isinstance(domain, str):
            return False
        site = registrable_domain(domain) or domain.lower()
        return site in self._entries

    def __len__(self) -> int:
        return len(self._entries)
