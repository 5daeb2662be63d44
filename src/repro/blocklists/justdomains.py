"""The justdomains DOMAIN-ONLY blocklist model (paper §4.3).

The paper classifies a cookie as a *tracking cookie* when its domain
matches an entry of the justdomains list.  This module reproduces that
classification: a :class:`JustDomainsList` holds bare domains; a cookie
matches when its domain equals a listed domain or is a subdomain of
one — the same semantics DOMAIN-ONLY filter lists use.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Set

from repro import thirdparty
from repro.httpkit import Cookie


class JustDomainsList:
    """A domain-only blocklist with subdomain-inclusive matching."""

    def __init__(self, domains: Iterable[str] = ()) -> None:
        self._domains: Set[str] = set()
        for domain in domains:
            self.add(domain)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, domain: str) -> None:
        domain = domain.strip().lower().lstrip(".")
        if domain:
            self._domains.add(domain)

    def update(self, domains: Iterable[str]) -> None:
        for domain in domains:
            self.add(domain)

    @classmethod
    def from_text(cls, text: str) -> "JustDomainsList":
        """Parse the on-disk list format (one domain per line, # comments)."""
        instance = cls()
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                instance.add(line)
        return instance

    def to_text(self) -> str:
        header = "# DOMAIN-ONLY tracking filter list (repro)\n"
        return header + "\n".join(sorted(self._domains)) + "\n"

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def matches_domain(self, domain: str) -> bool:
        """True when *domain* (or a parent of it) is listed."""
        domain = domain.lower().lstrip(".").rstrip(".")
        while domain:
            if domain in self._domains:
                return True
            _, dot, rest = domain.partition(".")
            if not dot:
                return False
            domain = rest
        return False

    def is_tracking_cookie(self, cookie: Cookie) -> bool:
        """The paper's classification: cookie domain is on the list."""
        return self.matches_domain(cookie.domain)

    # ------------------------------------------------------------------
    def __contains__(self, domain: object) -> bool:
        return isinstance(domain, str) and self.matches_domain(domain)

    def __len__(self) -> int:
        return len(self._domains)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._domains))


def builtin_list(extra: Optional[Iterable[str]] = None) -> JustDomainsList:
    """The list used throughout the reproduction.

    Contains every tracking-classified third party of the synthetic
    web's ecosystem (:mod:`repro.thirdparty`) — the same relationship
    the real justdomains list has to the real tracking ecosystem.
    """
    instance = JustDomainsList(thirdparty.tracking_domains())
    if extra:
        instance.update(extra)
    return instance
