"""URL and domain-name utilities (self-contained, no stdlib urllib).

Public API:

- :class:`URL` — parsed URL with join/normalisation support.
- :func:`parse` — parse an absolute or scheme-relative URL string.
- :func:`registrable_domain` — eTLD+1 per the embedded public-suffix set.
- :func:`public_suffix` — the matched public suffix of a host.
- :func:`is_subdomain_of` — strict/loose subdomain tests.
"""

from repro.urlkit.psl import (
    PUBLIC_SUFFIXES,
    is_public_suffix,
    public_suffix,
    registrable_domain,
)
from repro.urlkit.url import (
    URL,
    is_subdomain_of,
    parse,
)

__all__ = [
    "URL",
    "parse",
    "PUBLIC_SUFFIXES",
    "public_suffix",
    "is_public_suffix",
    "registrable_domain",
    "is_subdomain_of",
]
