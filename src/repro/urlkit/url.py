"""A small, strict URL implementation.

Only the features the measurement stack needs are implemented:
``http``/``https`` schemes, host/port, path, query, fragment,
relative-reference resolution (RFC 3986 subset), and normalisation.
Internationalised hostnames are out of scope — the synthetic web uses
ASCII hostnames, as does the paper's target list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.errors import URLError
from repro.urlkit.psl import registrable_domain

_ALLOWED_SCHEMES = ("http", "https")
_DEFAULT_PORTS = {"http": 80, "https": 443}

_HOST_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789.-")


@dataclass(frozen=True)
class URL:
    """An immutable parsed URL."""

    scheme: str
    host: str
    port: Optional[int] = None
    path: str = "/"
    query: str = ""
    fragment: str = ""

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def effective_port(self) -> int:
        """The port in use, defaulting per scheme."""
        return self.port if self.port is not None else _DEFAULT_PORTS[self.scheme]

    @property
    def origin(self) -> str:
        """The (scheme, host, port) origin string."""
        default = _DEFAULT_PORTS[self.scheme]
        if self.port is None or self.port == default:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    @property
    def site(self) -> Optional[str]:
        """The registrable domain ("site") of the host, or None."""
        return registrable_domain(self.host)

    @property
    def query_params(self) -> Dict[str, str]:
        """Query string decoded into a dict (last value wins)."""
        params: Dict[str, str] = {}
        if not self.query:
            return params
        for piece in self.query.split("&"):
            if not piece:
                continue
            key, _, value = piece.partition("=")
            params[key] = value
        return params

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def join(self, reference: str) -> "URL":
        """Resolve *reference* against this URL (RFC 3986 subset)."""
        reference = reference.strip()
        if not reference:
            return self
        if "://" in reference:
            return parse(reference)
        if reference.startswith("//"):
            return parse(f"{self.scheme}:{reference}")
        if reference.startswith("#"):
            return replace(self, fragment=reference[1:])
        if reference.startswith("?"):
            query, _, fragment = reference[1:].partition("#")
            return replace(self, query=query, fragment=fragment)
        path_part, _, fragment = reference.partition("#")
        path_part, _, query = path_part.partition("?")
        if path_part.startswith("/"):
            new_path = path_part
        else:
            base_dir = self.path.rsplit("/", 1)[0]
            new_path = f"{base_dir}/{path_part}"
        return replace(
            self,
            path=_normalize_path(new_path),
            query=query,
            fragment=fragment,
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        out = [self.origin, self.path]
        if self.query:
            out.append("?" + self.query)
        if self.fragment:
            out.append("#" + self.fragment)
        return "".join(out)


def parse(raw: str) -> URL:
    """Parse an absolute URL string into a :class:`URL`.

    Raises :class:`~repro.errors.URLError` on malformed input.
    """
    if not isinstance(raw, str):
        raise URLError(f"URL must be a string, got {type(raw).__name__}")
    return _parse(raw)


@lru_cache(maxsize=16384)
def _parse(raw: str) -> URL:
    """:func:`parse` for a string.

    Memoized: every visit re-parses the same page, subresource and
    redirect URLs.  :class:`URL` is frozen, so sharing one instance
    between callers is safe; malformed input raises and so is never
    cached.
    """
    raw = raw.strip()
    if not raw:
        raise URLError("empty URL")
    scheme, sep, rest = raw.partition("://")
    if not sep:
        raise URLError(f"URL lacks a scheme: {raw!r}")
    scheme = scheme.lower()
    if scheme not in _ALLOWED_SCHEMES:
        raise URLError(f"unsupported scheme {scheme!r} in {raw!r}")

    rest, _, fragment = rest.partition("#")
    rest, _, query = rest.partition("?")
    authority, slash, path = rest.partition("/")
    path = slash + path if slash else "/"

    host, port = _parse_authority(authority, raw)
    return URL(
        scheme=scheme,
        host=host,
        port=port,
        path=_normalize_path(path),
        query=query,
        fragment=fragment,
    )


def _parse_authority(authority: str, raw: str) -> Tuple[str, Optional[int]]:
    if not authority:
        raise URLError(f"URL lacks a host: {raw!r}")
    if "@" in authority:
        raise URLError(f"userinfo in URLs is not supported: {raw!r}")
    host, _, port_text = authority.partition(":")
    host = host.lower()
    if not host or not set(host) <= _HOST_CHARS:
        raise URLError(f"invalid host {host!r} in {raw!r}")
    if host.startswith(".") or host.endswith("-"):
        raise URLError(f"invalid host {host!r} in {raw!r}")
    port: Optional[int] = None
    if port_text:
        if not port_text.isdigit():
            raise URLError(f"invalid port {port_text!r} in {raw!r}")
        port = int(port_text)
        if not 1 <= port <= 65535:
            raise URLError(f"port out of range in {raw!r}")
    return host, port


def _normalize_path(path: str) -> str:
    """Collapse ``.``/``..`` segments and duplicate slashes."""
    if not path:
        return "/"
    segments: List[str] = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if segments:
                segments.pop()
            continue
        segments.append(segment)
    normalized = "/" + "/".join(segments)
    if path.endswith("/") and normalized != "/":
        normalized += "/"
    return normalized


def is_same_site(a: "URL | str", b: "URL | str") -> bool:
    """True when both URLs/hosts share a registrable domain."""
    host_a = a.host if isinstance(a, URL) else str(a)
    host_b = b.host if isinstance(b, URL) else str(b)
    site_a = registrable_domain(host_a)
    site_b = registrable_domain(host_b)
    if site_a is None or site_b is None:
        return host_a.lower() == host_b.lower()
    return site_a == site_b


@lru_cache(maxsize=16384)
def is_subdomain_of(host: str, parent: str, *, strict: bool = False) -> bool:
    """True when *host* equals or is a subdomain of *parent*.

    With ``strict=True`` equality does not count.

    Memoized: this is the innermost comparison of every ``||domain^``
    filter match and every ``$domain=`` option check, called with a
    small recurring set of (host, parent) pairs per crawl.
    """
    host = host.lower().rstrip(".")
    parent = parent.lower().rstrip(".")
    if host == parent:
        return not strict
    return host.endswith("." + parent)
