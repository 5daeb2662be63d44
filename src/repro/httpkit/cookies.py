"""RFC 6265-style cookies: parsing, domain matching, and a cookie jar.

The measurement pipeline's key metric is the number of first-party,
third-party, and tracking cookies a visit accumulates (paper §4.3), so
the jar records for every cookie which origin set it and classifies
party-ness relative to the *top-level* page site the way OpenWPM does:
a cookie is third-party when its domain's registrable domain differs
from the visited page's registrable domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.errors import CookieError
from repro.urlkit import URL, is_public_suffix, registrable_domain


@dataclass(frozen=True)
class Cookie:
    """A single cookie as stored in the jar."""

    name: str
    value: str
    domain: str              # without leading dot
    path: str = "/"
    secure: bool = False
    http_only: bool = False
    host_only: bool = True   # True when no Domain attribute was given
    max_age: Optional[int] = None
    same_site: str = "lax"

    @property
    def site(self) -> Optional[str]:
        """The registrable domain the cookie belongs to."""
        return registrable_domain(self.domain)

    @property
    def expired(self) -> bool:
        return self.max_age is not None and self.max_age <= 0

    def key(self) -> Tuple[str, str, str]:
        return (self.name, self.domain, self.path)


@lru_cache(maxsize=16384)
def domain_match(host: str, cookie_domain: str) -> bool:
    """RFC 6265 §5.1.3 domain-match.

    Memoized: the jar evaluates every stored cookie against every
    outgoing request URL, over a small recurring set of string pairs.
    """
    host = host.lower().rstrip(".")
    cookie_domain = cookie_domain.lower().lstrip(".").rstrip(".")
    if host == cookie_domain:
        return True
    return host.endswith("." + cookie_domain)


def path_match(request_path: str, cookie_path: str) -> bool:
    """RFC 6265 §5.1.4 path-match."""
    if request_path == cookie_path:
        return True
    if request_path.startswith(cookie_path):
        if cookie_path.endswith("/"):
            return True
        return request_path[len(cookie_path):].startswith("/")
    return False


def parse_cookie_header(value: Optional[str]) -> Dict[str, str]:
    """Parse a request ``Cookie`` header into a name→value dict."""
    out: Dict[str, str] = {}
    if not value:
        return out
    for pair in value.split(";"):
        name, sep, val = pair.partition("=")
        if sep and name.strip():
            out[name.strip()] = val.strip()
    return out


class _BadMaxAge(CookieError):
    """Raised by :func:`_parse_attributes`; :func:`parse_set_cookie`
    re-raises it quoting the whole header."""


def parse_set_cookie(header: str, request_url: URL) -> Cookie:
    """Parse a ``Set-Cookie`` header value in the context of a request.

    Raises :class:`CookieError` for cookies a browser would reject
    (empty names, domains that do not domain-match the request host,
    attempts to set cookies for a public suffix).

    The ``name=value`` pair is parsed on every call (values embed the
    visit id); the attribute tail comes from a small recurring
    vocabulary, so it is parsed once per ``(tail, host)`` by
    :func:`_parse_attributes`.
    """
    pair, _, tail = header.partition(";")
    name, sep, value = pair.partition("=")
    name = name.strip()
    value = value.strip().strip('"')
    if not sep or not name:
        raise CookieError(f"malformed cookie pair in {header!r}")
    try:
        attributes = _parse_attributes(tail, request_url.host)
    except _BadMaxAge:
        raise CookieError(f"bad Max-Age in {header!r}") from None
    # __new__ + direct __dict__ writes (the Node.clone idiom): the
    # frozen dataclass __init__ pays an object.__setattr__ per field,
    # about four times the cost of this on every Set-Cookie header.
    # Same fields in the same order, so ==, hash and repr are unchanged.
    cookie = object.__new__(Cookie)
    fields = cookie.__dict__
    fields["name"] = name
    fields["value"] = value
    (
        fields["domain"], fields["path"], fields["secure"],
        fields["http_only"], fields["host_only"], fields["max_age"],
        fields["same_site"],
    ) = attributes
    return cookie


@lru_cache(maxsize=16384)
def _parse_attributes(
    tail: str, host: str
) -> Tuple[str, str, bool, bool, bool, Optional[int], str]:
    """The attribute fields of a Set-Cookie tail for a request *host*.

    Returns ``(domain, path, secure, http_only, host_only, max_age,
    same_site)`` in :class:`Cookie` field order.  Memoized; a rejected
    tail raises and so is never cached.
    """
    domain = host
    host_only = True
    path = "/"
    secure = False
    http_only = False
    max_age: Optional[int] = None
    same_site = "lax"

    for part in tail.split(";"):
        attr, _, attr_value = part.partition("=")
        attr = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr == "domain" and attr_value:
            candidate = attr_value.lstrip(".").lower()
            if is_public_suffix(candidate):
                raise CookieError(
                    f"cookie domain {candidate!r} is a public suffix"
                )
            if not domain_match(host, candidate):
                raise CookieError(
                    f"cookie domain {candidate!r} does not match host "
                    f"{host!r}"
                )
            domain = candidate
            host_only = False
        elif attr == "path" and attr_value.startswith("/"):
            path = attr_value
        elif attr == "secure":
            secure = True
        elif attr == "httponly":
            http_only = True
        elif attr == "max-age":
            try:
                max_age = int(attr_value)
            except ValueError:
                raise _BadMaxAge() from None
        elif attr == "samesite" and attr_value:
            same_site = attr_value.lower()

    return domain, path, secure, http_only, host_only, max_age, same_site


class CookieJar:
    """Stores cookies and answers matching + party-ness queries.

    :meth:`cookies_for` is the hottest jar query — the browser calls
    it for every outgoing request — so cookies are bucketed by the
    registrable domain of their cookie-domain: a request can only
    carry cookies whose domain the request host domain-matches, and a
    domain-match implies a shared registrable domain, so one bucket
    lookup replaces the scan over every stored cookie.  Cookies whose
    domain has no registrable domain (bare public suffixes, unknown
    TLDs, ``localhost``) land in a small catch-all bucket that is
    always scanned.  Results keep global insertion order (replacing a
    cookie keeps its original position, exactly like the pre-index
    dict scan), so the emitted ``Cookie`` headers are unchanged
    byte-for-byte — :class:`NaiveCookieJar` preserves the linear scan
    as the differential oracle.
    """

    def __init__(self) -> None:
        self._cookies: Dict[Tuple[str, str, str], Cookie] = {}
        #: registrable domain -> key -> cookie (the hot-path index).
        self._site_index: Dict[str, Dict[Tuple[str, str, str], Cookie]] = {}
        #: Cookies whose domain has no registrable domain.
        self._unbucketed: Dict[Tuple[str, str, str], Cookie] = {}
        #: key -> global insertion rank (replacement keeps the rank,
        #: mirroring dict-order semantics of the pre-index jar).
        self._rank: Dict[Tuple[str, str, str], int] = {}
        self._next_rank = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _bucket(self, cookie: Cookie) -> Dict[Tuple[str, str, str], Cookie]:
        site = registrable_domain(cookie.domain)
        if site is None:
            return self._unbucketed
        return self._site_index.setdefault(site, {})

    def _discard(self, key: Tuple[str, str, str]) -> Optional[Cookie]:
        cookie = self._cookies.pop(key, None)
        if cookie is None:
            return None
        self._rank.pop(key, None)
        site = registrable_domain(cookie.domain)
        if site is None:
            self._unbucketed.pop(key, None)
        else:
            bucket = self._site_index.get(site)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._site_index[site]
        return cookie

    def set_cookie(self, cookie: Cookie) -> None:
        """Insert or replace a cookie (expired cookies delete)."""
        key = cookie.key()
        if cookie.expired:
            self._discard(key)
            return
        if key not in self._rank:
            self._rank[key] = self._next_rank
            self._next_rank += 1
        # The key embeds the domain, so a replacement lands in the
        # same bucket — overwrite both stores in place.
        self._cookies[key] = cookie
        self._bucket(cookie)[key] = cookie

    def set_from_header(self, header: str, request_url: URL) -> Optional[Cookie]:
        """Parse and store a Set-Cookie header; None when rejected."""
        try:
            cookie = parse_set_cookie(header, request_url)
        except CookieError:
            return None
        self.set_cookie(cookie)
        return cookie

    def clear(self, *, site: Optional[str] = None) -> int:
        """Delete all cookies, or only those belonging to *site*.

        Returns the number of cookies removed.  Clearing a single site
        models the "delete your cookies to re-decide" flow discussed in
        paper §5 (Revoking Cookiewall Acceptance).
        """
        if site is None:
            count = len(self._cookies)
            self._cookies.clear()
            self._site_index.clear()
            self._unbucketed.clear()
            self._rank.clear()
            self._next_rank = 0
            return count
        # ``cookie.site`` *is* the bucket key, so the site's bucket is
        # exactly the set the linear scan would have found.
        keys = list(self._site_index.get(site, ()))
        for key in keys:
            self._discard(key)
        return len(keys)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def all_cookies(self) -> List[Cookie]:
        return list(self._cookies.values())

    def __len__(self) -> int:
        return len(self._cookies)

    def __iter__(self):
        return iter(self.all_cookies())

    def _candidates(self, host: str) -> List[Cookie]:
        """Cookies that could possibly domain-match *host*, in global
        insertion order.

        A domain-match requires the request host to end with the
        cookie domain at a label boundary, which forces both onto the
        same registrable domain — so only *host*'s bucket plus the
        unbucketable catch-all can match.  A host with no registrable
        domain of its own can still exact/suffix-match an unbucketed
        cookie domain, so those always stay in the pool.
        """
        site = registrable_domain(host)
        bucket = self._site_index.get(site) if site is not None else None
        if not self._unbucketed:
            if not bucket:
                return []
            return list(bucket.values())
        if not bucket:
            return list(self._unbucketed.values())
        merged = list(bucket.values()) + list(self._unbucketed.values())
        merged.sort(key=lambda cookie: self._rank[cookie.key()])
        return merged

    def cookies_for(self, url: URL, *, first_party_site: Optional[str] = None) -> List[Cookie]:
        """Cookies a request to *url* would carry.

        ``first_party_site`` enables a coarse SameSite check: strict
        cookies are withheld on cross-site requests.
        """
        out = []
        for cookie in self._candidates(url.host):
            if cookie.host_only:
                if url.host != cookie.domain:
                    continue
            elif not domain_match(url.host, cookie.domain):
                continue
            if not path_match(url.path, cookie.path):
                continue
            if cookie.secure and url.scheme != "https":
                continue
            if (
                first_party_site is not None
                and cookie.same_site == "strict"
                and registrable_domain(url.host) != first_party_site
            ):
                continue
            out.append(cookie)
        return out

    def get(self, name: str, domain: str) -> Optional[Cookie]:
        """Find a cookie by name on *domain* (any path)."""
        for cookie in self._cookies.values():
            if cookie.name == name and cookie.domain == domain.lower():
                return cookie
        return None

    def has(self, name: str, domain: str) -> bool:
        return self.get(name, domain) is not None

    def snapshot(self) -> "CookieJar":
        """An independent copy of the jar."""
        copy = type(self)()
        copy._cookies = dict(self._cookies)
        copy._site_index = {
            site: dict(bucket) for site, bucket in self._site_index.items()
        }
        copy._unbucketed = dict(self._unbucketed)
        copy._rank = dict(self._rank)
        copy._next_rank = self._next_rank
        return copy


# reprolint: disable=test-only-definition -- oracle: the linear-scan jar the differential tests hold the indexed jar to
class NaiveCookieJar(CookieJar):
    """The pre-index jar: :meth:`cookies_for` scans every stored cookie.

    Kept as the differential oracle (mirroring
    :class:`repro.adblock.NaiveFilterEngine`): the indexed jar must
    answer every query exactly like this linear scan, list order
    included — ``tests/test_hotpaths_differential.py`` holds the two
    implementations together under randomized cookie workloads.  Only
    candidate selection is overridden; the matching predicate itself
    is shared, so the oracle diverges on indexing bugs and nothing
    else.
    """

    def _candidates(self, host: str) -> List[Cookie]:
        return list(self._cookies.values())
