"""Differential tests for the indexed hot paths.

Every fast path added by the indexing pass must be *invisible* in the
output: the indexed filter engine answers exactly like the naive
linear-scan oracle, indexed selector queries return exactly what a
full-tree walk returns, and a crawl with every hot path disabled
produces byte-identical records to the default configuration.  The
switchless memos (Set-Cookie attribute tails, URL parses) are held
against the un-memoised code, and the pierced tree walk against a
recursive reference walk.

Randomized halves use Hypothesis.  CI exports
``REPRO_REQUIRE_DIFFERENTIAL=1`` so a missing Hypothesis fails the job
loudly instead of silently skipping the differential evidence.
"""

import json
import os

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised only on broken installs
    if os.environ.get("REPRO_REQUIRE_DIFFERENTIAL"):
        pytest.fail(
            "hypothesis is unavailable but REPRO_REQUIRE_DIFFERENTIAL is "
            "set: the indexed-engine differential suite must not be skipped"
        )
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro import perf
from repro.adblock import FilterEngine, NaiveFilterEngine
from repro.api import Session
from repro.bannerclick import BannerClick
from repro.browser import Browser
from repro.dom import Document, Element, ShadowRoot, Text
from repro.dom.selector import (
    iter_elements_by_tags,
    query_selector,
    query_selector_all,
)
from repro.errors import CookieError, URLError
from repro.httpkit import Cookie, CookieJar, NaiveCookieJar, Request
from repro.httpkit.cookies import domain_match, parse_set_cookie
from repro.measure.crawl import Crawler
from repro.netsim import Network
from repro.urlkit import is_public_suffix, parse
from repro.urlkit import url as url_module
from repro.vantage import VANTAGE_POINTS
from repro.webgen import build_world
from tests.servers import StaticServer

# ---------------------------------------------------------------------------
# Filter-list / request strategies
# ---------------------------------------------------------------------------

_DOMAINS = (
    "ads.example.com", "example.com", "tracker.net", "cdn.tracker.net",
    "site.de", "news.site.de", "cdn.opencmp.net", "a.co.uk", "b.a.co.uk",
    "pixel.io",
)
_TYPES = ("script", "image", "stylesheet", "subdocument", "xhr", "other")

_domain = st.sampled_from(_DOMAINS)
_tokens = st.sampled_from(
    ("ads", "pixel", "track", "banner", "adframe", "id", "slot", "Promo")
)


@st.composite
def _options(draw):
    parts = []
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(_TYPES[:4])))
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(("third-party", "~third-party"))))
    if draw(st.booleans()):
        doms = draw(st.lists(_domain, min_size=1, max_size=2))
        marks = ["~" + d if draw(st.booleans()) else d for d in doms]
        parts.append("domain=" + "|".join(marks))
    return "$" + ",".join(parts) if parts else ""


@st.composite
def _network_line(draw):
    exception = "@@" if draw(st.integers(0, 9)) == 0 else ""
    opts = draw(_options())
    if draw(st.booleans()):
        return f"{exception}||{draw(_domain)}^{opts}"
    t1, t2 = draw(_tokens), draw(_tokens)
    pattern = draw(
        st.sampled_from(
            (
                f"/{t1}?{t2}=",
                f"*cdn.{t1}.net/*",
                f"/{t1}/{t2}.",
                f"{t1}.js",
                f"-{t1}^",
                f"*{t1}*{t2}*",
            )
        )
    )
    return f"{exception}{pattern}{opts}"


@st.composite
def _cosmetic_line(draw):
    marker = "#@#" if draw(st.integers(0, 4)) == 0 else "##"
    selector = draw(
        st.sampled_from((".ad", ".banner", "#wall", "div[data-promo]", ".x-1"))
    )
    if draw(st.booleans()):
        domains = ",".join(draw(st.lists(_domain, min_size=1, max_size=2)))
        return f"{domains}{marker}{selector}"
    return f"{marker}{selector}"


_filter_list = st.lists(
    st.one_of(_network_line(), _cosmetic_line()), min_size=1, max_size=40
).map(lambda lines: "\n".join(lines) + "\n")


@st.composite
def _request(draw):
    host = draw(_domain)
    path = "/" + "/".join(draw(st.lists(_tokens, max_size=3)))
    query = f"?{draw(_tokens)}={draw(_tokens)}" if draw(st.booleans()) else ""
    initiator = (
        f"https://{draw(_domain)}/" if draw(st.booleans()) else None
    )
    return Request(
        url=f"https://{host}{path}{query}",
        initiator=initiator,
        resource_type=draw(st.sampled_from(_TYPES)),
    )


class TestFilterEngineDifferential:
    @given(
        lists=st.lists(_filter_list, min_size=1, max_size=3),
        requests=st.lists(_request(), min_size=1, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_network_decisions_identical(self, lists, requests):
        naive, indexed = NaiveFilterEngine(), FilterEngine()
        for text in lists:
            naive.add_list(text)
            indexed.add_list(text)
        for request in requests:
            assert naive.should_block(request) == indexed.should_block(request)
            nf_naive = naive.matching_filter(request)
            nf_indexed = indexed.matching_filter(request)
            assert (nf_naive is None) == (nf_indexed is None)
            if nf_naive is not None:
                assert nf_naive.raw == nf_indexed.raw
            assert naive.explain(request) == indexed.explain(request)
        # One decision = one hit, identically attributed in both engines.
        assert dict(naive.hit_counts) == dict(indexed.hit_counts)

    @given(
        lists=st.lists(_filter_list, min_size=1, max_size=3),
        hosts=st.lists(
            st.one_of(_domain, _domain.map(lambda d: "deep.sub." + d)),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_cosmetic_selectors_identical(self, lists, hosts):
        naive, indexed = NaiveFilterEngine(), FilterEngine()
        for text in lists:
            naive.add_list(text)
            indexed.add_list(text)
        for host in hosts:
            assert naive.cosmetic_selectors(host) == indexed.cosmetic_selectors(host)
            # Second call exercises the indexed engine's LRU hit path.
            assert naive.cosmetic_selectors(host) == indexed.cosmetic_selectors(host)


# ---------------------------------------------------------------------------
# DOM / selector strategies
# ---------------------------------------------------------------------------

_TAGS = ("div", "span", "p", "section", "a", "button")
_IDS = ("a", "b", "main", "wall", "x1")
_CLASSES = ("ad", "banner", "wall", "btn", "hidden")


@st.composite
def _element(draw, depth=0):
    el = Element(draw(st.sampled_from(_TAGS)))
    if draw(st.booleans()):
        el.attrs["id"] = draw(st.sampled_from(_IDS))
    classes = draw(st.lists(st.sampled_from(_CLASSES), max_size=3))
    if classes:
        el.attrs["class"] = " ".join(classes)
    if draw(st.booleans()):
        el.attrs[draw(st.sampled_from(("data-x", "role", "href")))] = draw(
            st.sampled_from(("v1", "button main", "x y", ""))
        )
    if depth < 3:
        for child in draw(
            st.lists(_element(depth=depth + 1), max_size=3 if depth < 2 else 1)
        ):
            el.append_child(child)
    if draw(st.booleans()):
        el.append_child(Text("text"))
    return el


@st.composite
def _document(draw):
    doc = Document("https://test.example/")
    for el in draw(st.lists(_element(), min_size=1, max_size=3)):
        doc.append_child(el)
    return doc


_compound = st.sampled_from(
    (
        "div", "span", "*", "section", ".ad", ".banner", "#a", "#main",
        "[data-x]", "[role~=main]", "[href^=v]", "div.ad", "span#b",
        ".ad.banner", "div:not(.ad)", "p[data-x=v1]", "[data-x$=1]",
        "[href*=utt]",
    )
)


@st.composite
def _selector(draw):
    chains = []
    for _ in range(draw(st.integers(1, 3))):
        parts = draw(st.lists(_compound, min_size=1, max_size=3))
        combinators = [
            draw(st.sampled_from((" ", " > "))) for _ in range(len(parts) - 1)
        ]
        chain = parts[0]
        for comb, part in zip(combinators, parts[1:]):
            chain += comb + part
        chains.append(chain)
    return ", ".join(chains)


def _walk_query_all(root, selector):
    with perf.disabled("selector_index"):
        return query_selector_all(root, selector)


class TestSelectorDifferential:
    @given(doc=_document(), selectors=st.lists(_selector(), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_indexed_queries_match_walk(self, doc, selectors):
        for selector in selectors:
            expected = _walk_query_all(doc, selector)
            assert query_selector_all(doc, selector) == expected
            first = expected[0] if expected else None
            assert query_selector(doc, selector) is first

    @given(
        doc=_document(),
        selector=_selector(),
        mutate=st.sampled_from(("detach", "set-class", "set-id", "append")),
        pick=st.integers(0, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_index_invalidation_after_mutation(self, doc, selector, mutate, pick):
        # Prime the index, mutate the tree, then require the indexed
        # answer to track the walk-based answer exactly.
        query_selector_all(doc, selector)
        elements = [el for el in doc.elements()]
        target = elements[pick % len(elements)]
        if mutate == "detach":
            target.detach()
        elif mutate == "set-class":
            target.set_attribute("class", "ad banner")
        elif mutate == "set-id":
            target.set_attribute("id", "main")
        else:
            target.append_child(Element("div", {"class": "ad"}))
        assert query_selector_all(doc, selector) == _walk_query_all(doc, selector)

    @given(doc=_document(), selector=_selector())
    @settings(max_examples=100, deadline=None)
    def test_subtree_rooted_queries_match_walk(self, doc, selector):
        for root in list(doc.elements())[:5]:
            assert query_selector_all(root, selector) == _walk_query_all(
                root, selector
            )


# ---------------------------------------------------------------------------
# Page frame walk
# ---------------------------------------------------------------------------

class TestFrameWalk:
    def _page(self):
        net = Network()
        net.register(
            "site.de",
            StaticServer(
                '<div><template shadowrootmode="open">'
                '<iframe srcdoc="&lt;p&gt;inner&lt;/p&gt;"></iframe>'
                "</template></div>"
                '<iframe srcdoc="&lt;iframe srcdoc=&quot;&lt;b&gt;deep&lt;/b&gt;&quot;&gt;&lt;/iframe&gt;"></iframe>'
            ),
        )
        browser = Browser(net, VANTAGE_POINTS["DE"])
        return browser.visit("site.de")

    @staticmethod
    def _texts(page):
        return [doc.body.text_content() for doc in page.all_documents()]

    def test_walk_finds_shadow_and_nested_frames(self):
        page = self._page()
        shadowed, light = page.iframes()
        # The first iframe sits in a shadow root, the second in <body>.
        assert isinstance(shadowed.parent, ShadowRoot)
        assert light.parent is page.document.body
        docs = list(page.all_documents())
        assert docs[0] is page.document
        assert docs[1] is shadowed.content_document
        assert docs[2] is light.content_document
        # The nested frame's document is walked, not only top-level ones.
        (nested,) = [
            el for el in docs[2].element_lists()[0] if el.tag == "iframe"
        ]
        assert docs[3] is nested.content_document
        assert self._texts(page) == ["", "inner", "", "deep"]

    def test_walk_sees_a_detached_iframe_gone(self):
        page = self._page()
        # The visit serves a shared read-only parse; writing needs the
        # page's private copy.
        page.writable()
        before = page.iframes()
        assert len(before) == 2
        before[0].detach()
        assert page.iframes() == before[1:]
        assert self._texts(page) == ["", "", "deep"]


# ---------------------------------------------------------------------------
# End-to-end: byte-identical records with every hot path off vs on
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Cookie-jar strategies: the indexed (registrable-domain-bucketed) jar
# against the linear-scan NaiveCookieJar oracle.
# ---------------------------------------------------------------------------

#: Hosts chosen to stress the bucketing: shared registrable domains,
#: multi-label public suffixes, bare suffixes, and PSL-unknown names.
_COOKIE_HOSTS = (
    "site.de", "www.site.de", "deep.www.site.de", "other.de",
    "example.co.uk", "sub.example.co.uk", "b.sub.example.co.uk",
    "co.uk", "news.com.au", "tracker.net", "cdn.tracker.net",
    "localhost", "internal", "x.internal",
)
_COOKIE_PATHS = ("/", "/a", "/a/", "/a/b", "/ab")


@st.composite
def _jar_cookie(draw):
    return Cookie(
        name=draw(st.sampled_from(("sid", "uid", "pref", "track"))),
        value=draw(st.sampled_from(("1", "2", "x"))),
        domain=draw(st.sampled_from(_COOKIE_HOSTS)),
        path=draw(st.sampled_from(_COOKIE_PATHS)),
        secure=draw(st.booleans()),
        host_only=draw(st.booleans()),
        max_age=draw(st.sampled_from((None, 600, 0))),
        same_site=draw(st.sampled_from(("lax", "strict"))),
    )


@st.composite
def _jar_op(draw):
    kind = draw(st.sampled_from(("set", "set", "set", "clear-site")))
    if kind == "set":
        return ("set", draw(_jar_cookie()))
    return ("clear-site", draw(st.sampled_from(
        ("site.de", "example.co.uk", "tracker.net", "nosuch.de")
    )))


@st.composite
def _jar_query(draw):
    scheme = draw(st.sampled_from(("http", "https")))
    host = draw(st.sampled_from(_COOKIE_HOSTS))
    path = draw(st.sampled_from(_COOKIE_PATHS))
    first_party = draw(st.sampled_from(
        (None, "site.de", "example.co.uk", "other.de")
    ))
    return (f"{scheme}://{host}{path}", first_party)


class TestCookieJarDifferential:
    """The bucketed jar must be invisible: every query answers exactly
    like the linear scan, result order included — the Cookie headers a
    browser assembles from it feed byte-identical records."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(_jar_op(), min_size=0, max_size=25),
        queries=st.lists(_jar_query(), min_size=1, max_size=8),
    )
    def test_indexed_jar_matches_naive_oracle(self, ops, queries):
        indexed, naive = CookieJar(), NaiveCookieJar()
        for op in ops:
            if op[0] == "set":
                indexed.set_cookie(op[1])
                naive.set_cookie(op[1])
            else:
                assert indexed.clear(site=op[1]) == naive.clear(site=op[1])
        assert indexed.all_cookies() == naive.all_cookies()
        for url_text, first_party in queries:
            url = parse(url_text)
            assert indexed.cookies_for(
                url, first_party_site=first_party
            ) == naive.cookies_for(url, first_party_site=first_party), (
                f"divergence for {url_text} (first_party={first_party})"
            )

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(_jar_op(), min_size=1, max_size=15),
        query=_jar_query(),
    )
    def test_snapshot_preserves_equivalence(self, ops, query):
        indexed, naive = CookieJar(), NaiveCookieJar()
        for op in ops:
            if op[0] == "set":
                indexed.set_cookie(op[1])
                naive.set_cookie(op[1])
            else:
                indexed.clear(site=op[1])
                naive.clear(site=op[1])
        snap_indexed, snap_naive = indexed.snapshot(), naive.snapshot()
        indexed.clear()
        naive.clear()
        url = parse(query[0])
        assert snap_indexed.cookies_for(
            url, first_party_site=query[1]
        ) == snap_naive.cookies_for(url, first_party_site=query[1])


def _campaign():
    """A serial (workers=1, shards=1) crawl + cookie + uBlock campaign.

    Builds its own fixed-seed world: cookie measurements consume the
    world's shared visit-id stream, so both campaign runs must start
    from an identical counter state.
    """
    world = build_world(scale=0.02, seed=2023)
    crawler = Crawler(world)
    records = Session(world, crawler=crawler).execute(
        crawler.plan_detection_crawl(["DE", "SE"])
    ).records
    walls = [r.domain for r in records if r.is_cookiewall][:4]
    cookies = [
        crawler.measure_accept_cookies("DE", d, repeats=2) for d in walls
    ]
    ublock = [crawler.measure_ublock("DE", d, iterations=3) for d in walls]
    return (
        json.dumps([r.to_dict() for r in records], sort_keys=True),
        json.dumps([m.to_dict() for m in cookies], sort_keys=True),
        json.dumps([r.to_dict() for r in ublock], sort_keys=True),
    )


class TestEndToEndDifferential:
    def test_crawl_measure_ublock_records_byte_identical(self):
        with perf.disabled():
            baseline = _campaign()
        indexed = _campaign()
        assert indexed[0] == baseline[0], "detection-crawl records diverged"
        assert indexed[1] == baseline[1], "cookie measurements diverged"
        assert indexed[2] == baseline[2], "uBlock records diverged"


# ---------------------------------------------------------------------------
# Set-Cookie attribute-tail memo: memoised parse_set_cookie against the
# pre-memo parser, kept here as the oracle.
# ---------------------------------------------------------------------------

def _oracle_parse_set_cookie(header, request_url):
    """``parse_set_cookie`` as it was before the attribute-tail memo."""
    parts = header.split(";")
    name, sep, value = parts[0].partition("=")
    name = name.strip()
    value = value.strip().strip('"')
    if not sep or not name:
        raise CookieError(f"malformed cookie pair in {header!r}")

    domain = request_url.host
    host_only = True
    path = "/"
    secure = False
    http_only = False
    max_age = None
    same_site = "lax"

    for part in parts[1:]:
        attr, _, attr_value = part.partition("=")
        attr = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr == "domain" and attr_value:
            candidate = attr_value.lstrip(".").lower()
            if is_public_suffix(candidate):
                raise CookieError(
                    f"cookie domain {candidate!r} is a public suffix"
                )
            if not domain_match(request_url.host, candidate):
                raise CookieError(
                    f"cookie domain {candidate!r} does not match host "
                    f"{request_url.host!r}"
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
                raise CookieError(f"bad Max-Age in {header!r}") from None
        elif attr == "samesite" and attr_value:
            same_site = attr_value.lower()

    return Cookie(
        name=name, value=value, domain=domain, path=path, secure=secure,
        http_only=http_only, host_only=host_only, max_age=max_age,
        same_site=same_site,
    )


def _outcome(fn, *args):
    """``("ok", result)`` or ``("raise", type name, message)``."""
    try:
        return ("ok", fn(*args))
    except (CookieError, URLError) as error:
        return ("raise", type(error).__name__, str(error))


_SET_COOKIE_HOSTS = (
    "site.de", "www.site.de", "news.example.co.uk", "tracker.net",
    "cdn.tracker.net", "localhost",
)


def _any_case(word):
    return st.sampled_from((word, word.upper(), word.capitalize()))


@st.composite
def _set_cookie_attribute(draw):
    kind = draw(st.sampled_from((
        "domain", "path", "secure", "httponly", "max-age", "samesite",
        "unknown", "empty",
    )))
    if kind == "empty":
        return draw(st.sampled_from(("", " ")))
    name = draw(_any_case({"max-age": "Max-Age"}.get(kind, kind)))
    if kind == "domain":
        domain = draw(st.sampled_from((
            "site.de", "SITE.de", "www.site.de", "de", "co.uk",
            "example.co.uk", "tracker.net", "foreign.org", "",
        )))
        value = draw(st.sampled_from(("", "."))) + domain
    elif kind == "path":
        value = draw(st.sampled_from(("/", "/a", "/a/b/", "rel", "")))
    elif kind == "max-age":
        value = draw(st.sampled_from(
            ("0", "-1", "3600", " 86400 ", "1e3", "abc", "", "12x")
        ))
    elif kind == "samesite":
        value = draw(st.sampled_from(("Lax", "STRICT", "none", "")))
    elif kind == "unknown":
        name = draw(st.sampled_from(("Expires", "Priority", "Partitioned")))
        value = draw(st.sampled_from(("Wed, 21 Oct 2026 07:28:00 GMT", "High")))
    else:
        value = None
    if value is None:
        return f" {name}" if draw(st.booleans()) else name
    spacer = draw(st.sampled_from(("", " ")))
    return f"{spacer}{name}{spacer}={spacer}{value}"


@st.composite
def _set_cookie_header(draw):
    name = draw(st.sampled_from(("sid", "_ga", " uid ", "", "consent")))
    value = draw(st.sampled_from(
        ("abc", '"quoted"', "", "v=1", " spaced ", "visit-17")
    ))
    pair = f"{name}={value}" if draw(st.integers(0, 9)) else name
    attributes = draw(st.lists(_set_cookie_attribute(), max_size=5))
    separator = draw(st.sampled_from((";", "; ")))
    tail = "".join(separator + attribute for attribute in attributes)
    return pair + tail + draw(st.sampled_from(("", ";", "; ")))


class TestSetCookieMemoDifferential:
    @given(
        headers=st.lists(_set_cookie_header(), min_size=1, max_size=10),
        hosts=st.lists(st.sampled_from(_SET_COOKIE_HOSTS), min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_memoised_parser_matches_oracle(self, headers, hosts):
        for header in headers:
            for host in hosts:
                url = parse(f"https://{host}/a/b")
                expected = _outcome(_oracle_parse_set_cookie, header, url)
                # Twice: the second call is served from the memo, and a
                # rejected header must raise again.
                assert _outcome(parse_set_cookie, header, url) == expected
                assert _outcome(parse_set_cookie, header, url) == expected

    def test_bad_max_age_quotes_the_whole_header(self):
        url = parse("https://site.de/")
        for visit in (1, 2):
            header = f"uid=visit-{visit}; Path=/; Max-Age=soon"
            with pytest.raises(CookieError) as raised:
                parse_set_cookie(header, url)
            assert str(raised.value) == f"bad Max-Age in {header!r}"

    def test_rejected_domain_raises_on_every_call(self):
        url = parse("https://site.de/")
        for _ in range(3):
            with pytest.raises(CookieError, match="does not match host"):
                parse_set_cookie("a=1; Domain=other.de", url)

    @given(
        headers=st.lists(_set_cookie_header(), min_size=1, max_size=10),
        host=st.sampled_from(_SET_COOKIE_HOSTS),
    )
    @settings(max_examples=200, deadline=None)
    def test_parsed_cookie_is_a_constructed_cookie(self, headers, host):
        # parse_set_cookie skips the dataclass __init__; the result must
        # still be indistinguishable from Cookie(...).
        url = parse(f"https://{host}/a/b")
        for header in headers:
            try:
                parsed = parse_set_cookie(header, url)
            except CookieError:
                continue
            built = Cookie(**vars(parsed))
            assert type(parsed) is Cookie
            assert list(vars(parsed).items()) == list(vars(built).items())
            assert parsed == built and hash(parsed) == hash(built)
            assert repr(parsed) == repr(built)
            with pytest.raises(AttributeError):
                parsed.value = "changed"


# ---------------------------------------------------------------------------
# URL-parse memo: memoised parse against the un-memoised path.
# ---------------------------------------------------------------------------

@st.composite
def _raw_url(draw):
    scheme = draw(st.sampled_from(("https", "http", "HTTPS", "ftp", "")))
    separator = draw(st.sampled_from(("://", "://", ":/", "")))
    host = draw(st.sampled_from((
        "site.de", "WWW.Site.de", "cdn.tracker.net", "", "bad_host.de",
        ".lead.de", "trail-", "user@site.de",
    )))
    port = draw(st.sampled_from(("", ":443", ":8080", ":0", ":99999", ":x")))
    segments = draw(st.lists(
        st.sampled_from(("a", "..", ".", "", "b.js", "c")), max_size=4
    ))
    path = "/" + "/".join(segments) if segments or draw(st.booleans()) else ""
    query = draw(st.sampled_from(("", "?id=1", "?a=1&b=2", "?")))
    fragment = draw(st.sampled_from(("", "#top", "#")))
    pad = draw(st.sampled_from(("", " ", "\t")))
    return f"{pad}{scheme}{separator}{host}{port}{path}{query}{fragment}{pad}"


class TestURLParseMemoDifferential:
    @given(raws=st.lists(_raw_url(), min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_memoised_parse_matches_unmemoised(self, raws):
        for raw in raws:
            expected = _outcome(url_module._parse.__wrapped__, raw)
            assert _outcome(parse, raw) == expected
            assert _outcome(parse, raw) == expected

    def test_non_string_still_raises_url_error(self):
        for bad in (123, None, b"https://site.de/"):
            with pytest.raises(URLError, match="URL must be a string"):
                parse(bad)

    def test_malformed_url_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(URLError, match="lacks a scheme"):
                parse("site.de/path")

    def test_equal_results_are_shared_frozen_instances(self):
        first = parse("https://site.de/a")
        assert parse("https://site.de/a") is first
        with pytest.raises(AttributeError):
            first.path = "/b"


# ---------------------------------------------------------------------------
# Pierced tree walk: descendants() against a recursive reference walk.
# ---------------------------------------------------------------------------

@st.composite
def _pierced_element(draw, depth=0):
    el = Element(draw(st.sampled_from(("div", "iframe", "section", "span"))))
    if depth < 3:
        for child in draw(st.lists(_pierced_element(depth=depth + 1), max_size=2)):
            el.append_child(child)
        if draw(st.booleans()):
            el.append_child(Text("t"))
        if draw(st.integers(0, 3)) == 0:
            shadow = el.attach_shadow(
                mode=draw(st.sampled_from(("open", "closed")))
            )
            for child in draw(
                st.lists(_pierced_element(depth=depth + 1), max_size=2)
            ):
                shadow.append_child(child)
        if draw(st.integers(0, 3)) == 0:
            inner = Document("https://frame.example/")
            for child in draw(
                st.lists(_pierced_element(depth=depth + 1), max_size=2)
            ):
                inner.append_child(child)
            el.content_document = inner
    return el


@st.composite
def _pierced_document(draw):
    doc = Document("https://test.example/")
    for el in draw(st.lists(_pierced_element(), min_size=1, max_size=3)):
        doc.append_child(el)
    return doc


def _reference_descendants(node, shadow, frames):
    """Document order, recursively: children, then shadow tree, then frame."""
    out = []

    def visit(current):
        for child in current.children:
            out.append(child)
            visit(child)
        if isinstance(current, Element):
            roots = []
            if shadow and current.attached_shadow_root is not None:
                roots.append(current.attached_shadow_root)
            if frames and current.content_document is not None:
                roots.append(current.content_document)
            for root in roots:
                out.append(root)
                visit(root)

    visit(node)
    return out


class TestPiercedWalk:
    @given(doc=_pierced_document())
    @settings(max_examples=200, deadline=None)
    def test_descendants_match_recursive_walk(self, doc):
        roots = [doc] + list(doc.elements(include_shadow=True, include_frames=True))
        for shadow in (False, True):
            for frames in (False, True):
                for root in roots[:8]:
                    walked = list(root.descendants(
                        include_shadow=shadow, include_frames=frames
                    ))
                    expected = _reference_descendants(root, shadow, frames)
                    assert [id(n) for n in walked] == [id(n) for n in expected]


# ---------------------------------------------------------------------------
# Cached element lists: Document.element_lists() against fresh walks.
# ---------------------------------------------------------------------------

def _fresh_lists(doc):
    return list(doc.elements()), list(doc.elements(include_shadow=True))


def _all_documents(doc):
    return [doc] + [
        node for node in doc.descendants(include_shadow=True, include_frames=True)
        if isinstance(node, Document)
    ]


_LIST_MUTATORS = (
    "append_child", "insert_before", "detach", "set_attribute",
    "attach_shadow", "content_document", "on_click",
)


def _mutate(element, how):
    if how == "append_child":
        element.append_child(Element("div"))
    elif how == "insert_before":
        element.insert_before(
            Element("span"), element.children[0] if element.children else None
        )
    elif how == "detach":
        element.detach()
    elif how == "set_attribute":
        element.set_attribute("data-x", "v")
    elif how == "attach_shadow":
        if element.attached_shadow_root is None:
            element.attach_shadow(mode="closed").append_child(Element("b"))
        else:
            element.attached_shadow_root.append_child(Element("b"))
    elif how == "content_document":
        element.content_document = (
            None if element.content_document is not None else Document()
        )
    else:
        element.on_click = lambda el: None


class TestElementLists:
    @given(doc=_pierced_document())
    @settings(max_examples=200, deadline=None)
    def test_lists_match_fresh_walks(self, doc):
        for document in _all_documents(doc):
            light, pierced = document.element_lists()
            assert (light, pierced) == _fresh_lists(document)
            # A second read serves the same cached lists.
            again = document.element_lists()
            assert again[0] is light and again[1] is pierced

    @given(
        doc=_pierced_document(),
        how=st.sampled_from(_LIST_MUTATORS),
        pick=st.integers(0, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_lists_rebuilt_after_every_mutator(self, doc, how, pick):
        for document in _all_documents(doc):
            document.element_lists()
        elements = list(doc.elements(include_shadow=True, include_frames=True))
        target = elements[pick % len(elements)]
        owner = target.root_node()
        cached = owner.element_lists()
        revision = owner.revision
        _mutate(target, how)
        assert owner.revision > revision
        light, pierced = owner.element_lists()
        assert light is not cached[0]
        for document in _all_documents(doc):
            assert document.element_lists() == _fresh_lists(document)

    @given(doc=_pierced_document())
    @settings(max_examples=100, deadline=None)
    def test_clone_does_not_inherit_lists(self, doc):
        originals = set()
        for document in _all_documents(doc):
            light, pierced = document.element_lists()
            originals.update(map(id, pierced))
        clone = doc.clone(deep=True)
        for document in _all_documents(clone):
            assert document._walk is None
            light, pierced = document.element_lists()
            assert (light, pierced) == _fresh_lists(document)
            assert not originals & set(map(id, pierced))


# ---------------------------------------------------------------------------
# BannerClick tag scans: served from a fresh index only, never built.
# ---------------------------------------------------------------------------

_SCAN_TAGS = frozenset({"div", "section"})


def _walk_by_tags(root, tags):
    return [el for el in root.elements() if el.tag in tags]


class TestTagScanIndex:
    def test_detect_leaves_cloned_page_unindexed(self):
        net = Network()
        net.register("site.de", StaticServer(
            '<div class="cookie-banner" role="dialog">'
            "<p>Wir verwenden Cookies für Inhalte und Anzeigen.</p>"
            "<button>Alle akzeptieren</button><button>Ablehnen</button></div>"
            '<iframe srcdoc="&lt;div&gt;inner&lt;/div&gt;"></iframe>'
        ))
        browser = Browser(net, VANTAGE_POINTS["DE"])
        browser.visit("site.de")
        page = browser.visit("site.de")  # served the shared cached parse
        assert BannerClick().detect(page).found
        assert [doc._query_index for doc in page.all_documents()] == [
            None, None
        ]

    @given(doc=_document(), tags=st.sets(st.sampled_from(_TAGS), min_size=1))
    @settings(max_examples=150, deadline=None)
    def test_scan_without_index_walks(self, doc, tags):
        assert iter_elements_by_tags(doc, tags) == _walk_by_tags(doc, tags)
        assert doc._query_index is None

    @given(doc=_document(), tags=st.sets(st.sampled_from(_TAGS), min_size=1))
    @settings(max_examples=150, deadline=None)
    def test_scan_with_fresh_index_matches_walk(self, doc, tags):
        query_selector_all(doc, "div")
        assert doc._query_index.revision == doc.revision
        assert iter_elements_by_tags(doc, tags) == _walk_by_tags(doc, tags)

    @given(
        doc=_document(),
        tags=st.sets(st.sampled_from(_TAGS), min_size=1),
        pick=st.integers(0, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_stale_index_is_never_used(self, doc, tags, pick):
        query_selector_all(doc, "div")
        stale = doc._query_index
        elements = list(doc.elements())
        # The new element has a scanned tag, so a stale read misses it.
        elements[pick % len(elements)].append_child(Element(sorted(tags)[0]))
        assert iter_elements_by_tags(doc, tags) == _walk_by_tags(doc, tags)
        assert doc._query_index is stale
