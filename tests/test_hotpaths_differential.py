"""Differential tests for the indexed hot paths.

Every fast path added by the indexing pass must be *invisible* in the
output: the indexed filter engine answers exactly like the naive
linear-scan oracle, indexed selector queries return exactly what a
full-tree walk returns, and a crawl with every hot path disabled
produces byte-identical records to the default configuration.

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
from repro.browser import Browser
from repro.dom import Document, Element, Text
from repro.dom.selector import query_selector, query_selector_all
from repro.httpkit import Cookie, CookieJar, NaiveCookieJar, Request
from repro.measure.crawl import Crawler
from repro.netsim import Network, StaticServer
from repro.urlkit import parse
from repro.vantage import VANTAGE_POINTS
from repro.webgen import build_world

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
        naive.add_lists(lists)
        indexed.add_lists(lists)
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
        naive.add_lists(lists)
        indexed.add_lists(lists)
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
# Page frame-walk cache
# ---------------------------------------------------------------------------

class TestFrameWalkCache:
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

    def test_cached_walk_equals_fresh_walk(self):
        page = self._page()
        with perf.disabled("frame_cache"):
            fresh_iframes = page.iframes()
            fresh_docs = list(page.all_documents())
        assert page.iframes() == fresh_iframes
        assert list(page.all_documents()) == fresh_docs
        # Second call serves from the cache and must be identical.
        assert page.iframes() == fresh_iframes
        assert list(page.all_documents()) == fresh_docs

    def test_cache_invalidates_on_mutation(self):
        page = self._page()
        before = page.iframes()
        assert before
        before[0].detach()
        with perf.disabled("frame_cache"):
            fresh = page.iframes()
            fresh_docs = list(page.all_documents())
        assert page.iframes() == fresh
        assert list(page.all_documents()) == fresh_docs
        assert len(fresh) == len(before) - 1


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
