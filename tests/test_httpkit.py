"""Tests for headers, cookies (RFC 6265 subset), and HTTP messages."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CookieError
from repro.httpkit import (
    Cookie,
    CookieJar,
    Headers,
    NaiveCookieJar,
    Request,
    Response,
    domain_match,
    parse_set_cookie,
)
from repro.httpkit.cookies import path_match
from repro.urlkit import parse

PAGE = parse("https://www.news.de/article")


class TestHeaders:
    def test_case_insensitive_get(self):
        h = Headers()
        h.add("Content-Type", "text/html")
        assert h.get("content-type") == "text/html"
        assert "CONTENT-TYPE" in h

    def test_multi_value(self):
        h = Headers()
        h.add("Set-Cookie", "a=1")
        h.add("set-cookie", "b=2")
        assert h.get_all("Set-Cookie") == ["a=1", "b=2"]
        assert h.get("set-cookie") == "a=1"

    def test_set_replaces(self):
        h = Headers([("X", "1"), ("x", "2")])
        h.set("X", "3")
        assert h.get_all("x") == ["3"]

    def test_remove_and_len(self):
        h = Headers({"a": "1", "b": "2"})
        h.remove("a")
        assert len(h) == 1

    def test_copy_is_independent(self):
        h = Headers({"a": "1"})
        c = h.copy()
        c.add("b", "2")
        assert "b" not in h

    def test_to_dict_first_wins(self):
        h = Headers([("A", "1"), ("a", "2")])
        assert h.to_dict() == {"a": "1"}


class TestDomainMatch:
    def test_exact(self):
        assert domain_match("news.de", "news.de")

    def test_subdomain(self):
        assert domain_match("www.news.de", "news.de")

    def test_not_suffix_trick(self):
        assert not domain_match("evilnews.de", "news.de")

    def test_no_reverse_match(self):
        assert not domain_match("news.de", "www.news.de")

    def test_path_match(self):
        assert path_match("/a/b", "/a")
        assert path_match("/a/b", "/a/")
        assert path_match("/a", "/a")
        assert not path_match("/ab", "/a")
        assert not path_match("/", "/a")


class TestParseSetCookie:
    def test_simple(self):
        c = parse_set_cookie("sid=abc123", PAGE)
        assert c.name == "sid"
        assert c.value == "abc123"
        assert c.domain == "www.news.de"
        assert c.host_only

    def test_domain_attribute(self):
        c = parse_set_cookie("sid=x; Domain=news.de; Path=/a", PAGE)
        assert c.domain == "news.de"
        assert not c.host_only
        assert c.path == "/a"

    def test_leading_dot_domain(self):
        c = parse_set_cookie("sid=x; Domain=.news.de", PAGE)
        assert c.domain == "news.de"

    def test_flags(self):
        c = parse_set_cookie("sid=x; Secure; HttpOnly; SameSite=None", PAGE)
        assert c.secure and c.http_only and c.same_site == "none"

    def test_max_age(self):
        c = parse_set_cookie("sid=x; Max-Age=3600", PAGE)
        assert c.max_age == 3600

    def test_rejects_foreign_domain(self):
        with pytest.raises(CookieError):
            parse_set_cookie("sid=x; Domain=other.de", PAGE)

    def test_rejects_public_suffix(self):
        with pytest.raises(CookieError):
            parse_set_cookie("sid=x; Domain=de", PAGE)

    def test_rejects_nameless(self):
        with pytest.raises(CookieError):
            parse_set_cookie("=value", PAGE)
        with pytest.raises(CookieError):
            parse_set_cookie("novalue", PAGE)

    def test_rejects_bad_max_age(self):
        with pytest.raises(CookieError):
            parse_set_cookie("sid=x; Max-Age=soon", PAGE)

    def test_quoted_value(self):
        assert parse_set_cookie('sid="abc"', PAGE).value == "abc"


class TestCookieJar:
    def make_jar(self):
        jar = CookieJar()
        jar.set_from_header("fp=1; Domain=news.de", PAGE)
        tracker = parse("https://ads.trackmax.com/pixel")
        jar.set_from_header("uid=42; Domain=trackmax.com", tracker)
        return jar

    def test_set_and_len(self):
        assert len(self.make_jar()) == 2

    def test_replacement_same_key(self):
        jar = CookieJar()
        jar.set_from_header("a=1; Domain=news.de", PAGE)
        jar.set_from_header("a=2; Domain=news.de", PAGE)
        assert len(jar) == 1
        assert jar.get("a", "news.de").value == "2"

    def test_rejected_cookie_returns_none(self):
        jar = CookieJar()
        assert jar.set_from_header("a=1; Domain=evil.com", PAGE) is None
        assert len(jar) == 0

    def test_expired_deletes(self):
        jar = CookieJar()
        jar.set_from_header("a=1; Domain=news.de", PAGE)
        jar.set_from_header("a=gone; Domain=news.de; Max-Age=0", PAGE)
        assert len(jar) == 0

    def test_cookies_for_matching(self):
        jar = self.make_jar()
        got = jar.cookies_for(parse("https://sub.news.de/x"))
        assert [c.name for c in got] == ["fp"]

    def test_host_only_restriction(self):
        jar = CookieJar()
        jar.set_from_header("h=1", PAGE)  # host-only on www.news.de
        assert jar.cookies_for(parse("https://news.de/")) == []
        assert len(jar.cookies_for(PAGE)) == 1

    def test_secure_requires_https(self):
        jar = CookieJar()
        jar.set_from_header("s=1; Secure", PAGE)
        assert jar.cookies_for(parse("http://www.news.de/")) == []

    def test_path_restriction(self):
        jar = CookieJar()
        jar.set_from_header("p=1; Path=/admin", PAGE)
        assert jar.cookies_for(parse("https://www.news.de/other")) == []
        assert len(jar.cookies_for(parse("https://www.news.de/admin/x"))) == 1

    def test_samesite_strict_cross_site(self):
        jar = CookieJar()
        jar.set_from_header("ss=1; SameSite=Strict", PAGE)
        tracker_url = parse("https://www.news.de/embed")
        got = jar.cookies_for(tracker_url, first_party_site="other.de")
        assert got == []

    def test_partition_by_party(self):
        jar = self.make_jar()
        cookies = jar.all_cookies()
        assert [c.name for c in cookies if c.site == "news.de"] == ["fp"]
        assert [c.name for c in cookies if c.site != "news.de"] == ["uid"]

    def test_clear_site_only(self):
        jar = self.make_jar()
        removed = jar.clear(site="news.de")
        assert removed == 1
        assert len(jar) == 1

    def test_clear_all(self):
        jar = self.make_jar()
        assert jar.clear() == 2
        assert len(jar) == 0

    def test_snapshot_independent(self):
        jar = self.make_jar()
        snap = jar.snapshot()
        jar.clear()
        assert len(snap) == 2

    def test_has(self):
        jar = self.make_jar()
        assert jar.has("fp", "news.de")
        assert not jar.has("fp", "other.de")


class TestIndexedCookieJar:
    """The registrable-domain bucket index behind ``cookies_for``.

    The randomized half of this evidence lives in
    ``tests/test_hotpaths_differential.py`` (indexed vs
    :class:`NaiveCookieJar` under generated cookie workloads); these
    are the deliberate edge cases.
    """

    def test_unbucketable_domains_still_match(self):
        # A cookie on a host with no registrable domain (bare public
        # suffix, localhost) cannot be site-bucketed but must still be
        # carried — the catch-all bucket is always scanned.
        jar = CookieJar()
        jar.set_cookie(Cookie(name="lh", value="1", domain="localhost"))
        jar.set_cookie(Cookie(
            name="ps", value="1", domain="co.uk", host_only=False
        ))
        got = jar.cookies_for(parse("http://localhost/"))
        assert [c.name for c in got] == ["lh"]
        got = jar.cookies_for(parse("http://deep.under.co.uk/"))
        assert [c.name for c in got] == ["ps"]

    def test_order_spans_buckets_in_insertion_order(self):
        jar, naive = CookieJar(), NaiveCookieJar()
        for j in (jar, naive):
            j.set_cookie(Cookie(
                name="a", value="1", domain="news.de", host_only=False
            ))
            j.set_cookie(Cookie(name="b", value="1", domain="localhost"))
            j.set_cookie(Cookie(
                name="c", value="1", domain="sub.news.de", host_only=False
            ))
        # A host matching both the site bucket and nothing unbucketed
        # keeps the global insertion order a linear scan would give.
        url = parse("https://x.sub.news.de/")
        assert [c.name for c in jar.cookies_for(url)] == ["a", "c"]
        assert [c.name for c in naive.cookies_for(url)] == ["a", "c"]

    def test_replacement_keeps_original_position(self):
        jar = CookieJar()
        naive = NaiveCookieJar()
        for j in (jar, naive):
            j.set_cookie(Cookie(
                name="first", value="1", domain="news.de", host_only=False
            ))
            j.set_cookie(Cookie(
                name="second", value="1", domain="news.de", host_only=False
            ))
            j.set_cookie(Cookie(       # replaces "first", keeps its slot
                name="first", value="2", domain="news.de", host_only=False
            ))
        url = parse("https://news.de/")
        assert [c.name for c in jar.cookies_for(url)] == [
            c.name for c in naive.cookies_for(url)
        ] == ["first", "second"]
        assert jar.cookies_for(url)[0].value == "2"

    def test_clear_site_prunes_index(self):
        jar = CookieJar()
        jar.set_cookie(Cookie(
            name="a", value="1", domain="news.de", host_only=False
        ))
        jar.set_cookie(Cookie(
            name="b", value="1", domain="trackmax.com", host_only=False
        ))
        assert jar.clear(site="news.de") == 1
        assert jar.cookies_for(parse("https://news.de/")) == []
        assert [
            c.name for c in jar.cookies_for(parse("https://trackmax.com/"))
        ] == ["b"]

    def test_snapshot_copies_index(self):
        jar = CookieJar()
        jar.set_cookie(Cookie(
            name="a", value="1", domain="news.de", host_only=False
        ))
        snap = jar.snapshot()
        jar.clear()
        url = parse("https://news.de/")
        assert [c.name for c in snap.cookies_for(url)] == ["a"]
        assert jar.cookies_for(url) == []

    def test_naive_jar_is_a_cookiejar(self):
        # The oracle shares storage/mutation with the indexed jar; only
        # the query strategy differs.
        naive = NaiveCookieJar()
        naive.set_from_header("fp=1; Domain=news.de", PAGE)
        assert len(naive.cookies_for(parse("https://sub.news.de/"))) == 1
        assert isinstance(naive.snapshot(), NaiveCookieJar)


class TestMessages:
    def test_request_coerces_strings(self):
        r = Request(url="https://a.de/x", initiator="https://b.de/")
        assert r.url.host == "a.de"
        assert r.is_third_party

    def test_first_party_request(self):
        r = Request(url="https://cdn.a.de/x", initiator="https://www.a.de/")
        assert not r.is_third_party

    def test_no_initiator_is_first_party(self):
        assert not Request(url="https://a.de/").is_third_party

    def test_bad_resource_type(self):
        with pytest.raises(ValueError):
            Request(url="https://a.de/", resource_type="wasm")

    def test_response_cookies(self):
        req = Request(url="https://a.de/")
        resp = Response(request=req)
        resp.add_cookie("a=1")
        resp.add_cookie("b=2; Secure")
        assert resp.set_cookie_headers == ["a=1", "b=2; Secure"]
        assert resp.ok

    def test_response_content_type_default(self):
        resp = Response(request=Request(url="https://a.de/"))
        assert resp.content_type == "text/html"


class TestCookieProperties:
    @given(
        name=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
        value=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", max_size=12),
    )
    def test_simple_cookie_round_trip(self, name, value):
        c = parse_set_cookie(f"{name}={value}", PAGE)
        assert c.name == name
        assert c.value == value

    @given(sub=st.sampled_from(["www", "m", "shop", "news"]))
    def test_domain_cookie_matches_all_subdomains(self, sub):
        jar = CookieJar()
        jar.set_from_header("x=1; Domain=news.de", PAGE)
        assert len(jar.cookies_for(parse(f"https://{sub}.news.de/"))) == 1
