"""Unit and property tests for repro.urlkit."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import URLError
from repro.urlkit import (
    URL,
    is_subdomain_of,
    parse,
    public_suffix,
    registrable_domain,
)


def is_same_site(a, b):
    """True when both URLs/hosts share a registrable domain."""
    host_a = a.host if isinstance(a, URL) else str(a)
    host_b = b.host if isinstance(b, URL) else str(b)
    site_a = registrable_domain(host_a)
    site_b = registrable_domain(host_b)
    if site_a is None or site_b is None:
        return host_a.lower() == host_b.lower()
    return site_a == site_b


class TestParse:
    def test_basic_https(self):
        u = parse("https://www.spiegel.de/politik/article.html")
        assert u.scheme == "https"
        assert u.host == "www.spiegel.de"
        assert u.path == "/politik/article.html"
        assert u.port is None

    def test_http_default_port(self):
        """The scheme's default port is left out of the origin."""
        assert parse("http://example.de:80/").origin == "http://example.de"
        assert parse("https://example.de:80/").origin == "https://example.de:80"

    def test_explicit_port(self):
        u = parse("https://example.de:8443/x")
        assert u.port == 8443
        assert u.origin == "https://example.de:8443"

    def test_default_port_origin_omits_port(self):
        assert parse("https://example.de:443/").origin == "https://example.de"

    def test_query_and_fragment(self):
        u = parse("https://a.de/p?x=1&y=2#frag")
        assert u.query == "x=1&y=2"
        assert u.fragment == "frag"
        assert u.query_params == {"x": "1", "y": "2"}

    def test_host_is_lowercased(self):
        assert parse("https://EXAMPLE.DE/").host == "example.de"

    def test_missing_path_becomes_slash(self):
        assert parse("https://example.de").path == "/"

    def test_path_normalization(self):
        assert parse("https://a.de/x/../y/./z").path == "/y/z"

    def test_trailing_slash_preserved(self):
        assert parse("https://a.de/dir/").path == "/dir/"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "not a url",
            "ftp://example.de/",
            "https:///nohost",
            "https://exa mple.de/",
            "https://user@example.de/",
            "https://example.de:notaport/",
            "https://example.de:0/",
            "https://example.de:70000/",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(URLError):
            parse(bad)

    def test_str_round_trip(self):
        raw = "https://sub.example.de/a/b?x=1#f"
        assert str(parse(raw)) == raw


class TestJoin:
    BASE = parse("https://www.example.de/dir/page.html?q=1#frag")

    def test_absolute_reference(self):
        assert str(self.BASE.join("https://other.net/x")) == "https://other.net/x"

    def test_scheme_relative(self):
        joined = self.BASE.join("//cdn.example.net/lib.js")
        assert joined.scheme == "https"
        assert joined.host == "cdn.example.net"

    def test_root_relative(self):
        assert self.BASE.join("/top").path == "/top"

    def test_document_relative(self):
        assert self.BASE.join("other.html").path == "/dir/other.html"

    def test_dotdot(self):
        assert self.BASE.join("../up.html").path == "/up.html"

    def test_fragment_only(self):
        joined = self.BASE.join("#x")
        assert joined.fragment == "x"
        assert joined.path == self.BASE.path

    def test_query_only(self):
        joined = self.BASE.join("?a=b")
        assert joined.query == "a=b"
        assert joined.path == self.BASE.path

    def test_empty_reference_returns_self(self):
        assert self.BASE.join("") == self.BASE


class TestPSL:
    @pytest.mark.parametrize(
        "host,expected",
        [
            ("www.spiegel.de", "spiegel.de"),
            ("spiegel.de", "spiegel.de"),
            ("a.b.c.example.com", "example.com"),
            ("news.example.co.uk", "example.co.uk"),
            ("shop.example.com.au", "example.com.au"),
            ("x.example.net", "example.net"),
        ],
    )
    def test_registrable_domain(self, host, expected):
        assert registrable_domain(host) == expected

    @pytest.mark.parametrize("host", ["de", "co.uk", "com", "", "10.0.0.1"])
    def test_registrable_domain_none(self, host):
        assert registrable_domain(host) is None

    def test_public_suffix_longest_match(self):
        assert public_suffix("x.example.co.uk") == "co.uk"
        assert public_suffix("x.example.uk") == "uk"

    def test_unknown_tld(self):
        assert public_suffix("example.zz") is None
        assert registrable_domain("example.zz") is None

    def test_case_and_trailing_dot(self):
        assert registrable_domain("WWW.Spiegel.DE.") == "spiegel.de"


class TestSiteRelations:
    def test_same_site_across_subdomains(self):
        assert is_same_site("a.example.de", "b.example.de")

    def test_different_sites(self):
        assert not is_same_site("a.example.de", "example.net")

    def test_same_site_with_urls(self):
        assert is_same_site(parse("https://a.x.de/"), parse("https://b.x.de/"))

    def test_subdomain_of(self):
        assert is_subdomain_of("a.b.example.de", "example.de")
        assert is_subdomain_of("example.de", "example.de")
        assert not is_subdomain_of("example.de", "example.de", strict=True)
        assert not is_subdomain_of("badexample.de", "example.de")


_LABEL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8
)


class TestProperties:
    @given(sub=_LABEL, domain=_LABEL)
    def test_registrable_domain_is_suffix_of_host(self, sub, domain):
        host = f"{sub}.{domain}.de"
        reg = registrable_domain(host)
        assert reg == f"{domain}.de"
        assert host.endswith(reg)

    @given(host=_LABEL, path_segments=st.lists(_LABEL, max_size=4))
    def test_parse_str_round_trip(self, host, path_segments):
        path = "/" + "/".join(path_segments)
        raw = f"https://{host}.de{path}"
        parsed = parse(raw)
        assert parse(str(parsed)) == parsed

    @given(a=_LABEL, b=_LABEL)
    def test_same_site_is_symmetric(self, a, b):
        host_a, host_b = f"{a}.example.de", f"{b}.other.net"
        assert is_same_site(host_a, host_b) == is_same_site(host_b, host_a)
