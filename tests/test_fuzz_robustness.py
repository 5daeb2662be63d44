"""Fuzz-style robustness: parsers must never crash on arbitrary input.

A measurement crawler survives the wild web only if its parsers fail
closed: malformed HTML, headers, filters, and consent strings must
produce errors or degraded output — never exceptions other than the
library's own.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consent.tcf import decode_tc_string
from repro.distributed.wire import FRAMES, check_reply, decode_message
from repro.errors import ParseError, ReproError, WireProtocolError
from repro.httpkit import parse_cookie_header
from repro.pricing import extract_price
from repro.soup import parse_document
from repro.soup.tokenizer import decode_entities, tokenize

_printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    max_size=200,
)
_html_ish = st.text(
    alphabet=st.sampled_from(list("<>=/\"' abcdefgWERT0123456789&;#!-")),
    max_size=150,
)


class TestParserRobustness:
    @given(text=_html_ish)
    @settings(max_examples=150, deadline=None)
    def test_tokenizer_never_crashes(self, text):
        assert isinstance(list(tokenize(text)), list)

    @given(text=_html_ish)
    @settings(max_examples=150, deadline=None)
    def test_parser_always_builds_a_document(self, text):
        doc = parse_document(text)
        assert doc.body is not None  # browsers always synthesise one

    @given(text=_printable)
    @settings(max_examples=100, deadline=None)
    def test_entity_decoder_total(self, text):
        assert isinstance(decode_entities(text), str)

    @given(text=_printable)
    @settings(max_examples=100, deadline=None)
    def test_price_extractor_total(self, text):
        result = extract_price(text)
        assert result is None or result.monthly_eur_cents >= 0

    @given(text=_printable)
    @settings(max_examples=100, deadline=None)
    def test_cookie_header_parser_total(self, text):
        assert isinstance(parse_cookie_header(text), dict)

    @given(token=_printable)
    @settings(max_examples=100, deadline=None)
    def test_tc_decoder_raises_only_parse_error(self, token):
        try:
            decode_tc_string(token)
        except ParseError:
            pass  # the only acceptable failure mode

    @given(line=_printable)
    @settings(max_examples=120, deadline=None)
    def test_filter_parser_raises_only_filter_errors(self, line):
        from repro.adblock.filters import parse_filter_line

        try:
            parse_filter_line(line)
        except ReproError:
            pass

    @given(raw=_printable)
    @settings(max_examples=120, deadline=None)
    def test_url_parser_raises_only_url_error(self, raw):
        from repro.errors import URLError
        from repro.urlkit import parse

        try:
            parse(raw)
        except URLError:
            pass

    @given(selector=st.text(
        alphabet=st.sampled_from(list("div.#[]()>:*= abc-_,'\"")), max_size=40,
    ))
    @settings(max_examples=120, deadline=None)
    def test_selector_parser_raises_only_selector_error(self, selector):
        from repro.dom.selector import parse_selector
        from repro.errors import SelectorError

        try:
            parse_selector(selector)
        except SelectorError:
            pass

    @given(expr=st.text(
        alphabet=st.sampled_from(list("/@[]()'= abcdeftx*")), max_size=40,
    ))
    @settings(max_examples=120, deadline=None)
    def test_xpath_parser_raises_only_selector_error(self, expr):
        from repro.dom.xpath import parse_xpath
        from repro.errors import SelectorError

        try:
            parse_xpath(expr)
        except SelectorError:
            pass


class TestDetectorRobustness:
    @given(text=_html_ish)
    @settings(max_examples=60, deadline=None)
    def test_detector_handles_arbitrary_pages(self, text):
        from repro.bannerclick import BannerClick
        from repro.browser import Browser
        from repro.netsim import Network
        from repro.vantage import VANTAGE_POINTS
        from tests.servers import StaticServer

        net = Network()
        net.register("fuzz.de", StaticServer(text))
        browser = Browser(net, VANTAGE_POINTS["DE"])
        page = browser.visit("fuzz.de")
        detection = BannerClick().detect(page)
        assert detection.found in (True, False)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=24,
)
_field_names = sorted({
    name for check in FRAMES.values() for name in check.shape
} | {"blob", "kind", "index"})
#: Arbitrary bytes, nesting deeper than the parser's stack, and frames
#: that look like messages (a known or arbitrary ``type``, real field
#: names, arbitrary JSON values).
_frame_lines = st.one_of(
    st.binary(max_size=200),
    st.integers(min_value=1, max_value=200_000).map(lambda n: b"[" * n),
    st.integers(min_value=1, max_value=50_000).map(lambda n: b'{"a": ' * n),
    st.builds(
        lambda tag, body: json.dumps({**body, "type": tag}).encode(),
        st.sampled_from(sorted(FRAMES)) | _json_values,
        st.dictionaries(st.sampled_from(_field_names), _json_values,
                        max_size=7),
    ),
).map(lambda line: line + b"\n")
_BUNDLE = {
    "shard": 0, "tasks": [[0, "DE", "a.example", "detect", 1]],
    "id_bases": [[0, 1]], "breakers": {},
}


class TestWireRobustness:
    @given(line=_frame_lines)
    @example(line=b"[" * 100_000 + b"\n")
    @settings(max_examples=300, deadline=None)
    def test_frame_decoder_total(self, line):
        """A frame line from any peer decodes to a frame of a known type
        or raises WireProtocolError — and so does the coordinator's next
        step on a decoded result."""
        try:
            frame = decode_message(line)
            assert frame["type"] in FRAMES
            if frame["type"] == "result":
                check_reply(frame, _BUNDLE)
        except WireProtocolError:
            pass
