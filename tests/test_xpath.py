"""Tests for the XPath subset engine."""

import pytest

from repro.dom.xpath import parse_xpath, xpath_all
from repro.errors import SelectorError
from repro.soup import parse_document

HTML = """
<html><body>
  <div class="cookie-banner" id="cmp">
    <p>We value your privacy</p>
    <button id="a1" class="accept-btn">Alle akzeptieren</button>
    <button id="r1">Ablehnen</button>
    <div><button id="nested">Einstellungen</button></div>
  </div>
  <footer><a href="/impressum">Impressum</a></footer>
</body></html>
"""


@pytest.fixture(scope="module")
def doc():
    return parse_document(HTML)


class TestAxes:
    def test_descendant_any_depth(self, doc):
        assert len(xpath_all(doc, "//button")) == 3

    def test_wildcard(self, doc):
        assert len(xpath_all(doc, "//div")) == 2

    def test_absolute_child_path(self, doc):
        els = xpath_all(doc, "/html/body/footer/a")
        assert len(els) == 1
        assert els[0].get_attribute("href") == "/impressum"

    def test_mixed_path(self, doc):
        # //div matches both divs; each contributes its direct button children.
        assert len(xpath_all(doc, "//div/button")) == 3
        assert len(xpath_all(doc, "//div[@id='cmp']/button")) == 2

    def test_descendant_within_step(self, doc):
        assert len(xpath_all(doc, "//div//button")) == 3


class TestPredicates:
    def test_attr_equality(self, doc):
        els = xpath_all(doc, "//button[@id='a1']")
        assert len(els) == 1

    def test_attr_contains(self, doc):
        els = xpath_all(doc, "//div[contains(@class, 'cookie')]")
        assert len(els) == 1
        assert els[0].id == "cmp"

    def test_text_contains(self, doc):
        els = xpath_all(doc, "//button[contains(text(), 'akzeptieren')]")
        assert [e.id for e in els] == ["a1"]

    def test_text_equality(self, doc):
        els = xpath_all(doc, "//button[text()='Ablehnen']")
        assert [e.id for e in els] == ["r1"]

    def test_conjunction(self, doc):
        els = xpath_all(
            doc, "//button[@id='a1'][contains(text(), 'akzeptieren')]"
        )
        assert len(els) == 1
        assert xpath_all(doc, "//button[@id='r1'][contains(text(), 'akzeptieren')]") == []

    def test_no_match(self, doc):
        assert xpath_all(doc, "//section") == []


class TestBoundaries:
    def test_xpath_does_not_pierce_shadow(self):
        doc = parse_document(
            '<div><template shadowrootmode="open"><button>x</button></template></div>'
        )
        assert xpath_all(doc, "//button") == []

    def test_xpath_does_not_pierce_iframe(self):
        doc = parse_document(
            '<iframe srcdoc="&lt;button&gt;x&lt;/button&gt;"></iframe>'
        )
        assert xpath_all(doc, "//button") == []


class TestParsing:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "button",           # relative paths unsupported
            "//",
            "//button[@]",
            "//button[contains(text)]",
            "//button[1]",      # positional predicates unsupported
        ],
    )
    def test_rejects_bad_xpath(self, bad):
        with pytest.raises(SelectorError):
            parse_xpath(bad)

    def test_parse_structure(self):
        steps = parse_xpath("//div[contains(@class,'x')]/button")
        assert len(steps) == 2
        assert steps[0].axis == "descendant"
        assert steps[1].axis == "child"
        assert steps[1].tag == "button"
