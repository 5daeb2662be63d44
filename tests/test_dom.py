"""Unit tests for repro.dom node/tree semantics, shadow DOM, iframes."""

import pytest

from repro.dom import Comment, Document, Element, Text, to_html
from repro.dom.selector import query_selector
from repro.errors import DOMError


def make_doc():
    doc = Document("https://example.de/")
    html = Element("html")
    body = Element("body")
    head = Element("head")
    doc.append_child(html)
    html.append_child(head)
    html.append_child(body)
    return doc, body


class TestTree:
    def test_append_sets_parent(self):
        parent = Element("div")
        child = Element("p")
        parent.append_child(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_moves_node(self):
        a, b, child = Element("div"), Element("div"), Element("p")
        a.append_child(child)
        b.append_child(child)
        assert child.parent is b
        assert a.children == []

    def test_cannot_append_ancestor(self):
        a, b = Element("div"), Element("p")
        a.append_child(b)
        with pytest.raises(DOMError):
            b.append_child(a)

    def test_cannot_append_self(self):
        a = Element("div")
        with pytest.raises(DOMError):
            a.append_child(a)

    def test_insert_before(self):
        parent = Element("div")
        first, second = Element("a"), Element("b")
        parent.append_child(second)
        parent.insert_before(first, second)
        assert [c.tag for c in parent.children] == ["a", "b"]

    def test_insert_before_bad_reference(self):
        parent, other = Element("div"), Element("div")
        reference = Element("p")
        other.append_child(reference)
        with pytest.raises(DOMError):
            parent.insert_before(Element("a"), reference)

    def test_detach(self):
        parent, child = Element("div"), Element("p")
        parent.append_child(child)
        child.detach()
        assert child.parent is None
        assert parent.children == []

    def test_descendants_document_order(self):
        doc, body = make_doc()
        div = Element("div")
        span = Element("span")
        body.append_child(div)
        div.append_child(span)
        tags = [n.tag for n in doc.descendants() if isinstance(n, Element)]
        assert tags == ["html", "head", "body", "div", "span"]

    def test_owner_document(self):
        doc, body = make_doc()
        el = Element("p")
        body.append_child(el)
        assert el.owner_document is doc


class TestElement:
    def test_attributes(self):
        el = Element("div", {"id": "x", "class": "a b"})
        assert el.id == "x"
        assert el.classes == ["a", "b"]
        el.set_attribute("Data-Foo", "1")
        assert el.get_attribute("data-foo") == "1"
        assert el.has_attribute("DATA-FOO")
        assert not el.has_attribute("data-bar")

    def test_style_parsing(self):
        el = Element("div", {"style": "display: NONE; color:red"})
        assert el.style == {"display": "none", "color": "red"}

    def test_visibility(self):
        doc, body = make_doc()
        outer = Element("div", {"style": "display:none"})
        inner = Element("p")
        body.append_child(outer)
        outer.append_child(inner)
        assert not inner.is_visible()
        outer.set_attribute("style", "display:block")
        assert inner.is_visible()

    def test_hidden_attribute(self):
        el = Element("div", {"hidden": ""})
        assert not el.is_visible()

    def test_text_content(self):
        el = Element("div")
        el.append_child(Text("  hello "))
        child = Element("b")
        child.append_child(Text("world"))
        el.append_child(child)
        assert el.text_content() == "hello world"


class TestShadowDOM:
    def test_attach_open_shadow(self):
        host = Element("div")
        root = host.attach_shadow(mode="open")
        assert host.shadow_root is root
        assert root.host is host

    def test_closed_shadow_hidden_from_script(self):
        host = Element("div")
        host.attach_shadow(mode="closed")
        assert host.shadow_root is None
        assert host.attached_shadow_root is not None

    def test_double_attach_fails(self):
        host = Element("div")
        host.attach_shadow(mode="open")
        with pytest.raises(DOMError):
            host.attach_shadow(mode="open")

    def test_invalid_mode(self):
        with pytest.raises(DOMError):
            Element("div").attach_shadow(mode="translucent")

    def test_descendants_skip_shadow_by_default(self):
        doc, body = make_doc()
        host = Element("div")
        body.append_child(host)
        shadow = host.attach_shadow(mode="open")
        hidden = Element("button")
        shadow.append_child(hidden)
        tags = [n.tag for n in doc.descendants() if isinstance(n, Element)]
        assert "button" not in tags
        tags_pierced = [
            n.tag
            for n in doc.descendants(include_shadow=True)
            if isinstance(n, Element)
        ]
        assert "button" in tags_pierced

    def test_text_content_pierce(self):
        host = Element("div")
        shadow = host.attach_shadow(mode="closed")
        shadow.append_child(Text("Pay 3.99 EUR"))
        assert host.text_content() == ""
        assert host.text_content(pierce=True) == "Pay 3.99 EUR"

    def test_shadow_root_owner_document(self):
        doc, body = make_doc()
        host = Element("div")
        body.append_child(host)
        shadow = host.attach_shadow(mode="open")
        el = Element("p")
        shadow.append_child(el)
        assert el.owner_document is doc


class TestIframes:
    def test_content_document_is_isolated(self):
        doc, body = make_doc()
        iframe = Element("iframe")
        body.append_child(iframe)
        inner = Document("https://cmp.example.net/banner")
        inner_body = Element("body")
        inner.append_child(inner_body)
        inner_body.append_child(Text("Subscribe for 2.99 EUR"))
        iframe.content_document = inner
        assert doc.text_content() == ""
        assert "Subscribe" in doc.text_content(pierce=True)

    def test_descendants_include_frames(self):
        doc, body = make_doc()
        iframe = Element("iframe")
        body.append_child(iframe)
        inner = Document()
        inner.append_child(Element("p"))
        iframe.content_document = inner
        tags = [
            n.tag
            for n in doc.descendants(include_frames=True)
            if isinstance(n, Element)
        ]
        assert "p" in tags


class TestClone:
    def test_deep_clone_independent(self):
        el = Element("div", {"id": "x"})
        el.append_child(Text("hi"))
        copy = el.clone()
        copy.set_attribute("id", "y")
        assert el.id == "x"
        assert isinstance(copy.children[0], Text)
        assert copy.children[0] is not el.children[0]

    def test_clone_preserves_shadow(self):
        el = Element("div")
        shadow = el.attach_shadow(mode="closed")
        shadow.append_child(Text("secret"))
        copy = el.clone()
        assert copy.attached_shadow_root is not None
        assert copy.attached_shadow_root.mode == "closed"
        assert copy.text_content(pierce=True) == "secret"

    def test_clone_preserves_iframe_document(self):
        el = Element("iframe")
        inner = Document()
        inner.append_child(Element("p"))
        el.content_document = inner
        copy = el.clone()
        assert copy.content_document is not None
        assert copy.content_document is not inner

    def test_shallow_clone(self):
        el = Element("div")
        el.append_child(Element("p"))
        copy = el.clone(deep=False)
        assert copy.children == []


class TestDocument:
    def test_sections(self):
        doc, body = make_doc()
        assert doc.body is body
        assert doc.head is not None
        assert doc.document_element.tag == "html"

    def test_title(self):
        doc, _ = make_doc()
        title = Element("title")
        title.append_child(Text("News site"))
        doc.head.append_child(title)
        assert doc.title == "News site"

    def test_get_element_by_id(self):
        doc, body = make_doc()
        el = Element("div", {"id": "target"})
        body.append_child(el)
        assert query_selector(doc, "#target") is el
        assert query_selector(doc, "#missing") is None

    def test_serialization_has_doctype(self):
        doc, _ = make_doc()
        assert to_html(doc).startswith("<!DOCTYPE html>")


class TestComment:
    def test_comment_round_trip(self):
        doc, body = make_doc()
        body.append_child(Comment("note"))
        assert "<!--note-->" in to_html(doc)
