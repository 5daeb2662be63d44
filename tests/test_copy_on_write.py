"""Copy-on-write documents: one shared read-only parse per page.

``DocumentCache.parse`` hands every visit the cached parse itself,
marked read-only.  Two halves are pinned here:

- **The guard.**  Every DOM mutator (and ``Element.on_click``) applied
  to any node of a shared parse -- main tree, shadow tree or ``srcdoc``
  frame -- raises :class:`DOMError` before it writes, so the parse is
  byte-identical and its revision unchanged afterwards.
- **The writers.**  Each in-tree code path that writes to a loaded page
  takes ``Page.writable`` first: the write lands on the page's private
  copy, the cached parse stays byte-identical to a fresh parse, and the
  next visit to the URL starts from the pristine page.
"""

import sys
import threading

import pytest

from repro import perf
from repro.adblock import UBlockOrigin
from repro.bannerclick import BannerClick, accept_banner
from repro.browser import Browser, Page
from repro.browser.effects import encode_effects
from repro.browser.webdriver import By, WebDriver
from repro.dom import Document, Element, to_html
from repro.dom.selector import query_selector, query_selector_all
from repro.errors import DOMError
from repro.netsim import Network, OriginServer
from repro.soup import parse_document
from repro.soup.cache import DocumentCache
from repro.urlkit import parse
from repro.vantage import VANTAGE_POINTS
from tests.servers import StaticServer

URL = "https://site.de/"

# ---------------------------------------------------------------------------
# The read-only guard
# ---------------------------------------------------------------------------

GUARD_HTML = (
    '<div id="a" class="x" data-k="v"><p id="p">text</p></div>'
    '<div id="host"><template shadowrootmode="open">'
    '<span id="s">in shadow</span></template></div>'
    '<iframe id="f" srcdoc="&lt;p id=&quot;fp&quot;&gt;framed&lt;/p&gt;">'
    "</iframe>"
    '<section id="plain"></section>'
)


def _by_id(doc, element_id):
    return query_selector(doc, "#" + element_id)


def _shadow(doc):
    return _by_id(doc, "host").attached_shadow_root


def _frame(doc):
    return _by_id(doc, "f").content_document


MUTATORS = {
    "append_child": lambda d: d.body.append_child(Element("p")),
    "insert_before": lambda d: d.body.insert_before(
        Element("p"), d.body.children[0]
    ),
    "detach": lambda d: _by_id(d, "a").detach(),
    "detach_text": lambda d: _by_id(d, "p").children[0].detach(),
    "content_document": lambda d: setattr(
        _by_id(d, "f"), "content_document", Document()
    ),
    "content_document_clear": lambda d: setattr(
        _by_id(d, "f"), "content_document", None
    ),
    "set_attribute": lambda d: _by_id(d, "a").set_attribute("data-k", "w"),
    "attach_shadow": lambda d: _by_id(d, "plain").attach_shadow(mode="closed"),
    "on_click": lambda d: setattr(_by_id(d, "a"), "on_click", lambda el: None),
    "shadow_append_child": lambda d: _shadow(d).append_child(Element("b")),
    "shadow_detach": lambda d: _shadow(d).children[0].detach(),
    "shadow_set_attribute": lambda d: _shadow(d).children[0].set_attribute(
        "id", "t"
    ),
    "frame_append_child": lambda d: _frame(d).body.append_child(Element("b")),
    "frame_set_attribute": lambda d: _by_id(_frame(d), "fp").set_attribute(
        "id", "gp"
    ),
    "adopt_into_private_tree": lambda d: Document().append_child(_by_id(d, "a")),
}


def _state(doc):
    frame = _frame(doc)
    return (
        to_html(doc), doc.revision, frame.revision, _by_id(doc, "a").on_click
    )


class TestReadOnlyGuard:
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_mutator_on_shared_parse_raises_and_leaves_no_trace(self, mutator):
        master = DocumentCache().parse(GUARD_HTML, URL)
        assert master.shared and _frame(master).shared
        before = _state(master)
        with pytest.raises(DOMError):
            MUTATORS[mutator](master)
        assert _state(master) == before
        assert to_html(master) == to_html(parse_document(GUARD_HTML, url=URL))

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_mutator_on_private_clone_writes(self, mutator):
        clone = DocumentCache().parse(GUARD_HTML, URL).clone(deep=True)
        assert not clone.shared and not _frame(clone).shared
        MUTATORS[mutator](clone)

    def test_cache_hit_returns_the_shared_parse(self):
        cache = DocumentCache()
        first = cache.parse(GUARD_HTML, URL)
        assert cache.parse(GUARD_HTML, URL) is first
        assert (cache.hits, cache.misses) == (1, 1)


# ---------------------------------------------------------------------------
# The writers
# ---------------------------------------------------------------------------

class EffectServer(OriginServer):
    def __init__(self, effects):
        self.payload = encode_effects(effects)

    def handle(self, request, visitor):
        return self.effects(request, self.payload)


def _browser(html, others=None, extensions=()):
    net = Network()
    net.register("site.de", StaticServer(html))
    for host, server in (others or {}).items():
        net.register(host, server)
    cache = DocumentCache()
    browser = Browser(
        net, VANTAGE_POINTS["DE"], extensions=extensions, parse_cache=cache
    )
    return browser, cache


def _warm_visit(html, others=None, extensions=()):
    """``(browser, page, master, pristine)`` for a visit served from a
    warm cache; *pristine* serialises a fresh parse of *html*."""
    browser, cache = _browser(html, others, extensions)
    browser.visit("site.de")
    misses = cache.misses
    page = browser.visit("site.de")
    assert cache.misses == misses
    master = cache.parse(html, URL)
    return browser, page, master, to_html(parse_document(html, url=URL))


BANNER = (
    '<div class="cookie-banner" role="dialog" data-banner="1">'
    "<p>Wir verwenden Cookies für Inhalte und Anzeigen.</p>"
    '<button data-action="accept">Alle akzeptieren</button>'
    '<button data-action="reject">Ablehnen</button></div>'
)


class TestLoadTimeWriters:
    """Writes during the load: every visit applies them to its own copy."""

    def _check(self, page, browser, master, pristine):
        assert not page.document.shared
        assert to_html(master) == pristine
        again = browser.visit("site.de")
        assert again.document is not page.document
        assert to_html(again.document) == to_html(page.document)
        assert to_html(master) == pristine

    def test_append_html(self):
        html = '<div id="slot"></div><script src="https://fx.net/e.js"></script>'
        fx = EffectServer([
            {"op": "append-html", "target": "#slot", "html": "<p>injected</p>"}
        ])
        browser, page, master, pristine = _warm_visit(html, {"fx.net": fx})
        slot = query_selector(page.document, "#slot")
        assert slot.text_content() == "injected"
        assert not query_selector(master, "#slot").children
        self._check(page, browser, master, pristine)

    def test_lock_scroll(self):
        html = '<p>x</p><script src="https://fx.net/e.js"></script>'
        fx = EffectServer([{"op": "lock-scroll"}])
        browser, page, master, pristine = _warm_visit(html, {"fx.net": fx})
        assert page.scroll_locked
        assert "overflow:hidden" in page.document.body.get_attribute("style")
        assert master.body.get_attribute("style") is None
        self._check(page, browser, master, pristine)

    def test_remove(self):
        html = (
            '<div class="ad">a</div><div class="ad">b</div>'
            '<script src="https://fx.net/e.js"></script>'
        )
        fx = EffectServer([{"op": "remove", "target": ".ad"}])
        browser, page, master, pristine = _warm_visit(html, {"fx.net": fx})
        assert query_selector(page.document, ".ad") is None
        assert query_selector(master, ".ad") is not None
        self._check(page, browser, master, pristine)

    def test_remote_iframe_gets_a_private_frame(self):
        html = '<iframe src="https://frame.net/f.html"></iframe>'
        frame_server = StaticServer('<p id="framed">framed</p>')
        browser, page, master, pristine = _warm_visit(
            html, {"frame.net": frame_server}
        )
        frame = page.iframes()[0].content_document
        assert frame is not None and not frame.shared
        assert query_selector(frame, "#framed") is not None
        assert master.body.children[0].content_document is None
        self._check(page, browser, master, pristine)

    def test_ublock_cosmetic_detach(self):
        html = '<div class="ad-slot">ad</div><p>content</p>'
        browser, page, master, pristine = _warm_visit(
            html, extensions=[UBlockOrigin(extra_lists=["##.ad-slot"])]
        )
        assert query_selector(page.document, ".ad-slot") is None
        assert query_selector(master, ".ad-slot") is not None
        self._check(page, browser, master, pristine)

    def test_ublock_without_match_keeps_the_shared_parse(self):
        html = "<p>content</p>"
        _, page, master, _ = _warm_visit(
            html, extensions=[UBlockOrigin(extra_lists=["##.ad-slot"])]
        )
        assert page.document is master

    def test_effect_swap_mid_load_keeps_processing_the_copy(self):
        # The effect script clones the page while the load loop still
        # holds shared nodes; the image after it must be fetched once
        # and recorded against the page's copy.
        html = (
            '<script src="https://fx.net/e.js"></script>'
            '<img src="https://img.net/a.png">'
        )
        fx = EffectServer([{"op": "lock-scroll"}])
        browser, page, master, pristine = _warm_visit(
            html, {"fx.net": fx, "img.net": StaticServer("")}
        )
        images = [r for r in page.requests if r.resource_type == "image"]
        assert len(images) == 1
        copy_img = query_selector(page.document, "img")
        assert id(copy_img) in page.processed_elements
        assert id(query_selector(master, "img")) not in page.processed_elements
        self._check(page, browser, master, pristine)


class TestPostLoadWriters:
    """Writes after the load: the next visit sees the shared parse."""

    def _check(self, page, browser, master, pristine):
        assert not page.document.shared
        assert to_html(master) == pristine
        again = browser.visit("site.de")
        assert again.document is master
        assert to_html(again.document) == pristine

    def test_detect_only_visit_does_not_clone(self):
        _, page, master, pristine = _warm_visit(BANNER)
        assert page.document is master
        detection = BannerClick().detect(page)
        assert detection.found and detection.location == "main"
        assert page.document is master
        assert to_html(master) == pristine

    def test_click_removes_banner_on_the_copy(self):
        browser, page, master, pristine = _warm_visit(BANNER)
        detection = BannerClick().detect(page)
        outcome = accept_banner(browser, page, detection)
        assert outcome.removed_banner
        assert query_selector(page.document, "[data-banner]") is None
        assert query_selector(master, "[data-banner]") is not None
        assert browser.jar.has("cmp_consent", "site.de")
        self._check(page, browser, master, pristine)

    def test_click_in_srcdoc_frame_detaches_the_iframe(self):
        html = (
            '<iframe data-banner="1" srcdoc="&lt;button '
            'data-action=&quot;dismiss&quot;&gt;OK&lt;/button&gt;"></iframe>'
            "<p>content</p>"
        )
        browser, page, master, pristine = _warm_visit(html)
        button = page.iframes()[0].content_document.body.children[0]
        outcome = browser.click(page, button)
        assert outcome.removed_banner
        assert page.iframes() == []
        assert len(list(page.all_documents())) == 1
        self._check(page, browser, master, pristine)

    def test_on_click_hook_runs_on_the_copy(self):
        browser, page, master, pristine = _warm_visit(
            '<button id="b" data-action="none">x</button>'
        )
        button = page.writable(query_selector(page.document, "#b"))
        fired = []
        button.on_click = lambda el: fired.append(el)
        browser.click(page, query_selector(master, "#b"))
        assert fired == [button]
        assert query_selector(master, "#b").on_click is None
        self._check(page, browser, master, pristine)

    def test_shadow_clone_workaround(self):
        html = (
            '<p>content</p><div id="host"><template shadowrootmode="closed">'
            + BANNER
            + "</template></div>"
        )
        browser, page, master, pristine = _warm_visit(html)
        detection = BannerClick().detect(page)
        assert detection.found and detection.location == "shadow-closed"
        # The detection points into the page's copy, and the clones the
        # workaround appended to the body are gone again.
        assert detection.shadow_host is query_selector(page.document, "#host")
        assert detection.container.owner_document is page.document
        assert to_html(page.document) == pristine
        assert accept_banner(browser, page, detection).removed_banner
        self._check(page, browser, master, pristine)

    def test_webdriver_append_clone(self):
        html = (
            '<div id="closed-host"><template shadowrootmode="closed">'
            '<button id="closed-btn">OK</button></template></div>'
        )
        browser, page, master, pristine = _warm_visit(html)
        driver = WebDriver(browser, page)
        host = driver.find_element(By.ID, "closed-host")
        shadow = driver.pierce_shadow_root(host)
        body = page.document.body
        for child in shadow.root.children:
            driver.execute_append_clone(child, body)
        assert driver._context is page.document
        assert len(driver.find_elements(By.CSS_SELECTOR, "#closed-btn")) == 1
        self._check(page, browser, master, pristine)


class TestWritableMapping:
    def test_clone_happens_once_and_maps_every_node(self):
        _, page, master, _ = _warm_visit(GUARD_HTML)
        frame_p = _by_id(_frame(master), "fp")
        copy = page.writable(frame_p)
        document = page.document
        assert copy is not frame_p and copy.id == "fp"
        assert copy.owner_document is _frame(document)
        assert page.writable(frame_p) is copy
        assert page.document is document
        assert page.current(copy) is copy
        assert page.current(master) is document
        assert page.writable() is None and page.document is document

    def test_processed_elements_are_remapped(self):
        _, page, master, _ = _warm_visit(GUARD_HTML)
        before = set(page.processed_elements)
        assert id(_by_id(master, "f")) in before
        page.writable()
        assert id(_by_id(page.document, "f")) in page.processed_elements
        assert len(page.processed_elements) == len(before)
        assert not before & page.processed_elements

    def test_without_parse_cache_pages_are_private(self):
        with perf.disabled("parse_cache"):
            _, page, master, _ = _warm_visit(GUARD_HTML)
            document = page.document
            assert not document.shared and document is not master
            element = _by_id(document, "a")
            assert page.writable(element) is element
            assert page.document is document


class TestConcurrentReaders:
    """Thread workers share the cache: lazily built walk lists and
    selector indexes on a shared parse must publish whole, and pages
    cloning the same parse concurrently must each get a full copy."""

    def test_threads_racing_on_a_fresh_shared_parse(self):
        html = (
            GUARD_HTML
            + '<div id="wall"><template shadowrootmode="closed">'
            + BANNER
            + "</template></div>"
        )
        reference = parse_document(html, url=URL)
        expected_lists = (
            list(reference.elements()),
            list(reference.elements(include_shadow=True)),
        )
        expected = (
            [id(el) for el in expected_lists[0]],
            [id(el) for el in expected_lists[1]],
        )
        pristine = to_html(reference)
        workers, rounds = 8, 15
        errors = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                shared = parse_document(html, url=URL)
                shared.mark_shared()
                revision = shared.revision
                # Node ids of the shared parse, in the reference's order.
                order = {
                    id(a): id(b)
                    for a, b in zip(
                        expected_lists[1], shared.elements(include_shadow=True)
                    )
                }
                barrier = threading.Barrier(workers)

                def read(shared=shared, order=order, barrier=barrier):
                    try:
                        barrier.wait(timeout=10)
                        light, pierced = shared.element_lists()
                        assert [id(el) for el in light] == [
                            order[i] for i in expected[0]
                        ]
                        assert [id(el) for el in pierced] == [
                            order[i] for i in expected[1]
                        ]
                        assert [el.id for el in query_selector_all(shared, "div")] == [
                            el.id for el in expected_lists[0] if el.tag == "div"
                        ]
                        page = Page(None, parse(URL), shared)
                        detection = BannerClick().detect(page)
                        assert detection.location == "shadow-closed"
                        assert detection.container.owner_document is page.document
                        assert to_html(page.document) == pristine
                    except Exception as error:  # reported after the join
                        errors.append(error)

                threads = [threading.Thread(target=read) for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert to_html(shared) == pristine
                assert shared.revision == revision
        finally:
            sys.setswitchinterval(switch)
        assert not errors, errors[0]
