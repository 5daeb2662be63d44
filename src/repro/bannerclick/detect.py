"""Banner and cookiewall detection (paper §3).

The detector only uses capabilities a Selenium-based crawler has:
element scans in the current browsing context, frame switching, and —
for shadow DOMs — the paper's workaround of *cloning shadow children
into the document body* so ordinary lookups can run over them, then
mapping matches back to the live shadow tree for interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bannerclick.corpus import (
    find_currency_amounts,
    has_accept_words,
    has_banner_words,
    has_cookiewall_words,
    has_reject_words,
)
from repro.browser import Page
from repro.dom import Document, Element, Node
from repro.dom.selector import iter_elements_by_tags
from repro.soup import Soup

#: Tags that can host a consent dialog.
_CONTAINER_TAGS = frozenset({"div", "section", "aside", "dialog", "form"})

#: id/class/role tokens hinting at consent UI.
_HINT_TOKENS = (
    "cookie", "consent", "cmp", "gdpr", "privacy", "notice", "banner",
    "overlay", "wall", "dialog", "message", "paywall", "pur",
)

_BUTTON_TAGS = frozenset({"button", "a", "input"})

_MAX_BANNER_TEXT = 900


@dataclass
class BannerDetection:
    """The outcome of one banner scan on one page."""

    found: bool = False
    location: str = "none"     # main | iframe | shadow-open | shadow-closed
    container: Optional[Element] = None
    frame_element: Optional[Element] = None
    shadow_host: Optional[Element] = None
    text: str = ""
    accept_element: Optional[Element] = None
    reject_element: Optional[Element] = None
    has_reject: bool = False
    is_cookiewall: bool = False
    wall_word_match: bool = False
    currency_matches: List[str] = field(default_factory=list)


@dataclass(frozen=True, kw_only=True)
class BannerClick:
    """The extended BannerClick detector.

    The keyword arguments are ablation switches (all on by default,
    matching the paper's configuration):

    - ``shadow_dom``: scan open shadow roots via the clone workaround;
    - ``closed_shadow``: additionally reach closed roots (devtools
      pierce, [52]);
    - ``iframes``: scan iframe documents;
    - ``subscription_words`` / ``currency_patterns``: the two halves of
      the cookiewall classifier (§3).
    """

    shadow_dom: bool = True
    closed_shadow: bool = True
    iframes: bool = True
    subscription_words: bool = True
    currency_patterns: bool = True

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def detect(self, page: Page) -> BannerDetection:
        """Scan *page* for a banner; classify cookiewalls."""
        detection = self._scan_context(page.document)
        if detection is not None:
            detection.location = "main"
            return self._classify(detection)

        if self.iframes:
            detection = self._scan_iframes(page.document)
            if detection is not None:
                return self._classify(detection)

        if self.shadow_dom:
            detection = self._scan_shadow_hosts(page)
            if detection is not None:
                return self._classify(detection)

        return BannerDetection(found=False)

    # ------------------------------------------------------------------
    # Context scans
    # ------------------------------------------------------------------
    def _scan_context(self, root: Node) -> Optional[BannerDetection]:
        """Find the most plausible banner container under *root*.

        The container scan (:func:`~repro.dom.selector.iter_elements_by_tags`)
        filters a document's cached element list, or walks any other
        root once; it never builds the document's selector index.
        """
        candidates: List[Tuple[bool, int, Element]] = []
        for element in iter_elements_by_tags(root, _CONTAINER_TAGS):
            if not element.is_visible():
                continue
            hinted = self._attribute_hint(element)
            text = element.text_content()
            if not hinted and not has_banner_words(text):
                continue
            if len(text) > _MAX_BANNER_TEXT or not text:
                continue
            buttons = self._buttons_in(element)
            if not buttons:
                continue
            candidates.append((not hinted, len(text), element))
        if not candidates:
            return None
        candidates.sort(key=lambda item: (item[0], item[1]))
        container = candidates[0][2]
        detection = BannerDetection(found=True, container=container)
        self._locate_buttons(detection, container)
        return detection

    def _scan_iframes(self, document: Document) -> Optional[BannerDetection]:
        light, pierced = document.element_lists()
        for element in pierced if self.shadow_dom else light:
            if element.tag != "iframe" or element.content_document is None:
                continue
            detection = self._scan_context(element.content_document)
            if detection is not None:
                detection.location = "iframe"
                detection.frame_element = element
                return detection
        return None

    def _scan_shadow_hosts(self, page: Page) -> Optional[BannerDetection]:
        if page.document.body is None:
            return None
        for host in page.document.element_lists()[0]:
            shadow = host.shadow_root  # open roots only
            mode = "shadow-open"
            if shadow is None and self.closed_shadow:
                shadow = host.attached_shadow_root  # devtools pierce
                mode = "shadow-closed"
            if shadow is None:
                continue
            # The workaround writes into the body: work on the page's
            # private copy (cloned here on the first shadow host).
            host = page.writable(host)
            shadow = host.attached_shadow_root
            detection = self._clone_workaround(page.document.body, shadow)
            if detection is not None:
                detection.location = mode
                detection.shadow_host = host
                return detection
        return None

    def _clone_workaround(self, body, shadow) -> Optional[BannerDetection]:
        """Paper §3: clone shadow children into the body, search the
        clones, then resolve matches back into the live shadow tree."""
        clones: List[Node] = []
        originals: List[Node] = []
        for child in shadow.children:
            clone = child.clone(deep=True)
            body.append_child(clone)
            clones.append(clone)
            originals.append(child)
        try:
            for clone, original in zip(clones, originals):
                detection = self._scan_subtree(clone)
                if detection is None:
                    continue
                mapped = self._map_back(detection.container, clone, original)
                if mapped is None:
                    continue
                remapped = BannerDetection(found=True, container=mapped)
                self._locate_buttons(remapped, mapped)
                return remapped
        finally:
            for clone in clones:
                clone.detach()
        return None

    def _scan_subtree(self, root: Node) -> Optional[BannerDetection]:
        """Like _scan_context but includes *root* itself as a candidate."""
        elements: List[Element] = []
        if isinstance(root, Element) and root.tag in _CONTAINER_TAGS:
            elements.append(root)
        elements.extend(iter_elements_by_tags(root, _CONTAINER_TAGS))
        candidates: List[Tuple[bool, int, Element]] = []
        for element in elements:
            if not element.is_visible():
                continue
            hinted = self._attribute_hint(element)
            text = element.text_content()
            if not hinted and not has_banner_words(text):
                continue
            if len(text) > _MAX_BANNER_TEXT or not text:
                continue
            if not self._buttons_in(element):
                continue
            candidates.append((not hinted, len(text), element))
        if not candidates:
            return None
        candidates.sort(key=lambda item: (item[0], item[1]))
        detection = BannerDetection(found=True, container=candidates[0][2])
        return detection

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _attribute_hint(element: Element) -> bool:
        haystack = " ".join(
            (
                element.get_attribute("id") or "",
                element.get_attribute("class") or "",
                element.get_attribute("role") or "",
            )
        ).lower()
        return any(token in haystack for token in _HINT_TOKENS)

    @staticmethod
    def _buttons_in(container: Element) -> List[Element]:
        out = []
        for el in iter_elements_by_tags(container, _BUTTON_TAGS):
            if el.tag == "input" and el.get_attribute("type") not in (
                "button", "submit"
            ):
                continue
            out.append(el)
        return out

    def _locate_buttons(self, detection: BannerDetection, container: Element) -> None:
        for button in self._buttons_in(container):
            label = button.text_content()
            if detection.accept_element is None and has_accept_words(label):
                detection.accept_element = button
            elif detection.reject_element is None and has_reject_words(label):
                detection.reject_element = button
        detection.has_reject = detection.reject_element is not None

    @staticmethod
    def _node_path(node: Node, ancestor: Node) -> Optional[List[int]]:
        """Child-index path from *ancestor* down to *node*."""
        path: List[int] = []
        current = node
        while current is not ancestor:
            parent = current.parent
            if parent is None:
                return None
            path.append(parent.children.index(current))
            current = parent
        path.reverse()
        return path

    @classmethod
    def _map_back(
        cls, found: Optional[Element], clone_root: Node, original_root: Node
    ) -> Optional[Element]:
        if found is None:
            return None
        if found is clone_root:
            return original_root if isinstance(original_root, Element) else None
        path = cls._node_path(found, clone_root)
        if path is None:
            return None
        node: Node = original_root
        for index in path:
            if index >= len(node.children):
                return None
            node = node.children[index]
        return node if isinstance(node, Element) else None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(self, detection: BannerDetection) -> BannerDetection:
        """Cookiewall classification over soup-extracted banner text."""
        assert detection.container is not None
        detection.text = Soup(detection.container).get_text()
        if self.subscription_words:
            detection.wall_word_match = has_cookiewall_words(detection.text)
        if self.currency_patterns:
            detection.currency_matches = find_currency_amounts(detection.text)
        detection.is_cookiewall = bool(
            detection.wall_word_match or detection.currency_matches
        )
        return detection
