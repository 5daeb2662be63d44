"""The Page object: one loaded top-level document plus its frames."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.dom import Document, Element, Node
from repro.httpkit import Request
from repro.urlkit import URL

if TYPE_CHECKING:  # pragma: no cover
    from repro.browser.core import Browser

N = TypeVar("N", bound=Node)


class Page:
    """A loaded page: DOM, frames, request log, and diagnostic flags.

    ``document`` may be a shared read-only parse (see
    :mod:`repro.soup.cache`).  Code that writes to the page's DOM takes
    its node through :meth:`writable` first; the first such call swaps
    in a private deep clone.  Node references taken before the swap
    still point into the shared parse: :meth:`current` maps them onto
    the page's copy.
    """

    def __init__(self, browser: "Browser", url: URL, document: Document) -> None:
        self.browser = browser
        self.url = url
        self.document = document
        #: Every request issued on behalf of this page (incl. blocked).
        self.requests: List[Request] = []
        #: Requests an extension blocked before they hit the network.
        self.blocked_requests: List[Request] = []
        #: Requests that failed (DNS error etc.).
        self.failed_requests: List[Request] = []
        #: Diagnostic flags set by effects (anti-adblock walls etc.).
        self.flags: Dict[str, object] = {}
        #: True when a script locked body scrolling.
        self.scroll_locked = False
        self.status: int = 200
        #: Resource elements already handled by the load pipeline.
        self.processed_elements: set = set()
        #: After the copy-on-write swap: id(shared node) -> private copy.
        self._copies: Optional[Dict[int, Node]] = None
        #: The shared parse the copies came from; keeps its nodes (and
        #: so the ids in ``_copies``) alive.
        self._pristine: Optional[Document] = None

    # ------------------------------------------------------------------
    # Copy-on-write
    # ------------------------------------------------------------------
    def writable(self, node: Optional[N] = None) -> Optional[N]:
        """Make this page's DOM private, and return the copy of *node*.

        On a shared parse the first call deep-clones the document
        (frames and shadow trees included) once, remaps
        ``processed_elements`` onto the copies; later calls, and calls on
        a private page, only map.
        Returns ``current(node)``.
        """
        if self.document.shared:
            original = self.document
            copy = original.clone(deep=True)
            copies: Dict[int, Node] = {id(original): copy}
            for source, target in zip(
                original.descendants(include_shadow=True, include_frames=True),
                copy.descendants(include_shadow=True, include_frames=True),
            ):
                copies[id(source)] = target
            self._copies = copies
            self._pristine = original
            self.document = copy
            self.processed_elements = {
                id(copies[key]) for key in self.processed_elements
            }
        return self.current(node)

    def current(self, node: Optional[N]) -> Optional[N]:
        """The page's own copy of *node* (*node* itself before any swap,
        or when it is not part of the shared parse)."""
        if self._copies is None or node is None:
            return node
        return self._copies.get(id(node), node)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Frame access
    # ------------------------------------------------------------------
    def _walk_frames(self) -> Tuple[List[Element], List[Document]]:
        """One pass over every document's pierced element list
        (:meth:`~repro.dom.Document.element_lists`) computing the
        top-level iframes and the document tree."""
        iframes: List[Element] = []
        documents: List[Document] = [self.document]
        stack = [self.document]
        while stack:
            doc = stack.pop()
            for el in doc.element_lists()[1]:
                if el.tag != "iframe":
                    continue
                if doc is self.document:
                    iframes.append(el)
                inner = el.content_document
                if inner is not None:
                    documents.append(inner)
                    stack.append(inner)
        return iframes, documents

    def iframes(self) -> List[Element]:
        """All iframe elements in the top-level document (pierces shadow)."""
        return self._walk_frames()[0]

    def all_documents(self) -> Iterator[Document]:
        """The main document plus every loaded frame document (recursive)."""
        yield from self._walk_frames()[1]

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def site(self) -> Optional[str]:
        return self.url.site

    def visible_text(self) -> str:
        """All human-visible text, piercing shadow roots and frames."""
        body = self.document.body
        if body is None:
            return ""
        return body.text_content(pierce=True)

    def __repr__(self) -> str:
        return f"<Page {self.url} requests={len(self.requests)}>"
