"""A parsed-document cache: share one read-only parse per page.

The synthetic web renders a site's HTML deterministically from visitor
state, so the same (body, url) pair shows up over and over — across the
eight vantage points of a detection crawl, across the five repeats of a
cookie/uBlock measurement, and across longitudinal waves.  Tokenizing
and tree-building that HTML again on every visit is the single biggest
per-visit cost, so each distinct page is parsed once.

Keys are ``(sha256(body), url)``: the URL participates because the
parser stamps it on the produced :class:`~repro.dom.Document` (and on
``about:srcdoc`` frames nested inside), so the same markup served for
two different pages must not share a cache entry.

Every hit returns the cached parse itself, marked read-only
(:meth:`~repro.dom.Document.mark_shared`, which covers its ``srcdoc``
frames too).  Any mutator called on it raises :class:`DOMError` before
writing, so no caller can corrupt the cache.  Most visits never write
to their DOM (about 8% of the visits in a seed-1 ``verify`` do); the
ones that do take a private deep clone on their first write through
:meth:`repro.browser.Page.writable`.  A shared parse also keeps its
cached element lists and selector index, so the walks behind the load
pipeline and BannerClick's scans run once per cached page rather than
once per visit.  Entries are evicted LRU with a bounded size; the cache
is lock-protected because parallel crawl workers share it.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Tuple

from repro.dom.node import Document
from repro.lru import LockedLRU
from repro.soup.parser import parse_document


class DocumentCache:
    """Bounded LRU of shared read-only parses, keyed by (body hash, url)."""

    def __init__(self, max_entries: int = 8192) -> None:
        self._entries: LockedLRU = LockedLRU(max_entries)
        self._stats_lock = threading.Lock()
        #: Cache statistics (for benchmarks and diagnostics).
        self.hits = 0
        self.misses = 0

    def parse(self, html: str, url: str = "about:blank") -> Document:
        """The shared read-only parse of *html* (parsed on first request)."""
        key: Tuple[str, str] = (
            hashlib.sha256(html.encode("utf-8")).hexdigest(), url
        )
        master = self._entries.get(key)
        if master is None:
            master = parse_document(html, url=url)
            master.mark_shared()
            self._entries.put(key, master)
            with self._stats_lock:
                self.misses += 1
        else:
            with self._stats_lock:
                self.hits += 1
        return master

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache the browser uses by default.  Shared across
#: browsers on purpose: parallel crawl workers visiting the same site
#: population all profit from one another's parses.  The default size
#: comfortably holds a mid-scale world's site population; multi-VP
#: crawls iterate VP-major over the whole target list, so a cache
#: smaller than the target count would evict every entry right before
#: the next vantage point needs it.
shared_document_cache = DocumentCache()
