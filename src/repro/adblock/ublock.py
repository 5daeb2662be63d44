"""uBlock Origin stand-in: a browser extension wired to the engine."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Type

from repro import perf
from repro.adblock.engine import FilterEngine, NaiveFilterEngine, _EngineCore
from repro.adblock.lists import annoyances_list, easylist
from repro.browser.extensions import Extension
from repro.dom.selector import query_selector_all
from repro.errors import SelectorError
from repro.httpkit import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.browser.page import Page


class UBlockOrigin(Extension):
    """Network + cosmetic filtering extension.

    By default only the EasyList-style core list is enabled; pass
    ``annoyances=True`` to also enable the Annoyances lists — the
    configuration the paper uses to block cookiewalls (§4.5).
    """

    name = "uBlock Origin"

    def __init__(
        self,
        *,
        annoyances: bool = False,
        extra_lists: Optional[Iterable[str]] = None,
        engine_cls: Optional[Type[_EngineCore]] = None,
    ) -> None:
        if engine_cls is None:
            # The hot-path switch lets benchmarks and differential
            # tests run the whole uBlock arm on the naive matcher.
            engine_cls = (
                FilterEngine if perf.config.filter_index else NaiveFilterEngine
            )
        self.engine = engine_cls()
        self.engine.add_list(easylist())
        self.annoyances_enabled = annoyances
        if annoyances:
            self.engine.add_list(annoyances_list())
        for text in extra_lists or ():
            self.engine.add_list(text)
        #: Count of blocked requests (like the extension's badge).
        self.blocked_count = 0

    # ------------------------------------------------------------------
    # Extension hooks
    # ------------------------------------------------------------------
    def should_block(self, request: Request, page: "Page") -> bool:
        if request.resource_type == "document":
            return False  # uBlock never blocks top-level documents
        blocked = self.engine.should_block(request)
        if blocked:
            self.blocked_count += 1
        return blocked

    def on_document_ready(self, page: "Page") -> None:
        """Apply cosmetic filters: detach matching elements."""
        host = page.url.host
        for selector in self.engine.cosmetic_selectors(host):
            try:
                matches = query_selector_all(page.document, selector)
            except SelectorError:
                continue  # lists may carry syntax we do not support
            for element in matches:
                page.writable(element).detach()
