"""DOM effects: the browser-side model of third-party JavaScript.

Real cookiewalls are usually *injected* by a script loaded from a CMP /
SMP domain; blocking that script (as uBlock does) prevents the wall
from ever appearing.  We model script behaviour as a JSON list of
declarative effects that the browser applies to the page.  Supported
operations:

``append-html``      parse an HTML fragment and append it to a target
                     element (may contain declarative shadow DOM and
                     ``srcdoc`` iframes — i.e. entire cookiewalls).
``set-page-cookie``  set a first-party cookie in the page's context
                     (what CMP scripts do after consent handshakes).
``load-resources``   request further URLs (ad cascades, pixels).
``if-blocked``       run nested effects only when a previous request
                     matching a pattern was blocked (anti-adblock).
``lock-scroll``      set ``overflow:hidden`` on the body (modal walls).
``remove``           remove elements matching a CSS selector.
``set-flag``         set a diagnostic flag on the page object.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.dom import Element, Node
from repro.dom.selector import query_selector
from repro.errors import ParseError
from repro.soup import parse_fragment

if TYPE_CHECKING:  # pragma: no cover
    from repro.browser.page import Page

#: Content type marking a response body as an effect list.
EFFECTS_CONTENT_TYPE = "application/x-dom-effects"


def encode_effects(effects: List[Dict]) -> str:
    """Serialise an effect list for an HTTP response body."""
    return json.dumps(effects, separators=(",", ":"))


def decode_effects(body: str) -> List[Dict]:
    """Parse an effect list, validating the overall shape."""
    try:
        data = json.loads(body) if body.strip() else []
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed effect payload: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("effect payload must be a JSON list")
    for item in data:
        if not isinstance(item, dict) or "op" not in item:
            raise ParseError(f"malformed effect entry: {item!r}")
    return data


class EffectRuntime:
    """Applies effect lists to a page; returns newly created nodes."""

    def __init__(self, page: "Page") -> None:
        self.page = page

    def apply(self, effects: List[Dict]) -> List[Node]:
        """Apply *effects* in order; returns nodes added to the DOM."""
        added: List[Node] = []
        for effect in effects:
            added.extend(self._apply_one(effect))
        return added

    # ------------------------------------------------------------------
    def _apply_one(self, effect: Dict) -> List[Node]:
        op = effect.get("op")
        if op == "append-html":
            return self._append_html(
                effect.get("target", "body"), effect.get("html", "")
            )
        if op == "set-page-cookie":
            self._set_page_cookie(effect)
            return []
        if op == "load-resources":
            self._load_resources(effect)
            return []
        if op == "if-blocked":
            if self._any_blocked(effect.get("pattern", "")):
                return self.apply(effect.get("then", []))
            return self.apply(effect.get("else", []))
        if op == "lock-scroll":
            self.page.scroll_locked = True
            body = self.page.document.body
            if body is not None:
                body = self.page.writable(body)
                style = body.get_attribute("style") or ""
                body.set_attribute("style", (style + ";overflow:hidden").lstrip(";"))
            return []
        if op == "remove":
            return self._remove(effect.get("target", ""))
        if op == "set-flag":
            self.page.flags[str(effect.get("key"))] = effect.get("value", True)
            return []
        raise ParseError(f"unknown effect op {op!r}")

    # ------------------------------------------------------------------
    def _resolve_target(self, selector: str) -> Optional[Element]:
        if selector in ("", "body"):
            return self.page.document.body
        return query_selector(self.page.document, selector)

    def _append_html(self, target_selector: str, html: str) -> List[Node]:
        target = self._resolve_target(target_selector)
        if target is None:
            return []
        target = self.page.writable(target)
        nodes = parse_fragment(html)
        for node in nodes:
            target.append_child(node)
        return nodes

    def _set_page_cookie(self, effect: Dict) -> None:
        name = effect.get("name")
        if not name:
            raise ParseError("set-page-cookie requires a name")
        header = f"{name}={effect.get('value', '')}"
        site = self.page.url.site
        if effect.get("scope") == "site" and site:
            header += f"; Domain={site}"
        max_age = effect.get("max_age")
        if max_age is not None:
            header += f"; Max-Age={int(max_age)}"
        self.page.browser.jar.set_from_header(header, self.page.url)

    def _load_resources(self, effect: Dict) -> None:
        resource_type = effect.get("type", "image")
        for url in effect.get("urls", []):
            self.page.browser.fetch_subresource(
                self.page, url, resource_type=resource_type
            )

    def _any_blocked(self, pattern: str) -> bool:
        if not pattern:
            return False
        return any(pattern in str(req.url) for req in self.page.blocked_requests)

    def _remove(self, selector: str) -> List[Node]:
        if not selector:
            return []
        removed = []
        element = query_selector(self.page.document, selector)
        while element is not None:
            element = self.page.writable(element)
            element.detach()
            removed.append(element)
            element = query_selector(self.page.document, selector)
        return []
