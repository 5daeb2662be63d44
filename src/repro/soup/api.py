"""``Soup`` — a BeautifulSoup-like facade over :mod:`repro.dom` trees.

The cookiewall classifier (paper §3) runs word searches over the text
of banner subtrees; this API mirrors the BeautifulSoup calls used
there: ``find``, ``find_all``, ``get_text`` and CSS ``select``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.dom.node import Element, Node, Text
from repro.dom.selector import query_selector_all

_AttrFilter = Dict[str, Union[str, bool, Callable[[Optional[str]], bool]]]


class Soup:
    """Wraps a DOM node with BeautifulSoup-flavoured search methods."""

    def __init__(self, node: Node) -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------
    def find_all(
        self,
        name: Optional[Union[str, List[str]]] = None,
        attrs: Optional[_AttrFilter] = None,
        string: Optional[Union[str, Callable[[str], bool]]] = None,
        class_: Optional[str] = None,
        limit: Optional[int] = None,
        *,
        pierce: bool = True,
    ) -> List["Soup"]:
        """All matching descendant elements.

        Unlike browser selectors, ``pierce=True`` (default) descends
        into shadow roots and iframes — BeautifulSoup operates on the
        serialised page source, which contains those subtrees.
        """
        out: List[Soup] = []
        for element in self._iter_elements(pierce=pierce):
            if not _matches(element, name, attrs, string, class_):
                continue
            out.append(Soup(element))
            if limit is not None and len(out) >= limit:
                break
        return out

    def find(
        self,
        name: Optional[Union[str, List[str]]] = None,
        attrs: Optional[_AttrFilter] = None,
        string: Optional[Union[str, Callable[[str], bool]]] = None,
        class_: Optional[str] = None,
        *,
        pierce: bool = True,
    ) -> Optional["Soup"]:
        """First matching descendant element, or None."""
        results = self.find_all(
            name, attrs, string, class_, limit=1, pierce=pierce
        )
        return results[0] if results else None

    # reprolint: disable=test-only-definition -- perfbench: patches repro.soup.api.query_selector_all, which only this method calls
    def select(self, selector: str) -> List["Soup"]:
        """CSS selection (does not pierce shadow/frames, like browsers)."""
        return [Soup(el) for el in query_selector_all(self.node, selector)]

    # ------------------------------------------------------------------
    # Text access
    # ------------------------------------------------------------------
    def get_text(self, separator: str = " ", strip: bool = True) -> str:
        """The node's text, piercing shadow roots and iframes."""
        parts: List[str] = []
        for node in self.node.descendants(include_shadow=True, include_frames=True):
            if isinstance(node, Text):
                data = node.data.strip() if strip else node.data
                if data:
                    parts.append(data)
        return separator.join(parts)

    @property
    def text(self) -> str:
        return self.get_text()

    # ------------------------------------------------------------------
    # Attribute access (mapping-style, like BeautifulSoup tags)
    # ------------------------------------------------------------------
    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        if isinstance(self.node, Element):
            value = self.node.get_attribute(name)
            return value if value is not None else default
        return default

    def __getitem__(self, name: str) -> str:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    @property
    def attrs(self) -> Dict[str, str]:
        return dict(self.node.attrs) if isinstance(self.node, Element) else {}

    # ------------------------------------------------------------------
    def _iter_elements(self, pierce: bool) -> Iterator[Element]:
        for node in self.node.descendants(
            include_shadow=pierce, include_frames=pierce
        ):
            if isinstance(node, Element):
                yield node

    def __repr__(self) -> str:
        return f"Soup({self.node!r})"


def _matches(
    element: Element,
    name: Optional[Union[str, List[str]]],
    attrs: Optional[_AttrFilter],
    string: Optional[Union[str, Callable[[str], bool]]],
    class_: Optional[str],
) -> bool:
    if name is not None:
        names = [name] if isinstance(name, str) else list(name)
        if element.tag not in [n.lower() for n in names]:
            return False
    if class_ is not None and class_ not in element.classes:
        return False
    if attrs:
        for key, expected in attrs.items():
            actual = element.get_attribute(key)
            if expected is True:
                if actual is None:
                    return False
            elif callable(expected):
                if not expected(actual):
                    return False
            elif actual != expected:
                return False
    if string is not None:
        text = element.text_content(pierce=True)
        if callable(string):
            if not string(text):
                return False
        elif string not in text:
            return False
    return True
