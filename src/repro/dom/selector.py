"""A CSS selector subset used by the crawler and the ad-block engine.

Supported grammar (enough for EasyList-style cosmetic filters and for
Selenium-style lookups):

- selector groups:         ``a, b``
- combinators:             descendant (whitespace) and child (``>``)
- type / universal:        ``div``, ``*``
- id / class:              ``#id``, ``.class``
- attribute selectors:     ``[attr]``, ``[attr=v]``, ``[attr*=v]``,
                           ``[attr^=v]``, ``[attr$=v]``, ``[attr~=v]``
- negation:                ``:not(<compound>)``

Selectors never pierce shadow roots or iframes — exactly the browser
behaviour the paper's shadow-DOM workaround exists to overcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from repro import perf
from repro.dom.node import Document, Element, Node
from repro.errors import SelectorError


@dataclass
class _Step:
    """One compound selector plus the combinator linking it leftwards."""

    combinator: str  # "" for the first step, " " or ">" otherwise
    tag: Optional[str] = None
    element_id: Optional[str] = None
    classes: List[str] = field(default_factory=list)
    attrs: List[Tuple[str, str, Optional[str]]] = field(default_factory=list)
    negations: List["_Step"] = field(default_factory=list)

    def matches(self, element: Element) -> bool:
        if self.tag not in (None, "*") and element.tag != self.tag:
            return False
        if self.element_id is not None and element.id != self.element_id:
            return False
        if self.classes:
            have = set(element.classes)
            if not set(self.classes) <= have:
                return False
        for name, op, expected in self.attrs:
            actual = element.get_attribute(name)
            if not _attr_matches(actual, op, expected):
                return False
        for negated in self.negations:
            if negated.matches(element):
                return False
        return True


def _attr_matches(actual: Optional[str], op: str, expected: Optional[str]) -> bool:
    if actual is None:
        return False
    if op == "exists":
        return True
    assert expected is not None
    if op == "=":
        return actual == expected
    if op == "*=":
        return expected in actual
    if op == "^=":
        return bool(expected) and actual.startswith(expected)
    if op == "$=":
        return bool(expected) and actual.endswith(expected)
    if op == "~=":
        return expected in actual.split()
    raise SelectorError(f"unknown attribute operator {op!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_selector(selector: str) -> List[List[_Step]]:
    """Parse a selector group into a list of step chains."""
    if not selector or not selector.strip():
        raise SelectorError("empty selector")
    chains = []
    for part in _split_top_level(selector, ","):
        chains.append(_parse_chain(part.strip()))
    return chains


def _split_top_level(text: str, sep: str) -> List[str]:
    """Split on *sep* outside brackets/parens."""
    out: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise SelectorError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            out.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise SelectorError(f"unbalanced brackets in {text!r}")
    out.append("".join(current))
    return out


def _parse_chain(text: str) -> List[_Step]:
    if not text:
        raise SelectorError("empty selector in group")
    tokens = _tokenize_chain(text)
    steps: List[_Step] = []
    combinator = ""
    for token in tokens:
        if token in (" ", ">"):
            if not steps or combinator:
                raise SelectorError(f"misplaced combinator in {text!r}")
            combinator = token
            continue
        step = _parse_compound(token)
        step.combinator = combinator if steps else ""
        if steps and not step.combinator:
            step.combinator = " "
        steps.append(step)
        combinator = ""
    if combinator:
        raise SelectorError(f"dangling combinator in {text!r}")
    if not steps:
        raise SelectorError(f"no compound selectors in {text!r}")
    return steps


def _tokenize_chain(text: str) -> List[str]:
    """Split a chain into compound selectors and combinators."""
    tokens: List[str] = []
    current: List[str] = []
    depth = 0
    pending_space = False
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch.isspace():
            pending_space = True
            continue
        if depth == 0 and ch == ">":
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(">")
            pending_space = False
            continue
        if pending_space:
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(" ")
            pending_space = False
        current.append(ch)
    if current:
        tokens.append("".join(current))
    # Collapse "  >  " sequences: space tokens adjacent to ">" are dropped.
    cleaned: List[str] = []
    for token in tokens:
        if token == " " and cleaned and cleaned[-1] == ">":
            continue
        if token == ">" and cleaned and cleaned[-1] == " ":
            cleaned[-1] = ">"
            continue
        cleaned.append(token)
    return cleaned


def _parse_compound(text: str) -> _Step:
    step = _Step(combinator="")
    i = 0
    n = len(text)
    if not text:
        raise SelectorError("empty compound selector")
    # Leading type or universal selector.
    if text[0] not in "#.[:":
        j = i
        while j < n and (text[j].isalnum() or text[j] in "-_*"):
            j += 1
        if j == i:
            raise SelectorError(f"cannot parse selector {text!r}")
        step.tag = text[i:j].lower()
        i = j
    while i < n:
        ch = text[i]
        if ch == "#":
            j = _ident_end(text, i + 1)
            if j == i + 1:
                raise SelectorError(f"empty id selector in {text!r}")
            step.element_id = text[i + 1:j]
            i = j
        elif ch == ".":
            j = _ident_end(text, i + 1)
            if j == i + 1:
                raise SelectorError(f"empty class selector in {text!r}")
            step.classes.append(text[i + 1:j])
            i = j
        elif ch == "[":
            j = text.find("]", i)
            if j < 0:
                raise SelectorError(f"unterminated attribute selector {text!r}")
            step.attrs.append(_parse_attr(text[i + 1:j]))
            i = j + 1
        elif ch == ":":
            if not text.startswith(":not(", i):
                raise SelectorError(f"unsupported pseudo-class in {text!r}")
            j = _find_matching_paren(text, i + 4)
            inner = text[i + 5:j]
            step.negations.append(_parse_compound(inner.strip()))
            i = j + 1
        else:
            raise SelectorError(f"unexpected character {ch!r} in {text!r}")
    return step


def _ident_end(text: str, start: int) -> int:
    j = start
    while j < len(text) and (text[j].isalnum() or text[j] in "-_"):
        j += 1
    return j


def _find_matching_paren(text: str, open_index: int) -> int:
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise SelectorError(f"unbalanced parentheses in {text!r}")


def _parse_attr(body: str) -> Tuple[str, str, Optional[str]]:
    body = body.strip()
    for op in ("*=", "^=", "$=", "~=", "="):
        if op in body:
            name, _, value = body.partition(op)
            value = value.strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            return name.strip().lower(), op, value
    return body.lower(), "exists", None


# ---------------------------------------------------------------------------
# Compiled selector plans
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2048)
def compile_selector(selector: str) -> List[List[_Step]]:
    """Parse *selector* once and cache the step chains (module-level).

    The crawler evaluates the same small set of selectors (cosmetic
    filters, effect targets, BannerClick lookups) on every visit;
    compiling once turns the per-query parse into a dict hit.  The
    cached chains are shared — callers must never mutate them.
    """
    return parse_selector(selector)


def _chains_for(selector: str) -> List[List[_Step]]:
    if perf.config.selector_index:
        return compile_selector(selector)
    return parse_selector(selector)


# ---------------------------------------------------------------------------
# Per-document query index
# ---------------------------------------------------------------------------

class _QueryIndex:
    """Tag/id/class buckets over one document's (non-pierced) tree.

    Built in one document-order walk and revalidated against the
    document's mutation revision; bucket lists are document-ordered, so
    queries served from a bucket come back in the same order a full
    walk would produce.  Shadow trees and iframe documents are *not*
    indexed — exactly the subtrees ``querySelectorAll`` cannot see
    (iframe content documents get their own index).
    """

    __slots__ = ("revision", "order", "all_elements", "by_id", "by_class", "by_tag")

    def __init__(self, document: Document) -> None:
        self.revision = document.revision
        self.order: Dict[Element, int] = {}
        self.all_elements: List[Element] = []
        self.by_id: Dict[str, List[Element]] = {}
        self.by_class: Dict[str, List[Element]] = {}
        self.by_tag: Dict[str, List[Element]] = {}
        seq = 0
        for node in document.descendants():
            if not isinstance(node, Element):
                continue
            self.order[node] = seq
            seq += 1
            self.all_elements.append(node)
            self.by_tag.setdefault(node.tag, []).append(node)
            element_id = node.attrs.get("id")
            if element_id:
                self.by_id.setdefault(element_id, []).append(node)
            class_attr = node.attrs.get("class")
            if class_attr:
                # dict.fromkeys dedupes repeated class names ("ad ad")
                # so no bucket lists an element twice.
                for name in dict.fromkeys(class_attr.split()):
                    self.by_class.setdefault(name, []).append(node)

    def candidates(self, step: _Step) -> List[Element]:
        """A document-ordered superset of the step's possible matches.

        Picks the most selective bucket the compound selector allows
        (id, then rarest class, then tag); compounds with none of those
        fall back to the full element list.
        """
        if step.element_id is not None:
            return self.by_id.get(step.element_id, [])
        if step.classes:
            best: Optional[List[Element]] = None
            for name in step.classes:
                bucket = self.by_class.get(name)
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
            return best if best is not None else []
        if step.tag not in (None, "*"):
            return self.by_tag.get(step.tag, [])
        return self.all_elements


def _usable_index(root: Node) -> Optional[Tuple[_QueryIndex, Optional[Element]]]:
    """The (index, scope) pair serving queries rooted at *root*, or None.

    *scope* is None when the root is the document itself (no
    containment filter needed).  Returns None — meaning "walk instead"
    — when indexing is disabled, the root's tree top is not a
    :class:`Document` (detached subtrees, shadow trees), or the root
    is not part of the indexed tree.
    """
    if not perf.config.selector_index:
        return None
    top = root
    while top.parent is not None:
        top = top.parent
    if not isinstance(top, Document):
        return None
    index = top._query_index
    if index is None or index.revision != top.revision:
        index = _QueryIndex(top)
        top._query_index = index
    if root is top:
        return index, None
    if isinstance(root, Element) and root in index.order:
        return index, root
    return None


def first_element_by_id(document: Document, element_id: str) -> Optional[Element]:
    """Document-order first element whose ``id`` equals *element_id*.

    Serves ``Document.get_element_by_id`` from the id bucket when the
    index is usable; empty ids (which only match elements *without* an
    id attribute) and un-indexed roots fall back to the walk.
    """
    if element_id:
        info = _usable_index(document)
        if info is not None:
            index, _ = info
            bucket = index.by_id.get(element_id, ())
            return bucket[0] if bucket else None
    for el in document.elements():
        if el.id == element_id:
            return el
    return None


def iter_elements_by_tags(root: Node, tags) -> List[Element]:
    """Document-order elements under *root* whose tag is in *tags*.

    BannerClick's container and button scans run through this.  It is
    one filtered walk and never reads or builds the document's
    :class:`_QueryIndex`: a detection would build that index only to
    answer this one scan, and a fresh index is almost never there to
    reuse (40 of 18,742 scans in a seed-1 ``verify``).
    """
    return [el for el in root.elements() if el.tag in tags]


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def matches_selector(element: Element, selector: str) -> bool:
    """True when *element* matches any chain in the selector group."""
    chains = _chains_for(selector)
    return any(_match_chain(element, chain) for chain in chains)


def _match_chain(element: Element, chain: List[_Step]) -> bool:
    if not chain[-1].matches(element):
        return False
    return _match_left(element, chain, len(chain) - 2)


def _match_left(element: Element, chain: List[_Step], index: int) -> bool:
    if index < 0:
        return True
    step = chain[index]
    right_combinator = chain[index + 1].combinator
    parent = element.parent
    if right_combinator == ">":
        if isinstance(parent, Element) and step.matches(parent):
            return _match_left(parent, chain, index - 1)
        return False
    # Descendant combinator: try every ancestor.
    node: Optional[Node] = parent
    while node is not None:
        if isinstance(node, Element) and step.matches(node):
            if _match_left(node, chain, index - 1):
                return True
        node = node.parent
    return False


def query_selector_all(root: Node, selector: str) -> List[Element]:
    """All elements under *root* matching the selector (document order).

    Shadow roots and iframe documents are *not* entered, matching
    ``querySelectorAll`` semantics.  When the root's document has a
    valid query index, candidates come from the most selective
    id/class/tag bucket instead of a full-tree walk.
    """
    chains = _chains_for(selector)
    info = _usable_index(root)
    if info is None:
        return [
            element
            for element in _iter_elements(root)
            if any(_match_chain(element, chain) for chain in chains)
        ]
    index, scope = info
    if len(chains) == 1:
        chain = chains[0]
        return [
            el
            for el in index.candidates(chain[-1])
            if (scope is None or el._has_ancestor(scope))
            and _match_chain(el, chain)
        ]
    matched: Dict[Element, int] = {}
    for chain in chains:
        for el in index.candidates(chain[-1]):
            if el in matched:
                continue
            if scope is not None and not el._has_ancestor(scope):
                continue
            if _match_chain(el, chain):
                matched[el] = index.order[el]
    return sorted(matched, key=matched.__getitem__)


def query_selector(root: Node, selector: str) -> Optional[Element]:
    """First match of :func:`query_selector_all`, or None.

    Early-exits: the indexed path stops at each chain's first
    document-order candidate, the walk path stops at the first match —
    neither materialises the full result list.
    """
    chains = _chains_for(selector)
    info = _usable_index(root)
    if info is None:
        for element in _iter_elements(root):
            if any(_match_chain(element, chain) for chain in chains):
                return element
        return None
    index, scope = info
    best: Optional[Element] = None
    best_seq = -1
    for chain in chains:
        for el in index.candidates(chain[-1]):
            if scope is not None and not el._has_ancestor(scope):
                continue
            if _match_chain(el, chain):
                seq = index.order[el]
                if best is None or seq < best_seq:
                    best, best_seq = el, seq
                break  # bucket is document-ordered: first hit is the chain's min
    return best


def _iter_elements(root: Node) -> Iterator[Element]:
    for node in root.descendants():
        if isinstance(node, Element):
            yield node
