"""A tiny XPath engine covering the expressions BannerClick issues.

Supported forms::

    //button
    //*
    //div//button
    /html/body/div
    //button[@id='accept']
    //div[contains(@class, 'cookie')]
    //button[contains(text(), 'Accept')]
    //button[text()='OK']
    //div[@class='x'][contains(text(), 'y')]      (conjunction)

Like real browser XPath, the engine does **not** descend into shadow
roots or iframe documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dom.node import Element, Node, Text
from repro.errors import SelectorError


@dataclass
class _Predicate:
    kind: str  # "attr-eq", "attr-contains", "text-eq", "text-contains"
    name: Optional[str]
    value: str

    def test(self, element: Element) -> bool:
        if self.kind == "attr-eq":
            return element.get_attribute(self.name or "") == self.value
        if self.kind == "attr-contains":
            actual = element.get_attribute(self.name or "")
            return actual is not None and self.value in actual
        own_text = _own_text(element)
        if self.kind == "text-eq":
            return own_text.strip() == self.value
        if self.kind == "text-contains":
            return self.value in own_text
        raise SelectorError(f"unknown predicate kind {self.kind!r}")


@dataclass
class _XStep:
    axis: str  # "child" (/) or "descendant" (//)
    tag: str  # element name or "*"
    predicates: List[_Predicate] = field(default_factory=list)

    def node_matches(self, element: Element) -> bool:
        if self.tag != "*" and element.tag != self.tag:
            return False
        return all(p.test(element) for p in self.predicates)


_STEP_RE = re.compile(r"(//|/)([a-zA-Z][\w-]*|\*)((?:\[[^\]]*\])*)")
_PRED_RE = re.compile(r"\[([^\]]*)\]")


def parse_xpath(expression: str) -> List[_XStep]:
    expression = expression.strip()
    if not expression or expression[0] != "/":
        raise SelectorError(f"only absolute XPath supported: {expression!r}")
    steps: List[_XStep] = []
    pos = 0
    while pos < len(expression):
        match = _STEP_RE.match(expression, pos)
        if match is None:
            raise SelectorError(f"cannot parse XPath at {expression[pos:]!r}")
        axis = "descendant" if match.group(1) == "//" else "child"
        tag = match.group(2).lower()
        predicates = [
            _parse_predicate(p) for p in _PRED_RE.findall(match.group(3))
        ]
        steps.append(_XStep(axis=axis, tag=tag, predicates=predicates))
        pos = match.end()
    if pos != len(expression):
        raise SelectorError(f"trailing junk in XPath {expression!r}")
    return steps


def _parse_predicate(body: str) -> _Predicate:
    body = body.strip()
    contains = re.fullmatch(
        r"contains\(\s*(@[\w-]+|text\(\))\s*,\s*(['\"])(.*?)\2\s*\)", body
    )
    if contains:
        subject, _, value = contains.groups()
        if subject == "text()":
            return _Predicate("text-contains", None, value)
        return _Predicate("attr-contains", subject[1:].lower(), value)
    equality = re.fullmatch(r"(@[\w-]+|text\(\))\s*=\s*(['\"])(.*?)\2", body)
    if equality:
        subject, _, value = equality.groups()
        if subject == "text()":
            return _Predicate("text-eq", None, value)
        return _Predicate("attr-eq", subject[1:].lower(), value)
    raise SelectorError(f"unsupported XPath predicate [{body}]")


def _own_text(element: Element) -> str:
    return " ".join(
        child.data.strip() for child in element.children
        if isinstance(child, Text) and child.data.strip()
    )


def xpath_all(root: Node, expression: str) -> List[Element]:
    """Evaluate *expression* against *root*, returning matching elements."""
    steps = parse_xpath(expression)
    current: List[Node] = [root]
    for step in steps:
        next_nodes: List[Node] = []
        seen = set()
        for node in current:
            candidates = (
                node.elements() if step.axis == "descendant"
                else (c for c in node.children if isinstance(c, Element))
            )
            for el in candidates:
                if step.node_matches(el) and id(el) not in seen:
                    seen.add(id(el))
                    next_nodes.append(el)
        current = next_nodes
        if not current:
            break
    return [n for n in current if isinstance(n, Element)]
