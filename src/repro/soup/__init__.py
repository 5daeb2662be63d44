"""HTML parsing and a BeautifulSoup-like querying API.

The paper's pipeline uses BeautifulSoup to pull the visible text out of
banner subtrees before running the cookiewall word search.  This package
provides the equivalent, end to end:

- :mod:`repro.soup.tokenizer` — an HTML5-ish tokenizer,
- :mod:`repro.soup.parser` — a forgiving tree builder producing
  :class:`repro.dom.Document` trees (including declarative shadow DOM
  via ``<template shadowrootmode>`` and iframes via ``srcdoc``),
- :mod:`repro.soup.api` — ``Soup`` with ``find`` / ``find_all`` /
  ``get_text`` / ``select``.
"""

from repro.soup.api import Soup
from repro.soup.cache import DocumentCache, shared_document_cache
from repro.soup.parser import parse_document, parse_fragment

__all__ = [
    "Soup",
    "parse_document",
    "parse_fragment",
    "DocumentCache",
    "shared_document_cache",
]
