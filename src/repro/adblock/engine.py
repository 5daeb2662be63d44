"""The filter engine: network blocking decisions + cosmetic selectors.

Two implementations share one behaviour contract:

- :class:`FilterEngine` — the indexed engine the crawler uses.  Host
  anchors (``||domain^``) live in a reversed-label hostname trie,
  substring/wildcard filters in URL token buckets (uBlock's trick:
  index each filter under a literal token every matching URL must
  contain), both partitioned by resource type; cosmetic filters sit in
  a host-keyed domain index behind a small LRU.  A request only ever
  touches the few filters its host labels and URL tokens select.
- :class:`NaiveFilterEngine` — the original O(filters) linear scan,
  kept as the differential-testing oracle.  The randomized suite in
  ``tests/test_hotpaths_differential.py`` holds both engines to
  identical answers.

Shared semantics (both engines, verified differentially):

- exception (``@@``) filters always win over block filters;
- among several matching filters, the earliest-added one decides;
- ``hit_counts`` (the uBlock logger) is incremented **once per
  decision** — only :meth:`should_block` counts, the introspection
  helpers :meth:`matching_filter` / :meth:`explain` never do, so a
  caller logging the decisive filter after a block does not inflate
  the ranking — and increments are lock-protected so a shared engine
  under the parallel executor cannot drop counts.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.adblock.filters import (
    TOKEN_RE,
    CosmeticFilter,
    NetworkFilter,
    good_filter_tokens,
    parse_filter_list,
)
from repro.httpkit import Request
from repro.lru import LockedLRU

#: Entries are (sequence, filter) — sequence is the add order, which is
#: also the precedence order among multiple matches.
_Entry = Tuple[int, NetworkFilter]

#: LRU size for the per-host cosmetic selector cache.
_COSMETIC_CACHE_SIZE = 512

#: Bounds for the module-level parsed-list / compiled-index caches.
_PARSE_CACHE_SIZE = 64
_COMPILED_CACHE_SIZE = 32


_parse_cache: LockedLRU = LockedLRU(_PARSE_CACHE_SIZE)


def _parse_list_cached(text: str) -> Tuple[str, List[NetworkFilter], List[CosmeticFilter]]:
    """Parse a filter list once per distinct text (shared across engines).

    The crawler builds a fresh uBlock instance per visit — with a
    full-scale list that made list *parsing* the dominant per-visit
    cost for every engine.  Parsed filters are immutable after
    construction, so engines can share them; callers must not mutate
    the returned lists.  Returns (digest, network, cosmetic); the
    digest keys the compiled-index cache.
    """
    digest = hashlib.sha1(text.encode("utf-8")).hexdigest()
    hit = _parse_cache.get(digest)
    if hit is not None:
        return hit
    network, cosmetic = parse_filter_list(text)
    entry = (digest, network, cosmetic)
    _parse_cache.put(digest, entry)
    return entry


class _EngineCore:
    """Loading, hit accounting, and the decision API both engines share."""

    def __init__(self) -> None:
        self._block: List[NetworkFilter] = []
        self._allow: List[NetworkFilter] = []
        self._hide: List[CosmeticFilter] = []
        self._unhide: List[CosmeticFilter] = []
        #: Per-filter hit counts (the uBlock logger), raw line -> hits.
        #: Mutated only under ``_hits_lock``.
        self.hit_counts: Counter = Counter()
        self._hits_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def add_list(self, text: str) -> None:
        """Parse and add one filter list (parses are shared and cached)."""
        digest, network, cosmetic = _parse_list_cached(text)
        for nf in network:
            (self._allow if nf.is_exception else self._block).append(nf)
        for cf in cosmetic:
            (self._unhide if cf.is_exception else self._hide).append(cf)
        self._lists_changed(digest, network, cosmetic)

    # Indexed subclass hook (no-op for the naive engine).
    def _lists_changed(
        self,
        digest: str,
        network: List[NetworkFilter],
        cosmetic: List[CosmeticFilter],
    ) -> None:
        pass

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self, request: Request) -> Optional[NetworkFilter]:
        """The decisive filter: a matching exception, else a matching
        block filter, else None.  Implemented by each engine."""
        raise NotImplementedError

    def should_block(self, request: Request) -> bool:
        """True when a block filter matches and no exception overrides.

        This is the decision entry point: the decisive filter's hit
        count is incremented here, exactly once.
        """
        decisive = self._decide(request)
        if decisive is None:
            return False
        with self._hits_lock:
            self.hit_counts[decisive.raw] += 1
        return not decisive.is_exception

    def matching_filter(self, request: Request) -> Optional[NetworkFilter]:
        """The block filter responsible for blocking, or None.

        Pure introspection: does not touch ``hit_counts`` (so callers
        combining it with :meth:`should_block` don't double-count).
        """
        decisive = self._decide(request)
        if decisive is None or decisive.is_exception:
            return None
        return decisive

    def explain(self, request: Request) -> Optional[str]:
        """The raw filter line that would block this request, or None.

        Pure introspection, like :meth:`matching_filter`.
        """
        matched = self.matching_filter(request)
        return matched.raw if matched is not None else None

    def cosmetic_selectors(self, host: str) -> List[str]:
        """CSS selectors to hide on *host* (minus exceptions)."""
        raise NotImplementedError


class NaiveFilterEngine(_EngineCore):
    """The original linear-scan matcher — the differential-test oracle."""

    def _decide(self, request: Request) -> Optional[NetworkFilter]:
        for allow in self._allow:
            if allow.matches(request):
                return allow
        for block in self._block:
            if block.matches(request):
                return block
        return None

    def cosmetic_selectors(self, host: str) -> List[str]:
        excluded = {
            cf.selector for cf in self._unhide if cf.applies_to(host)
        }
        out: List[str] = []
        for cf in self._hide:
            if cf.applies_to(host) and cf.selector not in excluded:
                out.append(cf.selector)
        return out


# ---------------------------------------------------------------------------
# The indexed engine
# ---------------------------------------------------------------------------

class _TypedEntries:
    """Entries partitioned by resource type ('' = applies to any type)."""

    __slots__ = ("by_type",)

    def __init__(self) -> None:
        self.by_type: Dict[str, List[_Entry]] = {}

    def add(self, entry: _Entry) -> None:
        nf = entry[1]
        for key in (nf.resource_types or ("",)):
            self.by_type.setdefault(key, []).append(entry)

    def lists_for(self, resource_type: str):
        typed = self.by_type.get(resource_type)
        if typed:
            yield typed
        generic = self.by_type.get("")
        if generic:
            yield generic


class _NetworkIndex:
    """One partition (allow or block) of the indexed network filters."""

    __slots__ = ("_trie", "_token_buckets", "_catchall")

    def __init__(self) -> None:
        #: Reversed-label hostname trie; the ``None`` key of a node
        #: holds the entries anchored at that exact domain.
        self._trie: Dict = {}
        self._token_buckets: Dict[str, _TypedEntries] = {}
        self._catchall = _TypedEntries()

    def add(self, entry: _Entry) -> None:
        nf = entry[1]
        if nf.anchor_domain is not None:
            node = self._trie
            for label in reversed(nf.anchor_domain.rstrip(".").split(".")):
                node = node.setdefault(label, {})
            terminal = node.get(None)
            if terminal is None:
                terminal = node[None] = _TypedEntries()
            terminal.add(entry)
            return
        tokens = good_filter_tokens(nf.pattern or "")
        if tokens:
            # The longest good token is the most selective bucket key.
            self._token_buckets.setdefault(
                max(tokens, key=len), _TypedEntries()
            ).add(entry)
        else:
            self._catchall.add(entry)

    def first_match(
        self, request: Request, url_text: str, host_labels: List[str]
    ) -> Optional[NetworkFilter]:
        """The earliest-added filter in this partition matching *request*.

        Candidate lists are add-ordered, so the first match within each
        list is that list's minimum; the overall winner is the minimum
        across the trie path, the URL's token buckets, and the
        catch-all bucket.
        """
        best: Optional[NetworkFilter] = None
        best_seq = -1
        rtype = request.resource_type
        third_party = request.is_third_party

        def consider(entries: _TypedEntries) -> None:
            nonlocal best, best_seq
            for candidates in entries.lists_for(rtype):
                for seq, nf in candidates:
                    if best is not None and seq >= best_seq:
                        break
                    if (
                        nf.third_party is not None
                        and third_party != nf.third_party
                    ):
                        continue
                    if nf.matches(request):
                        best, best_seq = nf, seq
                        break

        node = self._trie
        for label in reversed(host_labels):
            node = node.get(label)
            if node is None:
                break
            terminal = node.get(None)
            if terminal is not None:
                consider(terminal)
        seen = set()
        for token in TOKEN_RE.findall(url_text):
            if token in seen:
                continue
            seen.add(token)
            bucket = self._token_buckets.get(token)
            if bucket is not None:
                consider(bucket)
        consider(self._catchall)
        return best


class _CompiledFilters:
    """Immutable compiled form of a *sequence* of filter lists.

    Holds the network trie/token indexes and the cosmetic domain index
    plus its per-host LRU.  Compiled sets are pure functions of the
    list texts, so they are cached module-wide and shared by every
    engine loading the same lists — the crawler builds a fresh uBlock
    per visit, and without this sharing each construction would
    re-index (and before that re-parse) tens of thousands of rules.
    Mutable per-engine state (``hit_counts``) stays on the engine.
    """

    __slots__ = (
        "allow_index", "block_index",
        "_generic_hide", "_generic_unhide",
        "_hide_by_domain", "_unhide_by_domain",
        "_cosmetic_cache",
    )

    def __init__(
        self,
        network_lists: List[List[NetworkFilter]],
        cosmetic_lists: List[List[CosmeticFilter]],
    ) -> None:
        self.allow_index = _NetworkIndex()
        self.block_index = _NetworkIndex()
        # Cosmetic index: generic filters apply everywhere; domain-
        # bound filters are keyed under each of their domains and found
        # by enumerating the host's label-aligned suffixes.
        self._generic_hide: List[Tuple[int, CosmeticFilter]] = []
        self._generic_unhide: List[Tuple[int, CosmeticFilter]] = []
        self._hide_by_domain: Dict[str, List[Tuple[int, CosmeticFilter]]] = {}
        self._unhide_by_domain: Dict[str, List[Tuple[int, CosmeticFilter]]] = {}
        self._cosmetic_cache: LockedLRU = LockedLRU(_COSMETIC_CACHE_SIZE)
        seq = 0
        for network in network_lists:
            for nf in network:
                seq += 1
                (self.allow_index if nf.is_exception else self.block_index).add(
                    (seq, nf)
                )
        for cosmetic in cosmetic_lists:
            for cf in cosmetic:
                seq += 1
                self._add_cosmetic((seq, cf))

    def _add_cosmetic(self, entry: Tuple[int, CosmeticFilter]) -> None:
        cf = entry[1]
        if cf.is_exception:
            generic, by_domain = self._generic_unhide, self._unhide_by_domain
        else:
            generic, by_domain = self._generic_hide, self._hide_by_domain
        if not cf.domains:
            generic.append(entry)
        else:
            for domain in cf.domains:
                by_domain.setdefault(domain.rstrip("."), []).append(entry)

    # ------------------------------------------------------------------
    @staticmethod
    def _candidates(
        suffixes: List[str],
        generic: List[Tuple[int, CosmeticFilter]],
        by_domain: Dict[str, List[Tuple[int, CosmeticFilter]]],
    ) -> Dict[int, CosmeticFilter]:
        # Every candidate found this way *applies* to the host: generic
        # filters always do, and a domain-keyed hit means the key is a
        # label-aligned suffix of the host (= is_subdomain_of).
        found = dict(generic)
        for suffix in suffixes:
            for seq, cf in by_domain.get(suffix, ()):
                found[seq] = cf
        return found

    def cosmetic_selectors(self, host: str) -> List[str]:
        norm = host.lower().rstrip(".")
        cached = self._cosmetic_cache.get(norm)
        if cached is not None:
            return list(cached)
        labels = norm.split(".")
        suffixes = [".".join(labels[i:]) for i in range(len(labels))]
        excluded = {
            cf.selector
            for cf in self._candidates(
                suffixes, self._generic_unhide, self._unhide_by_domain
            ).values()
        }
        hide = self._candidates(
            suffixes, self._generic_hide, self._hide_by_domain
        )
        out = tuple(
            cf.selector
            for _, cf in sorted(hide.items())
            if cf.selector not in excluded
        )
        self._cosmetic_cache.put(norm, out)
        return list(out)


_compiled_cache: LockedLRU = LockedLRU(_COMPILED_CACHE_SIZE)


class FilterEngine(_EngineCore):
    """The indexed engine: trie + token buckets + cosmetic host index.

    Behaviourally identical to :class:`NaiveFilterEngine` (the
    randomized differential suite enforces it); asymptotically a
    request touches O(host labels + URL tokens) buckets instead of
    every filter.  Compilation is lazy and shared: the first decision
    after loading lists compiles (or fetches from the module cache) the
    indexes for that exact list sequence.
    """

    def __init__(self) -> None:
        super().__init__()
        self._digests: List[str] = []
        self._network_lists: List[List[NetworkFilter]] = []
        self._cosmetic_lists: List[List[CosmeticFilter]] = []
        self._compiled: Optional[_CompiledFilters] = None

    def _lists_changed(
        self,
        digest: str,
        network: List[NetworkFilter],
        cosmetic: List[CosmeticFilter],
    ) -> None:
        # These hold the same filter objects the base class just
        # appended to _block/_allow/_hide/_unhide, grouped per list so
        # the digest tuple can key the compiled-index cache.  Any
        # change to the base partitioning must keep the two views in
        # step (the differential suite compares against the naive
        # engine, which reads only the base lists).
        self._digests.append(digest)
        self._network_lists.append(network)
        self._cosmetic_lists.append(cosmetic)
        self._compiled = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _ensure_compiled(self) -> _CompiledFilters:
        compiled = self._compiled
        if compiled is None:
            key = tuple(self._digests)
            compiled = _compiled_cache.get(key)
            if compiled is None:
                compiled = _CompiledFilters(
                    self._network_lists, self._cosmetic_lists
                )
                _compiled_cache.put(key, compiled)
            self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self, request: Request) -> Optional[NetworkFilter]:
        compiled = self._ensure_compiled()
        url_text = str(request.url)
        host_labels = request.url.host.rstrip(".").split(".")
        allow = compiled.allow_index.first_match(request, url_text, host_labels)
        if allow is not None:
            return allow
        return compiled.block_index.first_match(request, url_text, host_labels)

    def cosmetic_selectors(self, host: str) -> List[str]:
        return self._ensure_compiled().cosmetic_selectors(host)
