"""CrUX-like country toplists with rank buckets (paper §3, §4.1).

Google's CrUX does not expose exact ranks, only buckets (top 1k, top
10k, ...); the paper's popularity analysis (§4.1) relies on exactly
that.  A :class:`Toplist` therefore stores an ordered list of domains
and exposes bucket membership, not ranks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

BUCKET_TOP1K = "top1k"
BUCKET_TOP10K = "top10k"


class Toplist:
    """One country's ranked domain list, bucketed CrUX-style."""

    def __init__(self, country: str, entries: Iterable[str], top_bucket: int) -> None:
        self.country = country
        self._entries: List[str] = list(entries)
        self.top_bucket = top_bucket
        self._index: Dict[str, int] = {
            domain: i for i, domain in enumerate(self._entries)
        }
        if len(self._index) != len(self._entries):
            raise ValueError(f"duplicate entries in {country} toplist")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, domain: object) -> bool:
        return domain in self._index

    def domains(self, bucket: Optional[str] = None) -> List[str]:
        """All domains, optionally restricted to one bucket."""
        if bucket is None:
            return list(self._entries)
        if bucket == BUCKET_TOP1K:
            return self._entries[: self.top_bucket]
        if bucket == BUCKET_TOP10K:
            return list(self._entries)
        raise ValueError(f"unknown bucket {bucket!r}")

    def bucket_of(self, domain: str) -> Optional[str]:
        """The bucket a domain falls in, or None if unlisted.

        Note: like CrUX, the top-10k bucket *contains* the top-1k one;
        this returns the most specific bucket.
        """
        index = self._index.get(domain)
        if index is None:
            return None
        return BUCKET_TOP1K if index < self.top_bucket else BUCKET_TOP10K


def union_of(toplists: Iterable[Toplist]) -> List[str]:
    """The deduplicated union of several toplists (stable order)."""
    seen: Set[str] = set()
    out: List[str] = []
    for toplist in toplists:
        for domain in toplist.domains():
            if domain not in seen:
                seen.add(domain)
                out.append(domain)
    return out
