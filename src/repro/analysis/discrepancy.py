"""Streaming geo-discrepancy report for multi-vantage campaigns.

The paper's headline result is vantage-dependent: accept-or-pay walls
appear for EU vantage points and mostly vanish outside the EU.  A
multi-vantage campaign visits every domain from N vantage points over
one or more waves; this module answers *how* the vantage points
disagree, domain by domain:

- **wall presence** — walls shown at some VPs but not others, and
  walls appearing/disappearing between waves;
- **price and currency** — :func:`repro.pricing.extract_price` over
  the wall text, spread and currency mix across VPs;
- **TCF strings** — the CMP consent string a banner's accept button
  would persist, diverging or missing at some VPs;
- **third-party cookie sets** — the distinct third-party sites that
  set cookies during the visit, diverging across VPs;
- **geo-blocking** — visits refused with ``error="GeoBlocked"``.

The report is single-pass and never materialises record lists: state
is one small per-domain aggregate (cross-VP *reductions* — counters,
:class:`~repro.analysis.stats.OnlineStats`, distinct-value sets — not
per-VP values) plus per-``(wave, vp)`` counters, so peak memory is
bounded by the domain population and stays flat as vantage points are
added.  Feed it with :meth:`StreamingDiscrepancyReport.add` from any
record stream (``RunResult.iter_records``, ``iter_records`` over wave
spools); identical streams produce identical reports.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.stats import OnlineStats
from repro.pricing import extract_price
from repro.vantage import VANTAGE_POINTS, VP_ORDER

#: Example domains kept per discrepancy category (first seen wins).
_EXAMPLE_LIMIT = 5


def _cookie_digest(sites: Iterable[str]) -> str:
    """A short stable digest of a third-party cookie-site set."""
    joined = "\x00".join(sorted(sites))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:12]


class _DomainDelta:
    """Cross-VP/cross-wave aggregate for one domain (bounded state)."""

    __slots__ = (
        "visits", "visits_by_wave", "walls_by_wave", "consent_ui",
        "tcf_seen", "tcf_strings", "price", "currencies",
        "cookie_visits", "cookie_digests",
    )

    def __init__(self) -> None:
        self.visits = 0                       # reachable visits, all waves
        self.visits_by_wave: Dict[int, int] = {}
        self.walls_by_wave: Dict[int, int] = {}
        self.consent_ui = 0                   # visits showing wall or banner
        self.tcf_seen = 0                     # ... of which offered a TC string
        self.tcf_strings: Set[str] = set()
        self.price = OnlineStats()            # monthly EUR cents
        self.currencies: Set[str] = set()
        self.cookie_visits = 0                # visits with 3p cookies
        self.cookie_digests: Set[str] = set()


class StreamingDiscrepancyReport:
    """Per-domain deltas across vantage points and waves, one pass."""

    def __init__(self) -> None:
        self.record_count = 0
        self._domains: Dict[str, _DomainDelta] = {}
        self._vps: Set[str] = set()
        self._waves: Set[int] = set()
        self._visits: Dict[Tuple[int, str], int] = {}
        self._walls: Dict[Tuple[int, str], int] = {}
        self._blocked: Dict[Tuple[int, str], int] = {}
        self._unreachable: Dict[Tuple[int, str], int] = {}
        self._cookies: Dict[Tuple[int, str], OnlineStats] = {}
        self._prices: Dict[Tuple[int, str], OnlineStats] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add(self, record, wave: int = 0) -> "StreamingDiscrepancyReport":
        """Absorb one detection record observed in *wave*."""
        if getattr(record, "is_cookiewall", None) is None:
            return self          # not a detection record (e.g. cookie run)
        self.record_count += 1
        wave = int(wave)
        vp = record.vp
        key = (wave, vp)
        self._vps.add(vp)
        self._waves.add(wave)
        if not record.reachable:
            bucket = (
                self._blocked if record.error == "GeoBlocked"
                else self._unreachable
            )
            bucket[key] = bucket.get(key, 0) + 1
            return self
        self._visits[key] = self._visits.get(key, 0) + 1
        state = self._domains.get(record.domain)
        if state is None:
            state = self._domains[record.domain] = _DomainDelta()
        state.visits += 1
        state.visits_by_wave[wave] = state.visits_by_wave.get(wave, 0) + 1
        flags = record.flags or {}
        if record.is_cookiewall:
            self._walls[key] = self._walls.get(key, 0) + 1
            state.walls_by_wave[wave] = state.walls_by_wave.get(wave, 0) + 1
            price = extract_price(record.banner_text)
            if price is not None:
                state.price.add(price.monthly_eur_cents)
                state.currencies.add(price.currency)
                stats = self._prices.get(key)
                if stats is None:
                    stats = self._prices[key] = OnlineStats()
                stats.add(price.monthly_eur_cents)
        if record.banner_found or record.is_cookiewall:
            state.consent_ui += 1
            tcf = flags.get("tcf_accept")
            if tcf:
                state.tcf_seen += 1
                state.tcf_strings.add(str(tcf))
        third_party = flags.get("cookies_third_party") or ()
        stats = self._cookies.get(key)
        if stats is None:
            stats = self._cookies[key] = OnlineStats()
        stats.add(len(third_party))
        if third_party:
            state.cookie_visits += 1
            state.cookie_digests.add(_cookie_digest(third_party))
        return self

    def consume(self, records: Iterable, wave: int = 0) -> "StreamingDiscrepancyReport":
        """Absorb a whole record stream observed in *wave*."""
        for record in records:
            self.add(record, wave=wave)
        return self

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    @property
    def vps(self) -> Tuple[str, ...]:
        """Observed vantage points, in Table-1 order."""
        order = {code: index for index, code in enumerate(VP_ORDER)}
        return tuple(sorted(self._vps, key=lambda c: (order.get(c, 99), c)))

    @property
    def waves(self) -> Tuple[int, ...]:
        return tuple(sorted(self._waves))

    def wall_counts(self, wave: int = 0) -> Dict[str, int]:
        """Wall-showing visits per vantage point in *wave*."""
        return {vp: self._walls.get((wave, vp), 0) for vp in self.vps}

    def eu_delta(self, wave: int = 0) -> Dict[str, float]:
        """The paper-style EU vs non-EU wall-presence delta for *wave*."""
        eu, non_eu = [], []
        for vp in self.vps:
            walls = self._walls.get((wave, vp), 0)
            point = VANTAGE_POINTS.get(vp)
            (eu if point is not None and point.in_eu else non_eu).append(walls)
        eu_mean = sum(eu) / len(eu) if eu else 0.0
        non_eu_mean = sum(non_eu) / len(non_eu) if non_eu else 0.0
        return {
            "eu_mean": eu_mean,
            "non_eu_mean": non_eu_mean,
            "delta": eu_mean - non_eu_mean,
        }

    def discrepancies(self) -> Dict[str, Dict[str, object]]:
        """Per-category counts of discrepant domains, with examples.

        Categories: ``wall_partial`` (wall at some VPs only within a
        wave), ``wall_drift`` (wall presence changed between waves),
        ``price_spread`` (different prices), ``currency_mix``
        (different currencies), ``tcf_divergent`` (different TC
        strings, or a consent UI that only sometimes offers one),
        ``cookie_divergent`` (different third-party cookie sets).
        """
        out: Dict[str, Dict[str, object]] = {
            name: {"domains": 0, "examples": []}
            for name in (
                "wall_partial", "wall_drift", "price_spread",
                "currency_mix", "tcf_divergent", "cookie_divergent",
            )
        }

        def hit(name: str, domain: str) -> None:
            entry = out[name]
            entry["domains"] += 1
            examples: List[str] = entry["examples"]  # type: ignore[assignment]
            if len(examples) < _EXAMPLE_LIMIT:
                examples.append(domain)

        for domain, state in self._domains.items():
            walled_waves = {
                w for w, count in state.walls_by_wave.items() if count
            }
            if any(
                0 < state.walls_by_wave.get(w, 0) < state.visits_by_wave[w]
                for w in state.visits_by_wave
            ):
                hit("wall_partial", domain)
            if walled_waves and walled_waves != set(state.visits_by_wave):
                hit("wall_drift", domain)
            if state.price.count and state.price.max > state.price.min:
                hit("price_spread", domain)
            if len(state.currencies) > 1:
                hit("currency_mix", domain)
            if len(state.tcf_strings) > 1 or (
                state.tcf_seen and state.tcf_seen < state.consent_ui
            ):
                hit("tcf_divergent", domain)
            if len(state.cookie_digests) > 1 or (
                state.cookie_digests and state.cookie_visits < state.visits
            ):
                hit("cookie_divergent", domain)
        return out

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable digest of every product."""
        waves = {}
        for wave in self.waves:
            per_vp = {}
            for vp in self.vps:
                key = (wave, vp)
                cookies = self._cookies.get(key)
                prices = self._prices.get(key)
                per_vp[vp] = {
                    "visits": self._visits.get(key, 0),
                    "walls": self._walls.get(key, 0),
                    "geo_blocked": self._blocked.get(key, 0),
                    "unreachable": self._unreachable.get(key, 0),
                    "third_party_cookies_mean": (
                        cookies.mean if cookies and cookies.count else 0.0
                    ),
                    "wall_price_eur_mean": (
                        prices.mean / 100.0
                        if prices and prices.count else None
                    ),
                }
            waves[str(wave)] = {"vps": per_vp, "eu_delta": self.eu_delta(wave)}
        return {
            "records": self.record_count,
            "domains": len(self._domains),
            "vps": list(self.vps),
            "waves": waves,
            "discrepancies": {
                name: entry["domains"]
                for name, entry in self.discrepancies().items()
            },
        }

    def render(self) -> str:
        """The report as an ASCII table (stable across runs)."""
        lines = [
            f"Geo-discrepancy report ({self.record_count} records, "
            f"{len(self._domains)} domains, {len(self._vps)} VPs, "
            f"{len(self._waves)} waves)"
        ]
        for wave in self.waves:
            lines.append("")
            lines.append(f"wave month {wave}:")
            lines.append(
                "  vp    visits  walls  blocked  3p-cookies  price EUR"
            )
            for vp in self.vps:
                key = (wave, vp)
                cookies = self._cookies.get(key)
                prices = self._prices.get(key)
                cookie_mean = (
                    f"{cookies.mean:10.2f}"
                    if cookies and cookies.count else f"{'-':>10}"
                )
                price_mean = (
                    f"{prices.mean / 100.0:9.2f}"
                    if prices and prices.count else f"{'-':>9}"
                )
                lines.append(
                    f"  {vp:<5} {self._visits.get(key, 0):6d} "
                    f"{self._walls.get(key, 0):6d} "
                    f"{self._blocked.get(key, 0):8d} "
                    f"{cookie_mean}  {price_mean}"
                )
            delta = self.eu_delta(wave)
            lines.append(
                f"  EU mean {delta['eu_mean']:.1f} vs non-EU mean "
                f"{delta['non_eu_mean']:.1f} walls "
                f"(delta {delta['delta']:+.1f})"
            )
        lines.append("")
        lines.append("per-domain discrepancies (across VPs and waves):")
        labels = {
            "wall_partial": "wall shown at some VPs only",
            "wall_drift": "wall presence drifted across waves",
            "price_spread": "price differs across VPs/waves",
            "currency_mix": "currency differs across VPs/waves",
            "tcf_divergent": "TCF string diverges or is missing",
            "cookie_divergent": "third-party cookie sets diverge",
        }
        for name, entry in self.discrepancies().items():
            examples = ", ".join(entry["examples"])
            suffix = f"  e.g. {examples}" if examples else ""
            lines.append(
                f"  {labels[name]:<38} {entry['domains']:6d}{suffix}"
            )
        return "\n".join(lines)

