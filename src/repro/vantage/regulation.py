"""Privacy regulation regimes relevant to banner behaviour.

GDPR requires *opt-in* consent before storing personal data, so
GDPR-region visitors are shown consent banners.  CCPA is *opt-out*
(banners optional, often a small notice), LGPD sits in between.
Websites in the synthetic web use these regimes to decide whether to
render a banner/cookiewall for a visitor, mirroring the geo-dependent
behaviour the paper observed (EU vantage points see ~280 cookiewalls,
non-EU ones ~190-200).

Besides the per-vantage-point :class:`Regulation` enum, this module
defines the *scenario* knobs multi-vantage campaigns run under: a
:class:`RegulationScenario` bundles VPN-like relocations (a logical
vantage point whose traffic exits elsewhere, optionally only from a
given wave onward) with geo-blocking (wall sites refusing visitors
from a regulated region outright).  Scenarios serialise to a
JSON-stable mapping via :meth:`RegulationScenario.to_context`, which
is what campaign plans carry in ``CrawlPlan.context`` — so the active
scenario is covered by checkpoint fingerprints and travels unchanged
to worker processes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Tuple


class Regulation(enum.Enum):
    """A data protection regime in force at a vantage point."""

    GDPR = "gdpr"
    CCPA = "ccpa"
    LGPD = "lgpd"
    NONE = "none"


#: Named regulation regimes a multi-vantage campaign can run under.
#: ``baseline`` is the paper's setup (every VP browses from home);
#: ``eu`` routes all non-EU VPs through a German exit (walls appear
#: everywhere); ``non-eu`` routes the EU VPs through a US exit
#: (EU-only walls vanish); ``geo-blocked`` has wall sites refuse
#: GDPR-region visitors outright.
REGULATION_REGIMES: Tuple[str, ...] = (
    "baseline", "eu", "non-eu", "geo-blocked",
)


@dataclass(frozen=True)
class RegulationScenario:
    """Scenario knobs for a multi-vantage campaign.

    ``relocations`` maps a logical vantage point to the vantage point
    its traffic actually exits from (a VPN-like relocation): the visit
    record keeps the logical VP, the synthetic web sees the exit VP.
    ``relocate_from_month`` delays the relocations — waves before that
    month browse from home, so a mid-campaign relocation changes
    subsequent waves only.  ``geo_blocked`` names vantage points that
    accept-or-pay wall sites refuse to serve at all (the "451:
    unavailable for legal reasons" strategy some publishers chose);
    blocking applies to the *exit* vantage point, so a relocation out
    of a blocked region evades the block — and that is observable in
    the discrepancy report.
    """

    relocations: Tuple[Tuple[str, str], ...] = ()
    relocate_from_month: int = 0
    geo_blocked: FrozenSet[str] = frozenset()

    def validate(self) -> "RegulationScenario":
        """Check every referenced vantage-point code resolves."""
        from repro.vantage.points import get_vantage_point

        if self.relocate_from_month < 0:
            raise ValueError("relocate_from_month must be >= 0")
        for home, exit_code in self.relocations:
            get_vantage_point(home)
            get_vantage_point(exit_code)
        for code in self.geo_blocked:
            get_vantage_point(code)
        return self

    def exit_vp(self, vp_code: str, wave: int = 0) -> str:
        """The vantage point *vp_code*'s traffic exits from in *wave*."""
        if wave >= self.relocate_from_month:
            for home, exit_code in self.relocations:
                if home == vp_code:
                    return exit_code
        return vp_code

    def blocks(self, vp_code: str) -> bool:
        """True when wall sites refuse visitors exiting at *vp_code*."""
        return vp_code in self.geo_blocked

    def to_context(self) -> dict:
        """JSON-stable mapping for ``CrawlPlan.context`` (sorted keys,
        plain types), so identical scenarios fingerprint identically."""
        return {
            "geo_blocked": sorted(self.geo_blocked),
            "relocate_from_month": self.relocate_from_month,
            "relocations": dict(sorted(self.relocations)),
        }

    @classmethod
    def from_context(cls, data: Optional[Mapping]) -> "RegulationScenario":
        """Rebuild a scenario from :meth:`to_context` output."""
        data = data or {}
        relocations = tuple(sorted(
            (str(home), str(exit_code))
            for home, exit_code in (data.get("relocations") or {}).items()
        ))
        return cls(
            relocations=relocations,
            relocate_from_month=int(data.get("relocate_from_month", 0)),
            geo_blocked=frozenset(
                str(code) for code in (data.get("geo_blocked") or ())
            ),
        )


def regime_scenario(regime: str) -> RegulationScenario:
    """The :class:`RegulationScenario` for a named regime.

    Regime names are matched case-insensitively; unknown names raise a
    ``ValueError`` listing :data:`REGULATION_REGIMES`.
    """
    from repro.vantage.points import VANTAGE_POINTS

    name = str(regime).lower()
    if name not in REGULATION_REGIMES:
        known = ", ".join(REGULATION_REGIMES)
        raise ValueError(f"unknown regulation regime {regime!r}; known: {known}")
    if name == "eu":
        return RegulationScenario(relocations=tuple(sorted(
            (code, "DE")
            for code, vp in VANTAGE_POINTS.items() if not vp.in_eu
        )))
    if name == "non-eu":
        return RegulationScenario(relocations=tuple(sorted(
            (code, "USE")
            for code, vp in VANTAGE_POINTS.items() if vp.in_eu
        )))
    if name == "geo-blocked":
        return RegulationScenario(geo_blocked=frozenset(
            code for code, vp in VANTAGE_POINTS.items() if vp.in_eu
        ))
    return RegulationScenario()


def build_scenario(
    regime: str = "baseline",
    *,
    relocations: Optional[Mapping[str, str]] = None,
    relocate_from_month: int = 0,
    geo_blocked=(),
) -> RegulationScenario:
    """Compose a named regime with explicit knobs.

    Explicit ``relocations`` override the regime's for the same
    logical VP; ``geo_blocked`` codes are added to the regime's set.
    All vantage-point codes are accepted case-insensitively and
    normalised to canonical form.
    """
    from repro.vantage.points import get_vantage_point

    base = regime_scenario(regime)
    merged = dict(base.relocations)
    for home, exit_code in (relocations or {}).items():
        merged[get_vantage_point(home).code] = get_vantage_point(exit_code).code
    blocked = set(base.geo_blocked)
    blocked.update(get_vantage_point(code).code for code in geo_blocked)
    return RegulationScenario(
        relocations=tuple(sorted(merged.items())),
        relocate_from_month=max(relocate_from_month, base.relocate_from_month),
        geo_blocked=frozenset(blocked),
    ).validate()
