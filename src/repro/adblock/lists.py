"""Embedded filter lists (EasyList-style core + Annoyances).

The lists reference the canonical third-party ecosystem of
:mod:`repro.thirdparty`, exactly as real lists reference real tracker
and CMP domains.  The Annoyances list carries the CMP/SMP blocking
rules the paper's footnote 7 quotes (``*cdn.opencmp.net/*``,
``*consentmanager.net/*``, ``*usercentrics.eu/*``) — the rules that
suppress ~70% of cookiewalls (§4.5).
"""

from __future__ import annotations

from repro import thirdparty


def easylist() -> str:
    """The default-enabled ad/tracker blocking list."""
    lines = ["! Title: repro EasyList (core ad servers)"]
    for domain in thirdparty.easylist_domains():
        lines.append(f"||{domain}^")
    lines.extend(
        [
            "! Generic URL patterns",
            "/adframe.",
            "/pixel?id=",
            "*&banner_slot=*",
            "! Cosmetic rules for leftover ad containers",
            "##.ad-banner-top",
            "##div[data-ad-slot]",
            "! Exception: self-served ads on an allow-listed site",
            "@@||selfads.acceptable-ads.net^",
        ]
    )
    return "\n".join(lines) + "\n"


def annoyances_list() -> str:
    """The (by default disabled) Annoyances lists, merged.

    The paper explicitly enables these to block cookiewalls (§4.5,
    footnote 6).  They block the serving domains of listed CMPs and of
    both SMPs; walls injected from these domains never appear.
    """
    lines = ["! Title: repro Annoyances (cookie notices & cookiewalls)"]
    for domain in thirdparty.annoyances_domains():
        lines.append(f"*cdn.{domain}/*")
        lines.append(f"||{domain}^$third-party")
    lines.extend(
        [
            "! Cosmetic rules for common notice containers",
            "##.cmp-overlay-backdrop",
            '##div[id^="sp_message_container"]',
            "##.cookie-notice-slide-in",
        ]
    )
    return "\n".join(lines) + "\n"

