"""Priv-Accept: the baseline banner-accepting crawler (Jha et al. 2022).

The paper positions BannerClick against earlier tools; Priv-Accept
(§2, [31]) automatically *accepts* cookie banners but

- searches only the **main document** (no iframe switching, no shadow
  DOM workaround), and
- has **no cookiewall notion** — an accept-or-pay dialog is just
  another banner to it.

Reproducing the baseline lets the benchmarks quantify exactly what the
paper's extensions buy (see ``benchmarks/bench_baseline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bannerclick.corpus import has_accept_words
from repro.browser import Browser, Page
from repro.dom import Element

#: Priv-Accept's clickable elements (it scans buttons and links).
_CLICKABLE_TAGS = ("button", "a")


@dataclass
class PrivAcceptResult:
    """What the baseline found (and possibly clicked) on a page."""

    accept_found: bool = False
    clicked: bool = False
    button_text: str = ""
    element: Optional[Element] = None


class PrivAccept:
    """A deliberately simple accept-clicker (the related-work baseline)."""

    def __init__(self, *, click: bool = True) -> None:
        self.click = click

    def find_accept_button(self, page: Page) -> Optional[Element]:
        """First visible main-document element with accept wording.

        Note the limitation this reproduces: elements inside iframes or
        shadow roots are invisible to this scan.
        """
        for element in page.document.elements():
            if element.tag not in _CLICKABLE_TAGS:
                continue
            if not element.is_visible():
                continue
            label = element.text_content()
            if label and has_accept_words(label):
                return element
        return None

    def run(self, browser: Browser, page: Page) -> PrivAcceptResult:
        """Scan (and with ``click=True`` press) the accept button."""
        element = self.find_accept_button(page)
        if element is None:
            return PrivAcceptResult(accept_found=False)
        result = PrivAcceptResult(
            accept_found=True,
            button_text=element.text_content(),
            element=element,
        )
        if self.click:
            browser.click(page, element)
            result.clicked = True
        return result


# reprolint: disable=test-only-definition -- oracle: the related-work baseline bench_baseline.py compares BannerClick against
def compare_detection(
    browser_factory,
    domains: List[str],
    bannerclick_detector,
) -> dict:
    """Side-by-side banner coverage of Priv-Accept vs BannerClick.

    ``browser_factory`` is a zero-argument callable returning a fresh
    browser (one per visit, as both tools use fresh profiles).
    Returns counts of pages where each tool located an accept button.
    """
    baseline = PrivAccept(click=False)
    stats = {
        "total": 0,
        "priv_accept_found": 0,
        "bannerclick_found": 0,
        "bannerclick_only": 0,
        "walls_flagged_by_bannerclick": 0,
    }
    for domain in domains:
        browser = browser_factory()
        page = browser.visit(domain)
        stats["total"] += 1
        base_hit = baseline.find_accept_button(page) is not None
        detection = bannerclick_detector.detect(page)
        bc_hit = detection.found and detection.accept_element is not None
        if base_hit:
            stats["priv_accept_found"] += 1
        if bc_hit:
            stats["bannerclick_found"] += 1
            if not base_hit:
                stats["bannerclick_only"] += 1
        if detection.is_cookiewall:
            stats["walls_flagged_by_bannerclick"] += 1
    return stats
