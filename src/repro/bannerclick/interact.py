"""Banner interaction: clicking accept/reject on a detection.

Interaction always happens on the *live* element (inside the real
shadow root or iframe), which the detector resolved via the clone
workaround — the same two-step dance the paper describes in §3.
"""

from __future__ import annotations

from repro.bannerclick.detect import BannerDetection
from repro.browser import Browser, ClickOutcome, Page
from repro.errors import MeasurementError


def accept_banner(
    browser: Browser, page: Page, detection: BannerDetection
) -> ClickOutcome:
    """Click the banner's accept button.

    Raises :class:`MeasurementError` when the detection has no accept
    button (e.g. a notice-only banner).
    """
    if not detection.found or detection.accept_element is None:
        raise MeasurementError("detection has no accept button to click")
    return browser.click(page, detection.accept_element)


def reject_banner(
    browser: Browser, page: Page, detection: BannerDetection
) -> ClickOutcome:
    """Click the banner's reject button (absent on cookiewalls)."""
    if not detection.found or detection.reject_element is None:
        raise MeasurementError("detection has no reject button to click")
    return browser.click(page, detection.reject_element)

