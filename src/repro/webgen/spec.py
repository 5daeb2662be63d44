"""Data model for generated websites (the world's ground truth)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple


class BannerKind(enum.Enum):
    """What kind of consent UI a site presents."""

    NONE = "none"
    REGULAR = "regular"          # accept (+ usually reject) banner
    COOKIEWALL = "cookiewall"    # accept-or-pay (the paper's subject)
    BAIT = "bait"                # regular banner whose text mentions a
                                 # subscription price (false-positive bait)


#: Wall embedding styles (paper §3: 76 shadow, 132 iframe, 72 main).
PLACEMENTS = ("main", "iframe", "shadow-open", "shadow-closed")

#: How the wall is delivered to the page.
SERVINGS = ("inline", "cmp", "smp")


@dataclass(frozen=True)
class WallSpec:
    """Cookiewall parameters for one site."""

    placement: str                   # one of PLACEMENTS
    serving: str                     # one of SERVINGS
    provider: Optional[str]          # CMP domain or SMP name (None=inline)
    monthly_price_cents: int         # normalised price in € cents
    display_currency: str            # EUR / USD / GBP / CHF / AUD
    billing_period: str              # "month" or "year"
    regions: FrozenSet[str]          # VP codes where the wall shows
    anti_adblock: bool = False       # shows 'disable your ad blocker'
    fp_scroll_lock: bool = False     # first-party scroll lock script



@dataclass
class SiteSpec:
    """Everything the origin server needs to render one website."""

    domain: str
    tld: str
    language: str
    category: str
    reachable: bool = True
    #: country code -> "top1k" | "top10k" for each toplist listing.
    listings: Dict[str, str] = field(default_factory=dict)
    banner: BannerKind = BannerKind.NONE
    #: For regular banners: "eu" (GDPR visitors only) or "all".
    banner_audience: str = "eu"
    reject_button: bool = True
    #: CMP serving the (regular) banner, if any.
    cmp: Optional[str] = None
    wall: Optional[WallSpec] = None
    #: SMP membership (also set for partners outside the toplists).
    smp: Optional[str] = None
    #: Site deploys naive bot detection (paper §3, Limitations): when a
    #: non-stealth crawler visits, it serves a challenge page instead.
    bot_sensitive: bool = False

    # -- cookie/tracker wiring ------------------------------------------
    fp_plain: int = 3                # first-party cookies pre-consent
    fp_consented: int = 12           # first-party cookies post-consent
    ad_partners: Tuple[str, ...] = ()
    cookies_per_ad: int = 1
    sync_rate: float = 0.3
    extra_ads_max: int = 1
    cdn_partners: Tuple[str, ...] = ()
    analytics_partners: Tuple[str, ...] = ()

    # -- page copy --------------------------------------------------------
    #: Indexes into the language corpus for the article paragraphs.
    sentence_indexes: Tuple[int, ...] = (0, 1, 2)
    site_name: str = ""

    # ------------------------------------------------------------------
    @property
    def is_wall(self) -> bool:
        return self.banner is BannerKind.COOKIEWALL

    @property
    def has_banner(self) -> bool:
        return self.banner is not BannerKind.NONE

    @property
    def consent_cookie(self) -> str:
        """The first-party cookie that stores the visitor's choice."""
        return "cw_consent" if self.is_wall else "cmp_consent"

    def on_list(self, country: str, bucket: Optional[str] = None) -> bool:
        got = self.listings.get(country)
        if got is None:
            return False
        return bucket is None or got == bucket

    def __repr__(self) -> str:
        return f"<SiteSpec {self.domain} {self.banner.value}>"
