"""Temporal drift: evolve a world between measurement rounds.

The paper observed the ecosystem moving while they measured: contentpass
grew from 219 to 270 partners and freechoice from 167 to 184 between
May and September 2023 (§4.4, footnote 5), and the German top-1k wall
rate almost doubled versus 2022 (§4.1).  :func:`evolve_world` models
that drift, producing a *later* snapshot of the same web:

- SMP rosters grow (new partner sites adopt cookiewalls),
- a small share of independent sites newly deploy walls,
- a few walls disappear (sites drop the experiment),
- some sites change their subscription price,
- some previously reachable sites die, some dead ones return.

Returned is a fresh :class:`~repro.webgen.world.World` sharing the
original's identity (same domains, same toplists) so longitudinal
analyses can join on domain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro import thirdparty
from repro.rng import derive_seed
from repro.webgen.spec import BannerKind, WallSpec
from repro.webgen.world import World, build_world

#: Monthly growth observed for SMP rosters (contentpass: 219 -> 270
#: over ~4 months ~= 5.4%/month; freechoice: 167 -> 184 ~= 2.5%/month).
SMP_MONTHLY_GROWTH = {"contentpass": 0.054, "freechoice": 0.025}

#: Monthly churn rates for the independent wall population.
NEW_WALL_RATE = 0.01        # of regular sites adopting a wall, per month
DROPPED_WALL_RATE = 0.005   # of walls giving up, per month
PRICE_CHANGE_RATE = 0.02    # of walls changing price, per month
DEATH_RATE = 0.002          # of reachable sites dying, per month


@dataclass
class EvolutionSummary:
    """What changed between the two snapshots."""

    months: int = 0
    new_smp_partners: Dict[str, int] = field(default_factory=dict)
    new_walls: List[str] = field(default_factory=list)
    dropped_walls: List[str] = field(default_factory=list)
    price_changes: List[str] = field(default_factory=list)
    died: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"Ecosystem drift over {self.months} month(s):"]
        for name, count in sorted(self.new_smp_partners.items()):
            lines.append(f"  {name}: +{count} partner websites")
        lines.append(f"  new independent cookiewalls: {len(self.new_walls)}")
        lines.append(f"  walls dropped:               {len(self.dropped_walls)}")
        lines.append(f"  price changes:               {len(self.price_changes)}")
        lines.append(f"  sites gone dark:             {len(self.died)}")
        return "\n".join(lines)


def evolve_world(world: World, *, months: int = 4) -> "tuple[World, EvolutionSummary]":
    """Produce a later snapshot of *world* plus a change summary.

    The evolved world is rebuilt from the same seed and then mutated in
    place deterministically (seeded from the original seed + months),
    so the original is left untouched.
    """
    if months < 1:
        raise ValueError("months must be >= 1")
    # The drift is re-derived from the *baseline* build (the seed plus
    # "evolve"/months), so the snapshot's identity is just `months`.
    evolved = build_world(config=world.config)
    evolved.evolution_months = months
    rng = random.Random(derive_seed(world.config.seed, "evolve", months))
    summary = EvolutionSummary(months=months)

    _grow_smp_rosters(evolved, rng, months, summary)
    _adopt_new_walls(evolved, rng, months, summary)
    _drop_walls(evolved, rng, months, summary)
    _change_prices(evolved, rng, months, summary)
    _kill_sites(evolved, rng, months, summary)
    return evolved, summary


def _compound(rate: float, months: int) -> float:
    return (1.0 + rate) ** months - 1.0


def _grow_smp_rosters(
    world: World, rng: random.Random, months: int, summary: EvolutionSummary
) -> None:
    from repro.webgen.names import make_domain, site_title
    from repro.webgen.spec import SiteSpec

    used: Set[str] = set(world.sites)
    for name, platform in world.platforms.items():
        growth = _compound(SMP_MONTHLY_GROWTH.get(name, 0.02), months)
        additions = max(int(round(len(platform.partner_domains) * growth)), 0)
        summary.new_smp_partners[name] = additions
        for k in range(additions):
            domain = make_domain(rng, "de", "de", used)
            wall = WallSpec(
                placement=("iframe", "main", "shadow-open")[k % 3],
                serving="smp",
                provider=platform.domain,
                monthly_price_cents=platform.monthly_price_cents,
                display_currency="EUR",
                billing_period="month",
                regions=frozenset(
                    {"DE", "SE", "USE", "USW", "BR", "ZA", "IN", "AU"}
                ),
            )
            spec = SiteSpec(
                domain=domain, tld="de", language="de",
                category="News and Media",
                banner=BannerKind.COOKIEWALL, reject_button=False,
                wall=wall, smp=name, site_name=site_title(domain),
            )
            spec.cdn_partners = tuple(rng.sample(thirdparty.cdn_domains(), 2))
            spec.ad_partners = tuple(rng.sample(thirdparty.ad_domains(), 5))
            spec.cookies_per_ad = 2
            world.sites[domain] = spec
            platform.partner_domains.append(domain)
            # Newly registered partner sites must resolve.
            from repro.webgen.sites import SiteServer

            world.network.register(
                domain, SiteServer(world.sites, world.config.seed)
            )


def _adopt_new_walls(
    world: World, rng: random.Random, months: int, summary: EvolutionSummary
) -> None:
    candidates = [
        d for d, s in world.sites.items()
        if s.banner is BannerKind.REGULAR and s.reachable
        and s.on_list("DE")
    ]
    count = int(len(candidates) * _compound(NEW_WALL_RATE, months))
    listed_cmps = thirdparty.cmp_domains(listed=True)
    for domain in rng.sample(candidates, min(count, len(candidates))):
        spec = world.sites[domain]
        spec.banner = BannerKind.COOKIEWALL
        spec.reject_button = False
        spec.cmp = None
        spec.wall = WallSpec(
            placement=rng.choice(("main", "iframe", "shadow-open")),
            serving=rng.choice(("inline", "cmp")),
            provider=rng.choice(listed_cmps),
            monthly_price_cents=rng.choice((199, 299, 399, 499)),
            display_currency="EUR",
            billing_period="month",
            regions=frozenset(
                {"DE", "SE", "USE", "USW", "BR", "ZA", "IN", "AU"}
            ),
        )
        if spec.wall.serving == "inline":
            spec.wall = WallSpec(
                **{**spec.wall.__dict__, "provider": None}
            )
        world.wall_domains.add(domain)
        summary.new_walls.append(domain)


def _drop_walls(
    world: World, rng: random.Random, months: int, summary: EvolutionSummary
) -> None:
    # Sorted: set order varies with PYTHONHASHSEED, and rng.sample
    # picks by position.
    independents = [
        d for d in sorted(world.wall_domains) if world.sites[d].smp is None
    ]
    count = int(len(independents) * _compound(DROPPED_WALL_RATE, months))
    for domain in rng.sample(independents, min(count, len(independents))):
        spec = world.sites[domain]
        spec.banner = BannerKind.REGULAR
        spec.wall = None
        spec.reject_button = True
        world.wall_domains.discard(domain)
        summary.dropped_walls.append(domain)


def _change_prices(
    world: World, rng: random.Random, months: int, summary: EvolutionSummary
) -> None:
    independents = [
        d for d in sorted(world.wall_domains)
        if world.sites[d].smp is None and world.sites[d].wall is not None
    ]
    count = int(len(independents) * _compound(PRICE_CHANGE_RATE, months))
    for domain in rng.sample(independents, min(count, len(independents))):
        spec = world.sites[domain]
        old = spec.wall.monthly_price_cents
        factor = rng.choice((1.25, 1.5, 0.8))
        new = max(int(round(old * factor / 100)) * 100 - 1, 99)
        spec.wall = WallSpec(**{**spec.wall.__dict__,
                                "monthly_price_cents": new})
        summary.price_changes.append(f"{domain}: {old} -> {new}")


def _kill_sites(
    world: World, rng: random.Random, months: int, summary: EvolutionSummary
) -> None:
    candidates = [
        d for d, s in world.sites.items()
        if s.reachable and s.banner is BannerKind.NONE
    ]
    count = int(len(candidates) * _compound(DEATH_RATE, months))
    for domain in rng.sample(candidates, min(count, len(candidates))):
        world.sites[domain].reachable = False
        world.network.mark_unreachable(domain)
        if domain in world.crawl_targets:
            world.crawl_targets.remove(domain)
        summary.died.append(domain)
