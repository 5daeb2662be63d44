#!/usr/bin/env python3
"""Country landscape: the Table 1 / §4.1 pipeline on a small world.

Crawls every vantage point, prints Table 1 and the landscape summary —
the miniature version of the paper's headline measurement::

    python examples/country_landscape.py [scale]
"""

import sys

from repro.analysis.report import compute_landscape
from repro.analysis.tables import compute_table1
from repro.api import Session
from repro.measure import CrawlResult
from repro.webgen import build_world


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    world = build_world(scale=scale, seed=2023)
    print(f"built world: {len(world.crawl_targets)} reachable targets, "
          f"{len(world.wall_domains)} true cookiewalls\n")

    crawl = CrawlResult(records=Session(world).crawl().records)  # all 8 VPs

    table = compute_table1(world, crawl)
    print(table.render())
    print()
    print(compute_landscape(world, crawl).render())

    # Which sites does only the EU see?
    eu_only = sorted(
        set(crawl.cookiewall_domains("DE")) - set(crawl.cookiewall_domains("USE"))
    )
    print(f"\nwalls visible from Frankfurt but not Ashburn: {len(eu_only)}")
    for domain in eu_only[:5]:
        print(f"  {domain}")


if __name__ == "__main__":
    main()
