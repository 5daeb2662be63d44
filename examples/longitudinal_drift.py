#!/usr/bin/env python3
"""Longitudinal drift: re-measure the web four months later.

Models the movement the paper observed between its May and September
2023 snapshots (§4.4 footnote 5): SMP rosters grow, new walls appear,
a few disappear.  The campaign runs through the sharded crawl engine
(every wave is a :class:`CrawlPlan`), so it parallelises and resumes
like any other engine workload::

    python examples/longitudinal_drift.py
"""

from repro.api import EngineSpec, LongitudinalSpec, Session
from repro.measure.instrumentation import EventLog
from repro.webgen import build_world


def main() -> None:
    world_may = build_world(scale=0.05, seed=2023)
    targets = [
        d for d in world_may.toplists["DE"].domains()
        if world_may.sites[d].reachable
    ]

    log = EventLog()
    session = Session(world_may, engine=EngineSpec(workers=4), event_log=log)
    campaign = session.longitudinal(
        LongitudinalSpec(vp="DE", months=(0, 4), domains=tuple(targets))
    ).campaign

    september = campaign.waves[-1]
    print(september.summary.render())
    print()
    print(campaign.render())

    plans = log.by_kind("plan")
    print()
    print(f"(engine executed {len(plans)} wave plans, "
          f"{sum(p.detail['tasks'] for p in plans)} tasks)")

    comparison = campaign.comparisons()[-1]
    if comparison.appeared:
        print("\nnewly walled sites include:")
        for domain in comparison.appeared[:5]:
            print(f"  {domain}")


if __name__ == "__main__":
    main()
