"""Detection accuracy evaluation (paper §3, "Detection Accuracy").

Two checks, mirroring the paper's manual verification:

1. a random audit of N target domains — compare the detector's verdict
   against ground truth (paper: 1000 domains, 6 walls, all correct);
2. a verification of *all* positive detections — walls the generator
   planted count as true positives, bait sites as false positives
   (paper: 285 detected, 280 true, precision 98.2%).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.measure.crawl import Crawler
from repro.measure.records import VisitRecord
from repro.webgen.world import World


@dataclass
class AccuracyReport:
    """Precision/recall of the cookiewall detector."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    true_negatives: int = 0
    false_positive_domains: List[str] = field(default_factory=list)
    false_negative_domains: List[str] = field(default_factory=list)

    @property
    def detected(self) -> int:
        return self.true_positives + self.false_positives

    @property
    def precision(self) -> float:
        if self.detected == 0:
            return 1.0
        return self.true_positives / self.detected

    @property
    def recall(self) -> float:
        relevant = self.true_positives + self.false_negatives
        if relevant == 0:
            return 1.0
        return self.true_positives / relevant


def _is_true_wall(world: World, vp: str, domain: str) -> bool:
    spec = world.sites.get(domain)
    if spec is None or spec.wall is None:
        return False
    return vp in spec.wall.regions


def evaluate_records(
    world: World, records: Sequence[VisitRecord]
) -> AccuracyReport:
    """Score detection records against the world's ground truth."""
    report = AccuracyReport()
    for record in records:
        truth = _is_true_wall(world, record.vp, record.domain)
        if record.is_cookiewall and truth:
            report.true_positives += 1
        elif record.is_cookiewall and not truth:
            report.false_positives += 1
            report.false_positive_domains.append(record.domain)
        elif truth and not record.is_cookiewall:
            report.false_negatives += 1
            report.false_negative_domains.append(record.domain)
        else:
            report.true_negatives += 1
    return report


def audit_sample(
    world: World,
    *,
    sample_size: int = 1000,
    seed: int = 99,
    domains: Optional[Sequence[str]] = None,
) -> List[str]:
    """The audit's random sample of *domains* (default: the crawl
    targets), in draw order."""
    pool = list(domains) if domains is not None else list(world.crawl_targets)
    return random.Random(seed).sample(pool, min(sample_size, len(pool)))


# reprolint: disable=test-only-definition -- oracle: the re-visit audit that tests and bench_accuracy_ublock.py compare crawled_audit against
def random_audit(
    world: World,
    crawler: Crawler,
    *,
    vp: str = "DE",
    sample_size: int = 1000,
    seed: int = 99,
    domains: Optional[Sequence[str]] = None,
) -> AccuracyReport:
    """The paper's 1000-domain random manual check, automated."""
    sample = audit_sample(
        world, sample_size=sample_size, seed=seed, domains=domains
    )
    records = [crawler.visit(vp, domain) for domain in sample]
    return evaluate_records(world, records)


def crawled_audit(
    world: World, records: Iterable[VisitRecord]
) -> AccuracyReport:
    """:func:`random_audit` at its defaults (DE, 1000 domains, seed 99)
    over a detection crawl's DE *records* instead of re-visits.

    A detection re-visit reproduces the crawl's record byte for byte,
    so the sampled domains' records are taken from *records* in sample
    order.  The shared visit-id counter then skips the ids the
    re-visits would have drawn (one each), so later serial
    measurements keep their values.  Every sampled domain must have a
    record, so a crawl that leaves out DE is refused.
    """
    sample = audit_sample(world)
    wanted = set(sample)
    crawled = {
        record.domain: record for record in records
        if record.domain in wanted
    }
    missing = wanted.difference(crawled)
    if missing:
        raise ValueError(
            f"the crawl has no DE record for {len(missing)} sampled "
            f"domains (e.g. {min(missing)})"
        )
    world.network.skip_visit_ids(len(sample))
    return evaluate_records(world, [crawled[domain] for domain in sample])

