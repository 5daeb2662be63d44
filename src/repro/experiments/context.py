"""Shared, cached measurement state for the experiment drivers.

The detection crawl (8 VPs × 45k sites) and the cookie measurements
are expensive; every experiment that needs them shares one
:class:`ExperimentContext` so the work happens once (the paper
likewise derives all analyses from one crawl dataset).

Every cached product is compiled into a
:class:`~repro.measure.engine.CrawlPlan` and executed through the
sharded crawl engine instead of an ad-hoc loop.  Only the detection
crawl runs on local wire workers (:func:`default_workers`: one per
usable CPU, at most two): it is an id-free plan (see the engine's
*Determinism* docs), so its records do not depend on visit ids and the
engine leaves the shared serial visit-id counter where a one-core run
leaves it.  The cookie, contentpass and uBlock measurements, whose
values the world keys on visit ids, run in-process on that counter.
So every product is byte-identical to the pre-engine serial harness on
any number of CPUs.  A ``spool_dir`` switches every product to the
engine's per-task visit-id streams instead: values stay deterministic
but differ from the serial baseline's.

Every paper artefact is aggregated in a single pass over the run's
record stream (:class:`~repro.analysis.streaming.StreamingCrawlAnalysis`
/ :class:`~repro.analysis.streaming.StreamingCookieComparison`) — when
the context also has a ``spool_dir``, records stream straight from the
JSONL spools and analysis memory stays bounded by the result size,
independent of world scale.  The list-based ``compute_*`` functions
remain the reference implementations; the differential tests run every
experiment over them too and require byte-identical artefacts.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.analysis.figures import Figure1, Figure2, Figure3, Figure6
from repro.analysis.report import LandscapeReport
from repro.analysis.streaming import (
    StreamingCookieComparison,
    StreamingCrawlAnalysis,
    streaming_fig4,
    streaming_fig5,
)
from repro.analysis.tables import Table1
from repro.api import EngineSpec, Session
from repro.measure.crawl import Crawler
from repro.measure.engine import CrawlPlan, EngineResult, check_process_portable
from repro.measure.instrumentation import EventLog
from repro.measure.records import CookieMeasurement, UBlockRecord, VisitRecord
from repro.vantage import VANTAGE_POINTS
from repro.webgen.world import World

_ACCOUNT_EMAIL = "measurement@repro.example"
_ACCOUNT_PASSWORD = "one-month-subscription"


def default_workers(crawler: Crawler) -> int:
    """The detection crawl's local workers: one per usable CPU, at most
    two (each forked worker holds its own world and document cache, and
    more than two has not been measured), or 1 when the wire cannot
    rebuild *crawler*: a crawler or detector subclass, or a hand-tuned
    world."""
    try:
        check_process_portable(crawler)
    except ValueError:
        return 1
    return min(len(os.sched_getaffinity(0)), 2)


class ExperimentContext:
    """Lazily computed, cached measurement products.

    The detection crawl runs on :attr:`workers` local wire workers
    (:func:`default_workers`); every other product runs in-process, so
    no output depends on the CPU count.
    """

    def __init__(
        self,
        world: World,
        *,
        crawler: Optional[Crawler] = None,
        repeats: int = 5,
        vps: Optional[Sequence[str]] = None,
        sample_seed: int = 1234,
        event_log: Optional[EventLog] = None,
        spool_dir: Union[str, Path, None] = None,
        resume: bool = False,
    ) -> None:
        self.world = world
        self.crawler = crawler or Crawler(world)
        self.repeats = repeats
        self.vps = list(vps) if vps is not None else list(VANTAGE_POINTS)
        self.sample_seed = sample_seed
        self.workers = default_workers(self.crawler)
        self.event_log = event_log
        #: With a spool_dir every cached product persists to
        #: ``<spool_dir>/<name>.jsonl`` with a resumable checkpoint
        #: alongside; ``resume=True`` replays completed tasks after a
        #: crash.  A spooled run uses the engine's per-task visit-id
        #: streams even when serial (see the engine docs), so a
        #: spool_dir changes cookie/uBlock values; without one nothing
        #: is written.
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        if resume and self.spool_dir is None:
            raise ValueError("resume=True requires a spool_dir")
        self.resume = resume
        #: All engine wiring (spool/checkpoint paths, retry, events,
        #: progress) is owned by a Session — the same path the CLI and
        #: library entry points use: an in-process one for every
        #: product, and one on :attr:`workers` for the detection crawl.
        def session(workers: int) -> Session:
            return Session(
                world,
                engine=EngineSpec(workers=workers, resume=resume),
                crawler=self.crawler,
                event_log=event_log,
                spool_dir=self.spool_dir,
            )

        self.session = session(1)
        self._detection_session = (
            self.session if self.workers == 1 else session(self.workers)
        )
        #: Finished runs by product name, which also names the spool.
        self._products: Dict[str, EngineResult] = {}
        self._detection_analysis: Optional[StreamingCrawlAnalysis] = None
        self._account_ready = False

    def _product(
        self, name: str, plan: Callable[[], CrawlPlan],
        session: Optional[Session] = None,
    ) -> EngineResult:
        """The run of product *name* on *session* (default: the
        in-process one); ``plan()`` is built and executed on the first
        call only.  The :class:`~repro.measure.engine.EngineResult` is
        kept rather than a materialised list so spool-backed products
        can be re-streamed on demand.
        """
        if name not in self._products:
            self._products[name] = (session or self.session).execute(
                plan(), name=name
            )
        return self._products[name]

    # ------------------------------------------------------------------
    # Detection crawl products
    # ------------------------------------------------------------------
    def detection_result(self) -> EngineResult:
        """The detection crawl's
        :class:`~repro.measure.engine.EngineResult` (records lazy)."""
        return self._product(
            "detection_crawl",
            lambda: self.crawler.plan_detection_crawl(self.vps),
            self._detection_session,
        )

    def detection_analysis(self) -> StreamingCrawlAnalysis:
        """One-pass aggregation of the detection stream (cached)."""
        if self._detection_analysis is None:
            self._detection_analysis = StreamingCrawlAnalysis(
                self.world
            ).consume(self.detection_result().iter_records())
        return self._detection_analysis

    def iter_detection_records(
        self, vp: Optional[str] = None
    ) -> Iterator[VisitRecord]:
        """Stream detection records, optionally filtered to one VP."""
        for record in self.detection_result().iter_records():
            if vp is None or record.vp == vp:
                yield record

    def detected_wall_domains(self) -> List[str]:
        """Unique domains flagged as cookiewalls from any VP."""
        return self.detection_analysis().detected_wall_domains()

    def verified_wall_domains(self) -> List[str]:
        """Detections surviving the paper's manual verification step.

        The paper manually checked all 285 detections and discarded 5
        false positives (§3).  The generator's ground truth plays the
        human verifier here.
        """
        return self.detection_analysis().verified_wall_domains()

    # ------------------------------------------------------------------
    # Analysis products
    # ------------------------------------------------------------------
    def table1(self) -> Table1:
        return self.detection_analysis().table1()

    def landscape(self) -> LandscapeReport:
        return self.detection_analysis().landscape()

    def figure1(self) -> Figure1:
        return self.detection_analysis().figure1()

    def figure2(self) -> Figure2:
        return self.detection_analysis().figure2()

    def figure3(self) -> Figure3:
        return self.detection_analysis().figure3()

    def comparison_fig4(self) -> StreamingCookieComparison:
        """Figure 4: regular-banner (a) vs cookiewall (b) cookies."""
        return (
            streaming_fig4()
            .consume("a", self.iter_regular_measurements())
            .consume("b", self.iter_wall_measurements())
        )

    def comparison_fig5(self) -> StreamingCookieComparison:
        """Figure 5: contentpass accept (a) vs subscription (b)."""
        return (
            streaming_fig5()
            .consume("a", self.iter_contentpass_accept())
            .consume("b", self.iter_contentpass_subscription())
        )

    def figure6(self) -> Figure6:
        return self.detection_analysis().figure6(self.iter_wall_measurements())

    # ------------------------------------------------------------------
    # Cookie measurements (§4.3)
    # ------------------------------------------------------------------
    def iter_wall_measurements(self) -> Iterator[CookieMeasurement]:
        return self._product(
            "wall_measurements",
            lambda: self.crawler.plan_cookie_measurements(
                "DE", self.verified_wall_domains(),
                mode="accept", repeats=self.repeats,
            ),
        ).iter_records()

    def _plan_regular_measurements(self) -> CrawlPlan:
        """Random regular-banner sites, one per verified wall (§4.3)."""
        pool = self.detection_analysis().regular_banner_domains_de()
        rng = random.Random(self.sample_seed)
        count = min(len(self.verified_wall_domains()), len(pool))
        return self.crawler.plan_cookie_measurements(
            "DE", rng.sample(pool, count), mode="accept", repeats=self.repeats,
        )

    def iter_regular_measurements(self) -> Iterator[CookieMeasurement]:
        return self._product(
            "regular_measurements", self._plan_regular_measurements
        ).iter_records()

    # ------------------------------------------------------------------
    # contentpass measurements (§4.4)
    # ------------------------------------------------------------------
    def _ensure_account(self) -> None:
        if not self._account_ready:
            platform = self.world.platforms["contentpass"]
            if _ACCOUNT_EMAIL not in platform.accounts:
                platform.create_account(_ACCOUNT_EMAIL, _ACCOUNT_PASSWORD)
            platform.purchase_subscription(_ACCOUNT_EMAIL)
            self._account_ready = True

    def iter_contentpass_accept(self) -> Iterator[CookieMeasurement]:
        return self._product(
            "contentpass_accept",
            lambda: self.crawler.plan_cookie_measurements(
                "DE", self.world.partner_domains("contentpass"),
                mode="accept", repeats=self.repeats,
            ),
        ).iter_records()

    def _plan_contentpass_subscription(self) -> CrawlPlan:
        self._ensure_account()
        return self.crawler.plan_subscription_measurements(
            "DE", self.world.platforms["contentpass"].partner_domains,
            "contentpass", _ACCOUNT_EMAIL, _ACCOUNT_PASSWORD,
            repeats=self.repeats,
        )

    def iter_contentpass_subscription(self) -> Iterator[CookieMeasurement]:
        return self._product(
            "contentpass_subscription", self._plan_contentpass_subscription
        ).iter_records()

    # ------------------------------------------------------------------
    # uBlock bypass (§4.5)
    # ------------------------------------------------------------------
    def iter_ublock_records(self) -> Iterator[UBlockRecord]:
        return self._product(
            "ublock",
            lambda: self.crawler.plan_ublock(
                "DE", self.verified_wall_domains(), iterations=self.repeats,
            ),
        ).iter_records()
