"""Request routing between the browser and simulated origin servers."""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConnectionRefused, DNSError
from repro.httpkit import Request, Response
from repro.netsim.server import OriginServer
from repro.resilience.chaos import ChaosEngine
from repro.resilience.clock import VirtualClock, spend
from repro.urlkit import registrable_domain
from repro.vantage import VantagePoint


@dataclass
class VisitorContext:
    """What an origin server can observe about the visiting client."""

    vp: VantagePoint
    user_agent: str = "Mozilla/5.0 (X11; Linux x86_64) repro-openwpm/1.0"
    #: OpenWPM-style bot mitigation: when True the client is hard to
    #: distinguish from a regular browser.
    stealth: bool = True
    #: Monotonic visit sequence number, lets servers rotate ads between
    #: repeated visits the way real ad auctions do.
    visit_id: int = 0

    @property
    def looks_like_bot(self) -> bool:
        """True when naive server-side bot detection would flag us."""
        return (not self.stealth) or "HeadlessCrawler" in self.user_agent


class Network:
    """Routes requests by registrable domain to origin servers."""

    def __init__(self) -> None:
        self._servers: Dict[str, OriginServer] = {}
        self._unreachable: set = set()
        self._visit_counter = itertools.count(1)
        #: Total number of requests served (for stats/benchmarks).
        #: Updated under a lock: parallel crawl-engine workers fetch
        #: concurrently and a bare ``+=`` would lose increments.
        self.request_count = 0
        self._stats_lock = threading.Lock()
        #: Simulated per-request network round-trip time in seconds.
        #: Zero (the default) keeps the simulation purely compute-bound;
        #: benchmarks set it to model the network-bound regime of real
        #: crawls, where the parallel crawl engine's worker processes
        #: overlap the waiting.
        self.latency = 0.0
        #: How latency is paid: ``"virtual"`` (default) advances the
        #: virtual clock — deterministic, finishes in microseconds —
        #: while ``"real"`` blocks in ``time.sleep`` for benchmarks
        #: that measure genuine wall-clock overlap.
        self.latency_mode = "virtual"
        #: Virtual time spent on this network (latency, chaos spikes,
        #: retry backoff all accrue here instead of sleeping).
        self.clock = VirtualClock()
        #: Installed chaos plane, or None (the fault-free default).
        self.chaos: Optional[ChaosEngine] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, domain: str, server: OriginServer) -> None:
        """Register *server* for a registrable domain (and subdomains)."""
        site = registrable_domain(domain) or domain.lower()
        self._servers[site] = server

    def mark_unreachable(self, domain: str) -> None:
        """Make a domain refuse connections (dead site in the toplist)."""
        site = registrable_domain(domain) or domain.lower()
        self._unreachable.add(site)

    def knows(self, host: str) -> bool:
        """True when DNS would resolve *host*."""
        site = registrable_domain(host) or host.lower()
        return site in self._servers or site in self._unreachable

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def next_visit_id(self) -> int:
        """Allocate a fresh visit id (used by browsers per navigation)."""
        return next(self._visit_counter)

    def skip_visit_ids(self, count: int) -> None:
        """Advance the shared counter past *count* ids, as *count*
        :meth:`next_visit_id` calls would, without allocating them."""
        if count > 0:
            self._visit_counter = itertools.count(
                next(self._visit_counter) + count
            )

    def resolve(self, host: str) -> OriginServer:
        """Resolve *host* to a server, raising DNS/connection errors."""
        host = host.lower()
        site = registrable_domain(host) or host
        if site in self._unreachable:
            raise ConnectionRefused(f"{host} refused the connection")
        server = self._servers.get(site)
        if server is None:
            raise DNSError(f"no DNS record for {host}")
        return server

    def fetch(self, request: Request, visitor: VisitorContext) -> Response:
        """Route *request* to its origin server and return the response.

        Pays the configured latency (plus any chaos latency spike) on
        the virtual clock — which also enforces the active task's
        attempt deadline — then gives the chaos plane its chance to
        inject a fault before the request reaches an origin server.
        """
        host = request.url.host
        chaos = self.chaos
        cost = self.latency
        if cost > 0.0 and self.latency_mode == "real":
            time.sleep(cost)
            cost = 0.0
        if chaos is not None:
            cost += chaos.latency_spike(host, visitor.visit_id)
        spend(self.clock, cost)
        if chaos is not None:
            chaos.inject(host, visitor.visit_id)
        server = self.resolve(host)
        with self._stats_lock:
            self.request_count += 1
        return server.handle(request, visitor)
