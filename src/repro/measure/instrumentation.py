"""OpenWPM-style instrumentation: per-visit event logs.

BannerClick is built on OpenWPM, whose value is the instrumented
browser: every request, response, cookie write, and block decision is
recorded to a database.  This module provides the equivalent — attach
an :class:`EventLog` to a browser and every navigation produces a
structured event stream that can be saved with
:func:`repro.measure.storage.save_records`-style JSONL output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro.httpkit import Request, Response

EVENT_KINDS = (
    "navigation",
    "request",
    "response",
    "blocked",
    "failed",
    "set-cookie",
    # Crawl-engine events (repro.measure.engine): scheduling, progress
    # and throughput share the same log as the browser instruments.
    "plan",
    "shard",
    "task-retry",
    # Resilience plane: a task degraded to a partial record, and
    # per-domain circuit-breaker transitions.
    "task-degraded",
    "breaker-open",
    "breaker-close",
    "progress",
    "throughput",
    "process-throughput",
    "resume",
)


@dataclass
class Event:
    """One instrumented browser event."""

    kind: str
    visit_id: int
    url: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "visit_id": self.visit_id,
            "url": self.url,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Event":
        return cls(**data)


class Instrument:
    """Hook interface the browser calls during page loads."""

    def on_navigation(self, visit_id: int, url: str) -> None: ...

    def on_request(self, visit_id: int, request: Request) -> None: ...

    def on_response(self, visit_id: int, response: Response) -> None: ...

    def on_blocked(self, visit_id: int, request: Request) -> None: ...

    def on_failed(self, visit_id: int, request: Request) -> None: ...


class EventLog(Instrument):
    """Records every event, OpenWPM-database style."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    # -- hooks ----------------------------------------------------------
    def on_navigation(self, visit_id: int, url: str) -> None:
        self.events.append(Event("navigation", visit_id, url))

    def on_request(self, visit_id: int, request: Request) -> None:
        self.events.append(
            Event(
                "request", visit_id, str(request.url),
                {
                    "resource_type": request.resource_type,
                    "third_party": request.is_third_party,
                },
            )
        )

    def on_response(self, visit_id: int, response: Response) -> None:
        self.events.append(
            Event(
                "response", visit_id, str(response.request.url),
                {
                    "status": response.status,
                    "content_type": response.content_type,
                },
            )
        )
        for header in response.set_cookie_headers:
            name = header.split("=", 1)[0]
            self.events.append(
                Event(
                    "set-cookie", visit_id, str(response.request.url),
                    {"cookie_name": name},
                )
            )

    def on_blocked(self, visit_id: int, request: Request) -> None:
        self.events.append(Event("blocked", visit_id, str(request.url)))

    def on_failed(self, visit_id: int, request: Request) -> None:
        self.events.append(Event("failed", visit_id, str(request.url)))

    # -- queries ----------------------------------------------------------
    def by_kind(self, kind: str) -> List[Event]:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        return [e for e in self.events if e.kind == kind]

    def visits(self) -> List[int]:
        seen: List[int] = []
        for event in self.events:
            if event.visit_id not in seen:
                seen.append(event.visit_id)
        return seen

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -- persistence --------------------------------------------------------
    def save(self, path: Union[str, Path]) -> int:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event.to_dict(), ensure_ascii=False))
                handle.write("\n")
        return len(self.events)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EventLog":
        log = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    log.events.append(Event.from_dict(json.loads(line)))
        return log
