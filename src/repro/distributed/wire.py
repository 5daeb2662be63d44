"""The JSON-framed wire protocol between coordinator and workers.

One frame is one JSON object on one ``\\n``-terminated line — the same
append-friendly framing the spools and checkpoints use, so a captured
session is greppable and a torn connection can never leave a half-read
frame ambiguous.  Every frame carries a ``type`` tag naming one of the
message dataclasses below; unknown tags and malformed frames raise
:class:`~repro.errors.WireProtocolError`, which the coordinator
converts into re-dispatch (and, past the budget, into structured
transport-degraded records) rather than a silent drop.

The message dataclasses are deliberately primitive-only (ints, floats,
strings, tuples, dicts of the same): they are part of the
``bundle-pickle-safety`` reprolint surface, and the shard bundle they
carry must survive ``dataclass -> JSON -> dataclass`` without losing
the byte-identity of the records computed from it.  The one opaque
field is :attr:`WireShared.blob` — the run-constant shared state
(detector instances, retry policy) crosses as a base64 pickle inside
the JSON frame, exactly the payload the process pool's initializer
ships in-process.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import WireProtocolError

#: Version tag exchanged in the hello; a mismatch is refused up front
#: (a worker from another release must not silently compute different
#: bytes).
WIRE_PROTOCOL_VERSION = 1

#: Upper bound for one frame (a shard of records comes back as one
#: result frame; 128 MiB is ~3 orders of magnitude above the largest
#: shard the benchmarks produce).
MAX_FRAME_BYTES = 128 * 1024 * 1024


@dataclass(frozen=True)
class WireHello:
    """Worker -> coordinator, once per connection."""

    worker: str
    pid: int
    protocol: int = WIRE_PROTOCOL_VERSION


@dataclass(frozen=True)
class WireShared:
    """Coordinator -> worker, once per connection, before any bundle.

    ``blob`` is the base64-encoded pickle of the run-constant shared
    dict (world key, latency, detectors, retry policy, plan context) —
    the exact payload :func:`repro.measure.engine._init_worker_shared`
    installs for the in-process pool.
    """

    blob: str


@dataclass(frozen=True)
class WireBundle:
    """Coordinator -> worker: one shard of work.

    Mirrors the engine's picklable shard bundle
    (:meth:`repro.measure.engine.CrawlEngine._bundles`) field for
    field; :meth:`from_bundle`/:meth:`to_bundle` convert the
    parts JSON cannot hold natively (int dict keys, tuples).
    """

    shard: int
    #: ``(index, vp, domain, mode, repeats)`` per task, plan order.
    tasks: Tuple[Tuple, ...]
    #: ``(index, id_base)`` pairs (JSON object keys must be strings,
    #: so the mapping travels as pairs instead).
    id_bases: Tuple[Tuple[int, int], ...]
    #: Per-domain breaker snapshots entering the shard.
    breakers: Optional[Dict[str, Dict]] = None
    #: Fault-injection hook: die after this many tasks (tests only).
    kill_after: Optional[int] = None

    @classmethod
    def from_bundle(cls, bundle: Dict) -> "WireBundle":
        return cls(
            shard=bundle["shard"],
            tasks=tuple(tuple(entry) for entry in bundle["tasks"]),
            id_bases=tuple(sorted(bundle["id_bases"].items())),
            breakers=bundle.get("breakers") or None,
            kill_after=bundle.get("kill_after"),
        )

    def to_bundle(self) -> Dict:
        """The engine-shaped bundle dict ``_run_shard_bundle`` consumes."""
        bundle: Dict = {
            "shard": self.shard,
            "tasks": [tuple(entry) for entry in self.tasks],
            "id_bases": {
                int(index): int(base) for index, base in self.id_bases
            },
            "breakers": dict(self.breakers) if self.breakers else {},
        }
        if self.kill_after is not None:
            bundle["kill_after"] = self.kill_after
        return bundle


@dataclass(frozen=True)
class WireHeartbeat:
    """Worker -> coordinator while a bundle runs: extend the lease."""

    shard: int


@dataclass(frozen=True)
class WireResult:
    """Worker -> coordinator: one completed shard's payload.

    The fields carry the mapping
    :func:`repro.measure.engine._run_shard_bundle` returns — records
    are the worker's canonically serialized JSONL lines, passed through
    to spools and checkpoints without a decode; its ordered notes
    travel split into ``task-retry`` notes (:attr:`retries`) and
    ``breaker-*`` notes (:attr:`breaker_events`).
    """

    shard: int
    pid: int
    elapsed: float
    outcomes: Tuple[Dict, ...]
    retries: Tuple[Dict, ...] = ()
    breakers: Optional[Dict[str, Dict]] = None
    breaker_events: Tuple[Dict, ...] = ()

    @classmethod
    def from_payload(cls, payload: Dict) -> "WireResult":
        notes = payload["notes"]
        return cls(
            shard=payload["shard"],
            pid=payload["pid"],
            elapsed=payload["elapsed"],
            outcomes=tuple(payload["outcomes"]),
            retries=tuple(n for n in notes if n["kind"] == "task-retry"),
            breakers=payload.get("breakers") or None,
            breaker_events=tuple(
                n for n in notes if n["kind"] != "task-retry"
            ),
        )

    def to_payload(self) -> Dict:
        """The engine-shaped payload ``CrawlEngine._absorb_shard`` takes.

        The runner orders notes by task (plan index), a task's retries
        before its breaker transition, so a stable sort by index over
        the two note fields restores that order.
        """
        return {
            "shard": self.shard,
            "pid": self.pid,
            "elapsed": self.elapsed,
            "outcomes": list(self.outcomes),
            "breakers": dict(self.breakers) if self.breakers else {},
            "notes": sorted(
                self.retries + self.breaker_events,
                key=lambda note: note["index"],
            ),
        }

    def validate_against(self, bundle: "WireBundle") -> None:
        """Structural check: the reply must cover the bundle exactly.

        A reply whose outcomes drop, duplicate, or invent task indices
        would silently desynchronise the merge from the plan; raise
        :class:`WireProtocolError` instead and let the coordinator's
        re-dispatch/degrade machinery handle it.
        """
        if self.shard != bundle.shard:
            raise WireProtocolError(
                f"result names shard {self.shard}, expected {bundle.shard}"
            )
        expected = [entry[0] for entry in bundle.tasks]
        got = []
        for entry in self.outcomes:
            if not isinstance(entry, dict):
                raise WireProtocolError(
                    f"shard {self.shard}: outcome is not an object"
                )
            index = entry.get("index")
            record = entry.get("record")
            if record is not None and not isinstance(record, str):
                raise WireProtocolError(
                    f"shard {self.shard}: outcome {index}: record is "
                    "neither null nor a serialized line"
                )
            got.append(index)
        if sorted(got, key=repr) != sorted(expected, key=repr):
            raise WireProtocolError(
                f"shard {self.shard}: reply covers indices {sorted(got, key=repr)!r}, "
                f"bundle holds {sorted(expected, key=repr)!r}"
            )


#: ``type`` tag -> message class (the wire's dispatch table).
MESSAGE_TYPES = {
    "hello": WireHello,
    "shared": WireShared,
    "bundle": WireBundle,
    "heartbeat": WireHeartbeat,
    "result": WireResult,
}
_TYPE_TAGS = {cls: tag for tag, cls in MESSAGE_TYPES.items()}


def encode_message(message) -> bytes:
    """One message as one JSON frame (``\\n``-terminated bytes)."""
    tag = _TYPE_TAGS.get(type(message))
    if tag is None:
        raise WireProtocolError(
            f"cannot encode {type(message).__name__} as a wire frame"
        )
    body = dataclasses.asdict(message)
    body["type"] = tag
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: bytes):
    """Parse one frame back into its message dataclass.

    Every malformation — bad UTF-8, bad JSON, a non-object, an unknown
    or missing ``type``, unexpected fields — raises
    :class:`WireProtocolError` with the offending detail.
    """
    try:
        body = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(body, dict):
        raise WireProtocolError(
            f"frame must be a JSON object, got {type(body).__name__}"
        )
    tag = body.pop("type", None)
    cls = MESSAGE_TYPES.get(tag)
    if cls is None:
        raise WireProtocolError(f"unknown frame type {tag!r}")
    known = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(body) - known)
    if unknown:
        raise WireProtocolError(
            f"frame {tag!r} carries unknown field(s) {', '.join(unknown)}"
        )
    try:
        message = cls(**body)
    except TypeError as error:
        raise WireProtocolError(f"frame {tag!r}: {error}") from error
    # JSON has no tuples; restore the dataclass field shapes so
    # message equality (and validate_against) behaves.
    for field in dataclasses.fields(cls):
        value = getattr(message, field.name)
        if isinstance(value, list):
            object.__setattr__(
                message, field.name,
                tuple(tuple(v) if isinstance(v, list) else v for v in value),
            )
    return message


def write_frame(wfile, message) -> None:
    """Write one message frame to a binary file-like and flush."""
    wfile.write(encode_message(message))
    wfile.flush()


def read_frame(rfile):
    """Read one frame; ``None`` on EOF (orderly close).

    Raises :class:`WireProtocolError` for an overlong or truncated
    frame (a line without its terminator is a torn write, never a
    message).
    """
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame exceeds {MAX_FRAME_BYTES} bytes"
        )
    if not line.endswith(b"\n"):
        raise WireProtocolError("truncated frame (no terminator)")
    return decode_message(line)
