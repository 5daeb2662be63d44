"""The JSON-framed wire protocol between coordinator and workers.

One frame is one JSON object on one ``\\n``-terminated line — the same
append-friendly framing the spools and checkpoints use, so a captured
session is greppable and a torn connection can never leave a half-read
frame ambiguous.  Every frame carries a ``type`` tag naming one of the
message dataclasses below; unknown tags and malformed frames raise
:class:`~repro.errors.WireProtocolError`, which the coordinator
converts into re-dispatch (and, past the budget, into structured
transport-degraded records) rather than a silent drop.  A bundle's and
a result's fields are checked against :mod:`repro.schema` shapes where
they are consumed, so the error names the path that does not fit.

The message dataclasses hold JSON data only (ints, floats, strings,
tuples, dicts of the same): the shard bundle they carry must survive
``dataclass -> JSON -> dataclass`` without losing the byte-identity of
the records computed from it.  That includes :attr:`WireShared.state`,
the run-constant worker state (world key, detectors' constructor
arguments, retry policy, plan context) that every worker installs
once.  Nothing that crosses the socket is ever unpickled or executed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import schema
from repro.errors import WireProtocolError
from repro.measure.engine import TASK_MODES
from repro.resilience.breaker import SNAPSHOT

#: Version tag exchanged in the hello; a mismatch is refused up front
#: (a worker from another release must not silently compute different
#: bytes).
WIRE_PROTOCOL_VERSION = 2

#: Upper bound for one frame (a shard of records comes back as one
#: result frame; 128 MiB is ~3 orders of magnitude above the largest
#: shard the benchmarks produce).
MAX_FRAME_BYTES = 128 * 1024 * 1024


_BREAKERS = (None, {str: SNAPSHOT})  # breaker snapshots by domain
#: What a bundle (tasks: ``(index, vp, domain, mode, repeats)``) and a
#: result carry, as :mod:`repro.schema` checkers.
_BUNDLE = schema.compile({
    "shard": int,
    "tasks": [[int, str, str, schema.OneOf(TASK_MODES), int]],
    "id_bases": [[int, int]],
    "breakers": _BREAKERS,
}, lambda text: WireProtocolError(f"a bundle carries a malformed field: {text}"))
_RESULT = schema.compile({
    "shard": int, "pid": int, "elapsed": float,
    "outcomes": [{
        "index": int, "attempts": schema.Range(int, min=0),
        "error": (None, str), "record": (None, str),
    }],
    "notes": [(
        {"kind": schema.OneOf(("task-retry",)), "index": int, "attempt": int, "error": str},
        {"kind": schema.OneOf(("breaker-open", "breaker-close")), "index": int},
    )],
    "breakers": _BREAKERS,
}, lambda text: WireProtocolError(f"malformed reply: {text}"))


def _refuse_foreign_breakers(breakers, tasks) -> None:
    if breakers and not set(breakers) <= {entry[2] for entry in tasks}:
        raise WireProtocolError("breakers name a domain outside the bundle")


@dataclass(frozen=True)
class WireHello:
    """Worker -> coordinator, once per connection."""

    worker: str
    pid: int
    protocol: int = WIRE_PROTOCOL_VERSION


@dataclass(frozen=True)
class WireShared:
    """Coordinator -> worker, once per connection, before any bundle.

    ``state`` is the run-constant JSON worker state — the object
    :func:`repro.measure.engine._init_worker_shared` checks and
    installs.
    """

    state: Dict


@dataclass(frozen=True)
class WireBundle:
    """Coordinator -> worker: one shard of work.

    Mirrors the engine's plain-data shard bundle
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

    @classmethod
    def from_bundle(cls, bundle: Dict) -> "WireBundle":
        return cls(
            shard=bundle["shard"],
            tasks=tuple(tuple(entry) for entry in bundle["tasks"]),
            id_bases=tuple(sorted(bundle["id_bases"].items())),
            breakers=bundle.get("breakers") or None,
        )

    def to_bundle(self) -> Dict:
        """The engine-shaped bundle dict ``_run_shard_bundle`` consumes;
        :class:`WireProtocolError` unless it has the shape the runner
        unpacks and its breakers name its own tasks' domains."""
        _BUNDLE(vars(self))
        _refuse_foreign_breakers(self.breakers, self.tasks)
        return {
            "shard": self.shard,
            "tasks": [tuple(entry) for entry in self.tasks],
            "id_bases": dict(self.id_bases),
            "breakers": dict(self.breakers) if self.breakers else {},
        }


@dataclass(frozen=True)
class WireHeartbeat:
    """Worker -> coordinator while a bundle runs: extend the lease."""

    shard: int


@dataclass(frozen=True)
class WireResult:
    """Worker -> coordinator: one completed shard's payload.

    The fields are the mapping
    :func:`repro.measure.engine._run_shard_bundle` returns — records
    are the worker's canonically serialized JSONL lines, passed through
    to spools and checkpoints without a decode.
    """

    shard: int
    pid: int
    elapsed: float
    outcomes: Tuple[Dict, ...]
    #: The ordered ``task-retry``/``breaker-*`` notes.
    notes: Tuple[Dict, ...] = ()
    breakers: Optional[Dict[str, Dict]] = None

    @classmethod
    def from_payload(cls, payload: Dict) -> "WireResult":
        return cls(**dict(
            payload,
            outcomes=tuple(payload["outcomes"]),
            notes=tuple(payload["notes"]),
        ))

    def to_payload(self) -> Dict:
        """The engine-shaped payload ``CrawlEngine._absorb_shard`` takes."""
        return dict(vars(self), breakers=self.breakers or {})

    def validate_against(self, bundle: "WireBundle") -> None:
        """Check the reply's shape, then its fit to the dispatched bundle.

        A reply whose outcomes drop, duplicate, or invent task indices
        would silently desynchronise the merge from the plan, and a
        note or outcome of the wrong shape would abort the absorbing
        run; raise :class:`WireProtocolError` instead and let the
        coordinator's re-dispatch/degrade machinery handle it.
        """
        _RESULT(vars(self))
        if self.shard != bundle.shard:
            raise WireProtocolError(
                f"result names shard {self.shard!r}, expected {bundle.shard}"
            )
        expected = sorted(entry[0] for entry in bundle.tasks)
        got = sorted(entry["index"] for entry in self.outcomes)
        if got != expected:
            raise WireProtocolError(
                f"shard {bundle.shard}: reply covers indices {got!r}, "
                f"bundle holds {expected!r}"
            )
        if not {note["index"] for note in self.notes} <= set(expected):
            raise WireProtocolError(
                f"shard {bundle.shard}: a note names a task outside the bundle"
            )
        _refuse_foreign_breakers(self.breakers, bundle.tasks)


#: ``type`` tag -> message class (the wire's dispatch table).
MESSAGE_TYPES = {
    "hello": WireHello,
    "shared": WireShared,
    "bundle": WireBundle,
    "heartbeat": WireHeartbeat,
    "result": WireResult,
}
_TYPE_TAGS = {cls: tag for tag, cls in MESSAGE_TYPES.items()}
#: Message class -> its field names, in declaration order.
_FIELDS = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in MESSAGE_TYPES.values()
}


def encode_message(message) -> bytes:
    """One message as one JSON frame (``\\n``-terminated bytes).

    The body maps each field to its value as it stands: the fields hold
    JSON data only, so ``json.dumps`` writes what a deep copy
    (``dataclasses.asdict``) would, without copying every outcome.
    """
    tag = _TYPE_TAGS.get(type(message))
    if tag is None:
        raise WireProtocolError(
            f"cannot encode {type(message).__name__} as a wire frame"
        )
    body = {name: getattr(message, name) for name in _FIELDS[type(message)]}
    body["type"] = tag
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: bytes):
    """Parse one frame back into its message dataclass.

    Every malformation — bad UTF-8, bad or too deeply nested JSON, a
    non-object, an unknown or missing ``type``, unexpected fields —
    raises
    :class:`WireProtocolError` with the offending detail.
    """
    try:
        body = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and overlong integer
        # literals; RecursionError, nesting deeper than the parser's
        # stack.
        raise WireProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(body, dict):
        raise WireProtocolError(
            f"frame must be a JSON object, got {type(body).__name__}"
        )
    tag = body.pop("type", None)
    cls = MESSAGE_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise WireProtocolError(f"unknown frame type {tag!r}")
    unknown = sorted(set(body) - set(_FIELDS[cls]))
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
