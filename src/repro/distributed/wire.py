"""The JSON-framed wire protocol between coordinator and workers.

One frame is one JSON object on one ``\\n``-terminated line — the same
append-friendly framing the spools and checkpoints use, so a captured
session is greppable and a torn connection can never leave a half-read
frame ambiguous.

A frame is plain data: a dict whose ``type`` tag names one of
:data:`FRAMES`, and whose other keys are the engine's own — a bundle
frame is the engine's shard bundle, a result frame the payload
:func:`~repro.measure.engine._run_shard_bundle` returns, a shared frame
the run-constant worker state (world key, detectors' constructor
arguments, retry policy, plan context) every worker installs once.
:func:`decode_message` checks each frame against its tag's
:mod:`repro.schema` shape, so a frame that decodes is one its receiver
can unpack; :func:`check_reply` adds what a result must match in the
bundle it answers.  An unknown tag, a frame that does not fit its
shape, or a reply that does not fit its bundle raises
:class:`~repro.errors.WireProtocolError` naming what is wrong, which
the coordinator converts into re-dispatch (and, past the budget, into
structured transport-degraded records) rather than a silent drop.
Nothing that crosses the socket is ever unpickled or executed.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro import schema
from repro.errors import WireProtocolError
from repro.measure.engine import TASK_MODES
from repro.resilience.breaker import SNAPSHOT

#: Version tag exchanged in the hello; a mismatch is refused up front
#: (a worker from another release must not silently compute different
#: bytes).
WIRE_PROTOCOL_VERSION = 3

#: Upper bound for one frame (a shard of records comes back as one
#: result frame; 128 MiB is ~3 orders of magnitude above the largest
#: shard the benchmarks produce).
MAX_FRAME_BYTES = 128 * 1024 * 1024

_BREAKERS = {str: SNAPSHOT}  # breaker snapshots by domain

#: ``type`` tag -> the shape a frame of that type fits, as a
#: :mod:`repro.schema` checker.
FRAMES = {
    tag: schema.compile(
        {"type": str, **shape},
        lambda text, tag=tag: WireProtocolError(f"malformed {tag} frame: {text}"),
    )
    for tag, shape in {
        # Worker -> coordinator, once per connection.
        "hello": {"worker": str, "pid": int, "protocol": int},
        # Coordinator -> worker, once per connection, before any
        # bundle; _init_worker_shared checks the state's own shape.
        "shared": {"state": dict},
        # Coordinator -> worker: one shard of work.  Tasks are
        # ``[index, vp, domain, mode, repeats]`` in plan order;
        # id_bases are ``[index, visit-id stream seed]`` pairs (empty:
        # the serial regime's shared counter); breakers are the
        # snapshots entering the shard.
        "bundle": {
            "shard": int,
            "tasks": [[int, str, str, schema.OneOf(TASK_MODES), int]],
            "id_bases": [[int, int]],
            "breakers": _BREAKERS,
        },
        # Worker -> coordinator while a bundle runs: extend the lease.
        "heartbeat": {"shard": int},
        # Worker -> coordinator: one completed shard.  Records are the
        # worker's canonically serialized JSONL lines, passed through
        # to spools and checkpoints without a decode.
        "result": {
            "shard": int, "pid": int, "elapsed": float,
            "outcomes": [{
                "index": int, "attempts": schema.Range(int, min=0),
                "error": (None, str), "record": (None, str),
            }],
            "notes": [(
                {"kind": schema.OneOf(("task-retry",)), "index": int,
                 "attempt": int, "error": str},
                {"kind": schema.OneOf(("breaker-open", "breaker-close")),
                 "index": int},
            )],
            "breakers": _BREAKERS,
        },
    }.items()
}


def _refuse_foreign_breakers(breakers: Dict, tasks) -> None:
    if not set(breakers) <= {entry[2] for entry in tasks}:
        raise WireProtocolError("breakers name a domain outside the bundle")


def check_reply(result: Dict, bundle: Dict) -> None:
    """Check a decoded result frame's fit to the *bundle* it answers.

    A reply whose outcomes drop, duplicate, or invent task indices
    would silently desynchronise the merge from the plan, and a note
    or breaker outside the bundle would abort the absorbing run; raise
    :class:`WireProtocolError` instead and let the coordinator's
    re-dispatch/degrade machinery handle it.
    """
    if result["shard"] != bundle["shard"]:
        raise WireProtocolError(
            f"result names shard {result['shard']!r}, expected {bundle['shard']}"
        )
    expected = sorted(entry[0] for entry in bundle["tasks"])
    got = sorted(outcome["index"] for outcome in result["outcomes"])
    if got != expected:
        raise WireProtocolError(
            f"shard {bundle['shard']}: reply covers indices {got!r}, "
            f"bundle holds {expected!r}"
        )
    if not {note["index"] for note in result["notes"]} <= set(expected):
        raise WireProtocolError(
            f"shard {bundle['shard']}: a note names a task outside the bundle"
        )
    _refuse_foreign_breakers(result["breakers"], bundle["tasks"])


def encode_message(frame: Dict) -> bytes:
    """One frame as one JSON line (``\\n``-terminated bytes)."""
    return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict:
    """Parse one frame and check it against its ``type``'s shape.

    Every malformation — bad UTF-8, bad or too deeply nested JSON, a
    non-object, an unknown or missing ``type``, a frame that does not
    fit its shape, a bundle whose breakers name a domain none of its
    tasks visits — raises :class:`WireProtocolError` with the
    offending detail.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and overlong integer
        # literals; RecursionError, nesting deeper than the parser's
        # stack.
        raise WireProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(frame, dict):
        raise WireProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    tag = frame.get("type")
    check = FRAMES.get(tag) if isinstance(tag, str) else None
    if check is None:
        raise WireProtocolError(f"unknown frame type {tag!r}")
    check(frame)
    if tag == "bundle":
        _refuse_foreign_breakers(frame["breakers"], frame["tasks"])
    return frame


def write_frame(wfile, frame: Dict) -> None:
    """Write one frame to a binary file-like and flush."""
    wfile.write(encode_message(frame))
    wfile.flush()


def read_frame(rfile) -> Optional[Dict]:
    """Read and decode one frame; ``None`` on EOF (orderly close).

    Raises :class:`WireProtocolError` for an overlong or truncated
    frame (a line without its terminator is a torn write, never a
    frame).
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
