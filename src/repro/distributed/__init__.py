"""repro.distributed — the shard-bundle wire plane.

The engine reduces every shard to a transport-agnostic JSON bundle
(task entries + per-task visit-id seeds + breaker snapshots) that its one
shard runner executes; worker transports get canonically serialized
record lines back.  This package ships that exact contract over a
socket work queue:

- :mod:`repro.distributed.wire` — the JSON-framed protocol (wire
  protocol 3): one JSON object per line, each frame a plain dict
  checked against its ``type``'s :mod:`repro.schema` shape
  (:data:`~repro.distributed.wire.FRAMES`) as it is decoded.
- :mod:`repro.distributed.worker` — the worker side:
  :func:`serve_worker` dials the coordinator, receives the
  run-constant JSON worker state once, then runs
  :func:`~repro.measure.engine._run_shard_bundle` per bundle behind
  the wire, heartbeating while it works.  The coordinator's local
  workers run it as forked :mod:`multiprocessing` children (they
  inherit its world); an external worker runs it as
  ``repro-cookiewalls worker serve --connect HOST:PORT``.
- :mod:`repro.distributed.executor` — :class:`DistributedExecutor`,
  the coordinator and the engine's one parallel backend (what
  ``workers > 1`` runs on): it forks the local workers, then runs a
  listening socket, a lease per dispatched bundle, re-dispatch of
  shards whose worker died (or went silent past its lease), and
  transport-degraded records when a bundle exhausts its re-dispatch
  budget — record counts always equal the plan size.

Determinism contract: bundles are pure functions of the plan, so a
shard re-run by a different worker (or re-dispatched after a kill)
produces the same bytes — the merged spool stays byte-identical to
the serial backend.

A bundle frame is the engine's own bundle dict, data only
(``shard, tasks, id_bases, breakers``): nothing in it can tell a worker
to misbehave, the worker runs it exactly as decoded, and a re-dispatch
resends the same bytes.  A result frame is the worker's shard payload,
absorbed as decoded once :func:`~repro.distributed.wire.check_reply`
has matched it to its bundle.  A lost worker is a fault of the
environment, so the tests produce one from outside — a peer that takes
a bundle and hangs up, which the coordinator cannot tell from a killed
worker.
"""

from repro.distributed.executor import DistributedExecutor
from repro.distributed.wire import (
    WIRE_PROTOCOL_VERSION,
    decode_message,
    read_frame,
    write_frame,
)
from repro.distributed.worker import serve_worker

__all__ = [
    "DistributedExecutor",
    "WIRE_PROTOCOL_VERSION",
    "decode_message",
    "read_frame",
    "serve_worker",
    "write_frame",
]
