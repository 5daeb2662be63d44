"""The worker side of the wire: ``repro-cookiewalls worker serve``.

A worker dials the coordinator, introduces itself, installs the
run-constant shared state the coordinator sends once, and then runs
each received shard bundle through
:func:`~repro.measure.engine._run_shard_bundle` — the process pool's
worker entry point, which rebuilds the crawler and runs the engine's
one shard runner (:func:`~repro.measure.engine.run_shard`).  The wire
adds framing, never a second execution path, so a shard computes the
same bytes no matter which transport carried it.

While a bundle runs, a sidecar thread heartbeats the coordinator so a
long shard is distinguishable from a dead worker; the coordinator's
lease only expires on silence.  The worker exits when the coordinator
closes the connection (the run is complete) — a crash simply drops the
socket, which the coordinator converts into a re-dispatch.
"""

from __future__ import annotations

import base64
import os
import pickle
import socket
import threading
from typing import Optional

from repro.distributed.wire import (
    WireBundle,
    WireHeartbeat,
    WireHello,
    WireResult,
    WireShared,
    read_frame,
    write_frame,
)
from repro.errors import WireProtocolError


def _install_shared(message: WireShared) -> None:
    """Decode the shared blob and install it for ``_run_shard_bundle``."""
    from repro.measure.engine import _init_worker_shared

    try:
        shared = pickle.loads(base64.b64decode(message.blob.encode("ascii")))
    except Exception as error:
        raise WireProtocolError(
            f"shared state blob does not unpickle: {error}"
        ) from error
    if not isinstance(shared, dict):
        raise WireProtocolError(
            "shared state blob is not the run-constant dict"
        )
    _init_worker_shared(shared)


class _Heartbeat:
    """Send a heartbeat frame for *shard* every *interval* seconds.

    Socket writes are serialized with the result write through *lock*,
    so a heartbeat can never tear the result frame.
    """

    def __init__(self, wfile, lock: threading.Lock, shard: int,
                 interval: float) -> None:
        self._wfile = wfile
        self._lock = lock
        self._shard = shard
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    write_frame(self._wfile, WireHeartbeat(shard=self._shard))
            except OSError:
                return  # the coordinator went away; the main loop notices

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def serve_worker(
    host: str,
    port: int,
    *,
    worker_id: Optional[str] = None,
    heartbeat_interval: float = 1.0,
) -> int:
    """Serve shard bundles from the coordinator at ``host:port``.

    Blocks until the coordinator closes the connection; returns the
    number of shards served.  Protocol violations raise
    :class:`~repro.errors.WireProtocolError` (the coordinator treats
    the dropped connection as a lost worker and re-dispatches).
    """
    shards_served = 0
    name = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    with socket.create_connection((host, port)) as conn:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        write_lock = threading.Lock()
        write_frame(wfile, WireHello(worker=name, pid=os.getpid()))
        while True:
            message = read_frame(rfile)
            if message is None:
                break
            if isinstance(message, WireShared):
                _install_shared(message)
                continue
            if not isinstance(message, WireBundle):
                raise WireProtocolError(
                    f"worker expected a bundle, got "
                    f"{type(message).__name__}"
                )
            from repro.measure.engine import _run_shard_bundle

            with _Heartbeat(
                wfile, write_lock, message.shard, heartbeat_interval
            ):
                payload = _run_shard_bundle(message.to_bundle())
            with write_lock:
                write_frame(wfile, WireResult.from_payload(payload))
            shards_served += 1
    return shards_served
