"""The worker side of the wire.

A worker dials the coordinator, introduces itself, installs the
run-constant JSON worker state the coordinator sends once
(:func:`~repro.measure.engine._init_worker_shared`), and then runs
each received shard bundle through
:func:`~repro.measure.engine._run_shard_bundle`, the worker entry
point, which runs the engine's one shard runner
(:func:`~repro.measure.engine.run_shard`) on the installed crawler.
The wire adds framing, never a second execution path, so a shard
computes the same bytes as a serial run.

Workers come to exist two ways and then speak the same protocol: the
coordinator starts its local ones as :mod:`multiprocessing` children
(:func:`serve_local_worker`, forked where the platform allows, so they
inherit its world), and an external worker is a
``repro-cookiewalls worker serve --connect HOST:PORT`` process.

While a bundle runs, a sidecar thread heartbeats the coordinator so a
long shard is distinguishable from a dead worker; the coordinator's
lease only expires on silence.  The worker exits when the coordinator
closes the connection (the run is complete) — a crash simply drops the
socket, which the coordinator converts into a re-dispatch.  A local
worker also exits as soon as its coordinator process is gone.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from typing import Optional, Tuple

from repro.distributed.wire import WIRE_PROTOCOL_VERSION, read_frame, write_frame
from repro.errors import WireProtocolError
from repro.measure.engine import _init_worker_shared, _run_shard_bundle


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
                    write_frame(
                        self._wfile, {"type": "heartbeat", "shard": self._shard}
                    )
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
        write_frame(wfile, {
            "type": "hello", "worker": name, "pid": os.getpid(),
            "protocol": WIRE_PROTOCOL_VERSION,
        })
        installed = False
        while True:
            frame = read_frame(rfile)
            if frame is None:
                break
            if frame["type"] == "shared":
                _init_worker_shared(frame["state"])
                installed = True
                continue
            if not (installed and frame["type"] == "bundle"):
                raise WireProtocolError(
                    f"worker expected {'a bundle' if installed else 'the shared state'}"
                    f", got a {frame['type']} frame"
                )
            with _Heartbeat(
                wfile, write_lock, frame["shard"], heartbeat_interval
            ):
                payload = _run_shard_bundle(frame)
            with write_lock:
                write_frame(wfile, {"type": "result", **payload})
            shards_served += 1
    return shards_served


def _exit_with_parent() -> None:
    """Exit this :mod:`multiprocessing` child as soon as its parent is
    gone.  A local worker otherwise outlives a hard-killed coordinator,
    running its bundle to the end with a world in memory."""
    parent = multiprocessing.parent_process().pid

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def serve_local_worker(
    address: Tuple[str, int],
    heartbeat_interval: float,
    listener: Optional[socket.socket],
) -> None:
    """A coordinator-started worker's body: serve *address* until the
    run ends or the coordinator process is gone.

    *listener* is the coordinator's listening socket a forked child
    inherited (``None`` when spawned); it is closed before dialing.
    Ctrl-C is the coordinator's to handle: it shuts its workers down.
    A lost connection ends the worker with exit status 1 and no
    traceback; the coordinator already re-dispatches the shard.
    """
    if listener is not None:
        listener.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _exit_with_parent()
    try:
        serve_worker(*address, heartbeat_interval=heartbeat_interval)
    except (OSError, WireProtocolError):
        raise SystemExit(1) from None
