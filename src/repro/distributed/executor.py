"""The coordinator side of the wire: :class:`DistributedExecutor`.

``EngineSpec.executor="distributed"`` selects this transport: it
carries the engine's shard bundles — the same ones every backend runs
through :func:`~repro.measure.engine.run_shard` — as JSON frames to
workers that connected over a socket work queue, and hands each
worker's result payload to the engine's one absorb path.

Resilience model, riding the existing plane:

- **Heartbeats** — a working worker beats every ``heartbeat_interval``
  seconds; silence is the only thing that expires a lease.
- **Leases** — every dispatched bundle carries a deadline; a worker
  gone silent past ``lease_timeout`` has its connection closed and the
  shard re-queued.
- **Re-dispatch** — a lost worker (dropped socket, expired lease) or a
  malformed reply re-queues the bundle, up to ``max_dispatches`` total
  attempts.  Bundles are pure functions of the plan, so a re-run shard
  produces identical bytes and the merged spool stays byte-identical
  to the serial backend.
- **Transport degradation** — a bundle that exhausts its budget (and
  any undecodable record inside an otherwise valid reply) degrades to
  structured records with a :class:`~repro.errors.TransportError`-
  family error name (taxonomy category ``transport``), never a silent
  drop: record counts always equal the plan size.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import queue
import socket
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

# Frames are encoded through the module, where perfbench times them.
from repro.distributed import wire
from repro.distributed.wire import WIRE_PROTOCOL_VERSION, check_reply, read_frame
from repro.distributed.worker import serve_local_worker
from repro.errors import TransportError, WireProtocolError, WorkerLostError
from repro.measure.engine import CrawlTask, Executor
from repro.measure.storage import encode_record_line, validate_record_payload
from repro.resilience.degrade import degraded_record


def _worker_context():
    """The :mod:`multiprocessing` context local workers start in:
    ``fork`` where available (a worker inherits the coordinator's world
    through :data:`~repro.measure.engine._WORLDS` and skips the
    rebuild), ``spawn`` elsewhere."""
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


class _BundleState:
    """One shard bundle's dispatch bookkeeping.  The bundle and its
    frame are fixed: encoded once, a re-dispatch resends the same
    bytes."""

    __slots__ = ("bundle", "frame", "dispatches", "last_error")

    def __init__(self, bundle: Dict) -> None:
        self.bundle = bundle
        self.frame = wire.encode_message({"type": "bundle", **bundle})
        self.dispatches = 0
        self.last_error = "WorkerLostError"


class DistributedExecutor(Executor):
    """Runs shard bundles on socket-connected worker processes.

    Parameters
    ----------
    workers:
        Local worker processes to start.  Each is a
        :mod:`multiprocessing` child, forked where the platform allows
        (it inherits the coordinator's world and skips the rebuild),
        that serves this coordinator through
        :func:`~repro.distributed.worker.serve_worker`, as
        ``repro-cookiewalls worker serve`` does.  ``0`` starts none
        and waits for external workers to dial ``host:port``.
    host, port:
        The work-queue listening address; port ``0`` picks an
        ephemeral port (:attr:`address` exposes the bound address
        while a run is live — CLI-started workers connect to it).
    lease_timeout:
        Real seconds of *silence* (no heartbeat, no result) after
        which a dispatched shard's lease expires and the shard is
        re-queued.
    heartbeat_interval:
        Heartbeat period of the local workers.
    max_dispatches:
        Total dispatch attempts per bundle before its tasks degrade
        to transport records.
    connect_timeout:
        Real seconds to wait for the first worker (and, with no live
        worker, for a replacement) before failing the run with
        :class:`~repro.errors.WorkerLostError`.
    """

    backend = "distributed"

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 60.0,
        heartbeat_interval: float = 1.0,
        max_dispatches: int = 3,
        connect_timeout: float = 30.0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = external workers)")
        if max_dispatches < 1:
            raise ValueError("max_dispatches must be >= 1")
        self.workers = workers
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        self.max_dispatches = max_dispatches
        self.connect_timeout = connect_timeout
        #: ``(host, port)`` of the live work queue (None when idle).
        self.address: Optional[tuple] = None
        self._reset_run_state()

    # -- run state -----------------------------------------------------
    def _reset_run_state(self) -> None:
        self._shared_frame = b""
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._inflight: Dict[int, List] = {}  # key -> [state, deadline]
        self._completed: set = set()
        #: ``(payload, bundle)`` per finished (or degraded) shard.
        self._results: "queue.Queue[tuple]" = queue.Queue()
        self._finished = threading.Event()
        self._live_workers = 0
        self._last_live = time.monotonic()
        self._connections: List[socket.socket] = []
        self._procs: List = []  # multiprocessing.Process

    # -- public entry point -------------------------------------------
    def run_bundles(
        self,
        bundles: List[Dict],
        on_shard: Callable[[Dict], None],
        shared: Dict[str, object],
    ) -> None:
        """Dispatch *bundles* over the wire; absorb payloads in order
        of completion via *on_shard* (the engine's absorb callback runs
        on the calling thread).

        *shared* is the JSON worker state; every connection receives
        it once, as a shared frame.
        """
        if not bundles:
            return
        self._reset_run_state()
        try:  # fail here, not later in every connection thread
            self._shared_frame = wire.encode_message(
                {"type": "shared", "state": shared}
            )
        except (TypeError, ValueError) as error:
            raise TransportError(
                "the distributed backend ships the run-constant worker "
                "state (detectors, retry policy, plan context) as JSON, "
                f"and it is not JSON data: {error}"
            ) from error
        for bundle in bundles:
            self._pending.append(_BundleState(bundle))
        remaining = {bundle["shard"] for bundle in bundles}
        listener = socket.create_server((self.host, self.port))
        self.address = listener.getsockname()[:2]
        self._last_live = time.monotonic()
        try:
            # Fork before this run starts a thread: a child copies
            # only the forking thread, never a lock another one held.
            self._start_workers(listener)
            threading.Thread(
                target=self._accept_loop, args=(listener,), daemon=True
            ).start()
            while remaining:
                try:
                    payload, bundle = self._results.get(timeout=0.2)
                except queue.Empty:
                    self._check_liveness(bool(remaining))
                    continue
                shard = payload["shard"]
                with self._cond:
                    if shard in self._completed:
                        continue  # re-dispatch raced a slow original
                    self._completed.add(shard)
                remaining.discard(shard)
                on_shard(_sanitize(payload, bundle))
        finally:
            self.address = None
            self._finished.set()
            with self._cond:
                self._cond.notify_all()
            try:
                listener.close()
            except OSError:
                pass
            self._shutdown_workers()

    # -- worker processes ----------------------------------------------
    def _start_workers(self, listener: socket.socket) -> None:
        """Start the local workers in :func:`_worker_context`.

        The heap is frozen across the forks, so the children's garbage
        collections never walk the inherited objects, nor copy their
        pages on write.  A forked child closes its copy of *listener*
        before it dials.
        """
        if not self.workers:
            return
        context = _worker_context()
        inherited = listener if context.get_start_method() == "fork" else None
        gc.freeze()
        try:
            for _ in range(self.workers):
                process = context.Process(
                    target=serve_local_worker,
                    args=(self.address, self.heartbeat_interval, inherited),
                    daemon=True,
                )
                process.start()
                self._procs.append(process)
        finally:
            gc.unfreeze()

    def _shutdown_workers(self) -> None:
        for conn in list(self._connections):
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc.exitcode is None:
                proc.terminate()
        for proc in self._procs:
            proc.join(5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def _check_liveness(self, work_remains: bool) -> None:
        """Fail fast when no worker can ever drain the queue."""
        if not work_remains:
            return
        now = time.monotonic()
        with self._cond:
            if self._live_workers > 0:
                self._expire_leases(now)
                return
        locals_all_dead = self._procs and all(
            proc.exitcode is not None for proc in self._procs
        )
        waited = now - self._last_live
        if locals_all_dead or waited > self.connect_timeout:
            self._finished.set()
            raise WorkerLostError(
                "the distributed work queue has no live workers "
                f"({'all local workers exited' if locals_all_dead else f'none connected for {waited:.0f}s'}); "
                "completed shards are checkpointed — rerun with resume"
            )

    def _expire_leases(self, now: float) -> None:
        """Re-queue shards whose worker went silent past its lease.

        Called with ``self._cond`` held.  The connection itself is torn
        down by its handler when the re-run result dedupes it, or by
        shutdown — a silent worker holding a dead socket costs nothing.
        """
        for key, entry in list(self._inflight.items()):
            state, deadline = entry
            if now > deadline:
                del self._inflight[key]
                self._requeue_locked(state, "WorkerLostError")

    # -- the work queue ------------------------------------------------
    def _claim(self) -> Optional[_BundleState]:
        with self._cond:
            while True:
                if self._finished.is_set():
                    return None
                if self._pending:
                    state = self._pending.popleft()
                    state.dispatches += 1
                    return state
                self._cond.wait(0.2)

    def _requeue_locked(self, state: _BundleState, error: str) -> None:
        """Strike *state* and re-queue (or degrade) it.  Lock held."""
        shard = state.bundle["shard"]
        state.last_error = error
        if shard in self._completed:
            return  # another dispatch already delivered this shard
        if any(s is state for s in self._pending):
            return  # already re-queued (lease expiry raced the EOF)
        if state.dispatches >= self.max_dispatches:
            self._results.put((self._degraded_payload(state), state.bundle))
            return
        self._pending.append(state)
        self._cond.notify_all()

    # -- transport degradation (taxonomy category "transport") ---------
    def _degraded_payload(self, state: _BundleState) -> Dict:
        """A synthetic shard payload: every task degraded, none dropped."""
        return {
            "shard": state.bundle["shard"],
            "pid": 0,
            "elapsed": 0.0,
            "outcomes": [
                {"index": entry[0], "attempts": 0, "error": state.last_error,
                 "record": _degraded_line(entry, state.last_error)}
                for entry in state.bundle["tasks"]
            ],
            "breakers": {},
            "notes": [],
        }

    # -- connection handling -------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._finished.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: run over
            self._connections.append(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        key = id(conn)
        state: Optional[_BundleState] = None
        try:
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            hello = read_frame(rfile)
            if hello is None or hello["type"] != "hello":
                raise WireProtocolError("worker did not introduce itself")
            if hello["protocol"] != WIRE_PROTOCOL_VERSION:
                raise WireProtocolError(
                    f"worker speaks wire protocol {hello['protocol']}, "
                    f"coordinator speaks {WIRE_PROTOCOL_VERSION}"
                )
            wfile.write(self._shared_frame)
            wfile.flush()
            with self._cond:
                self._live_workers += 1
                self._last_live = time.monotonic()
            try:
                while True:
                    state = self._claim()
                    if state is None:
                        return
                    with self._cond:
                        self._inflight[key] = [
                            state, time.monotonic() + self.lease_timeout
                        ]
                    wfile.write(state.frame)
                    wfile.flush()
                    delivered = self._pump_until_result(rfile, key, state)
                    # Either way the pump settled this bundle (result
                    # delivered, or strike recorded) — the cleanup
                    # below must not strike it a second time.
                    state = None
                    if not delivered:
                        return
            finally:
                with self._cond:
                    self._live_workers -= 1
                    if self._live_workers > 0:
                        self._last_live = time.monotonic()
        except (OSError, WireProtocolError, ValueError):
            pass
        finally:
            with self._cond:
                entry = self._inflight.pop(key, None)
                if entry is not None:
                    self._requeue_locked(entry[0], "WorkerLostError")
                elif state is not None and not self._finished.is_set():
                    # Claimed but never recorded in-flight (send failed).
                    self._requeue_locked(state, "WorkerLostError")
            try:
                conn.close()
            except OSError:
                pass

    def _pump_until_result(
        self, rfile, key: int, state: _BundleState
    ) -> bool:
        """Read frames until *state*'s result lands; False ends the
        connection (worker lost or protocol violation — the shard is
        re-queued by the caller's cleanup or here)."""
        while True:
            try:
                frame = read_frame(rfile)
                if frame is None:  # EOF: the worker died mid-shard
                    self._finish_inflight(key, "WorkerLostError")
                    return False
                if frame["type"] == "heartbeat":
                    with self._cond:
                        entry = self._inflight.get(key)
                        if entry is not None:
                            entry[1] = time.monotonic() + self.lease_timeout
                    continue
                if frame["type"] != "result":
                    raise WireProtocolError("expected a result frame")
                check_reply(frame, state.bundle)
            except WireProtocolError:
                self._finish_inflight(key, "WireProtocolError")
                return False
            with self._cond:
                self._inflight.pop(key, None)
            self._results.put((frame, state.bundle))
            return True

    def _finish_inflight(self, key: int, error: str) -> None:
        with self._cond:
            entry = self._inflight.pop(key, None)
            if entry is not None:
                self._requeue_locked(entry[0], error)



def _degraded_line(entry, error: str) -> str:
    """The degraded record line for the bundle task tuple *entry*."""
    return encode_record_line(degraded_record(CrawlTask(*entry[1:]), error))


def _sanitize(payload: Dict, bundle: Dict) -> Dict:
    """Degrade any undecodable record line inside a valid reply.

    The coordinator splices worker record lines into spools and
    checkpoints without a typed decode, so a corrupt line would
    poison the merged output far from its cause.  One structural
    parse here converts it into a transport-degraded record at the
    boundary instead.
    """
    tasks = {entry[0]: entry for entry in bundle["tasks"]}
    for outcome in payload["outcomes"]:
        if outcome["record"] is None:
            continue
        try:
            validate_record_payload(json.loads(outcome["record"]))
        except (ValueError, TypeError):
            outcome["record"] = _degraded_line(
                tasks[outcome["index"]], "WireProtocolError"
            )
            outcome["error"] = "WireProtocolError"
    return payload
