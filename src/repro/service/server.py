"""The campaign service: a thin long-lived HTTP server over Session.

One background runner thread drains the :class:`JobQueue` and executes
each campaign through exactly the path every other entry point uses —
``Session(spec).run()`` — with the output redirected under the
service's data directory and the engine forced resumable.  The HTTP
layer (stdlib ``ThreadingHTTPServer``; the service adds no
dependencies) only translates between the wire and the queue:

========================================  =================================
``GET  /v1/health``                       liveness + schema versions
``POST /v1/campaigns``                    submit ``{"spec": <versioned
                                          RunSpec dict>, "tenant", "priority"}``
``GET  /v1/campaigns``                    list jobs
``GET  /v1/campaigns/<id>``               one job's status
``GET  /v1/campaigns/<id>/records``       stream the finished JSONL
``POST /v1/campaigns/<id>/cancel``        cancel queued/running
========================================  =================================

Error mapping: a body that is not ``{"spec": object, "tenant": str,
"priority": int}`` (both of the last two optional) is HTTP 400 naming
the field, e.g. ``body.priority: expected int, got 'high'``; so is an
invalid or future-versioned spec (with the readable
:class:`~repro.api.SpecVersionError` message); a quota
breach is 429, an unknown id is 404, records of an unfinished
campaign are 409.

Because job ids are content-addressed and each job's outputs live
under ``campaigns/<id>/``, a killed service restarted with
``--resume`` simply requeues its persisted unfinished jobs; each
campaign's engine then reconciles the checkpoints it left behind
(fingerprint-checked), re-running only what never completed.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import schema
from repro.api.session import Session
from repro.api.spec import SPEC_SCHEMA_VERSION, RunSpec
from repro.service.jobs import (
    Job,
    JobCancelled,
    JobQueue,
    QuotaExceeded,
    job_id,
    load_jobs,
    persist_job,
)

#: The ``POST /v1/campaigns`` body.
_check_submission = schema.compile({
    "spec": dict, "tenant": schema.Omittable(str), "priority": schema.Omittable(int),
}, ValueError, "body")


def parse_submission(raw: bytes) -> Tuple[RunSpec, str, int]:
    """A ``POST /v1/campaigns`` body as ``(spec, tenant, priority)``, or a
    :class:`ValueError` (a :class:`~repro.api.SpecError`) naming the misfit."""
    body = _check_submission(json.loads(raw.decode("utf-8")) if raw else {})
    spec = RunSpec.from_dict(body["spec"])
    return spec, body.get("tenant", "default"), body.get("priority", 0)


class CampaignService:
    """Owns the queue, the runner thread, and the HTTP front-end."""

    def __init__(
        self,
        data_dir,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        quota: int = 4,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.host = host
        self.port = port
        self.queue = JobQueue(quota=quota)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._runner: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Serialises persists; the newest revision written, by job id.
        self._persist_lock = threading.Lock()
        self._persisted: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self, *, resume: bool = False) -> "CampaignService":
        self.data_dir.mkdir(parents=True, exist_ok=True)
        if resume:
            self._restore_jobs()
        self._stop.clear()
        self._httpd = ThreadingHTTPServer(
            (self.host, self.port), _handler_for(self)
        )
        self.port = self._httpd.server_address[1]
        threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        ).start()
        self._runner = threading.Thread(target=self._run_jobs, daemon=True)
        self._runner.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._runner is not None:
            self._runner.join(timeout=10.0)
            self._runner = None

    def serve_forever(self, *, resume: bool = False) -> int:
        """CLI mode: start, print the address, block until interrupted."""
        self.start(resume=resume)
        print(f"campaign service listening on {self.url} "
              f"(data under {self.data_dir})", flush=True)
        try:
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
        return 0

    def _restore_jobs(self) -> None:
        """Requeue persisted unfinished jobs (the ``--resume`` path).

        A job found ``running`` died with its service; its campaign
        directory holds whatever checkpoints the engine flushed, so
        requeueing it re-runs only the unfinished remainder.
        """
        for job in load_jobs(self.data_dir / "jobs"):
            # Unfinished jobs are requeued; finished ones stay visible
            # (status/records endpoints).
            if self.queue.restore(job):
                self._persist(job.id)

    # ------------------------------------------------------------------
    # Submission / execution
    # ------------------------------------------------------------------
    def submit(
        self, spec: RunSpec, *, tenant: str = "default", priority: int = 0
    ) -> Job:
        job = self.queue.submit(Job(
            id=job_id(spec, tenant),
            spec=spec,
            tenant=tenant,
            priority=priority,
        ))
        return self._persist(job.id)

    def _persist(self, claimed_id: str) -> Job:
        """Durably record a snapshot of the job, taken under the queue
        lock, and return it.

        The HTTP threads and the runner persist the same job
        concurrently, so a snapshot can arrive after a newer one was
        written (a cancel racing the runner's final state); persists
        are serialised and such a stale snapshot is dropped.
        """
        job = self.queue.copy(claimed_id)
        with self._persist_lock:
            if job.revision >= self._persisted.get(job.id, 0):
                persist_job(self.data_dir / "jobs", job)
                self._persisted[job.id] = job.revision
        return job

    def _campaign_dir(self, claimed_id: str) -> Path:
        return self.data_dir / "campaigns" / claimed_id

    def _localized_spec(self, job: Job) -> RunSpec:
        """The job's spec with output owned by the service.

        Output lands under ``campaigns/<id>/`` regardless of what the
        submitted spec asked for (the service never writes to
        client-chosen paths), checkpointing is forced on, and resume is
        forced on — against this job's own directory that is a no-op
        for a fresh campaign and a fingerprint-checked restore for an
        interrupted one.
        """
        campaign_dir = self._campaign_dir(job.id)
        campaign_dir.mkdir(parents=True, exist_ok=True)
        if job.spec.kind in ("crawl", "measure"):
            output = {
                "path": str(campaign_dir / "records.jsonl"),
                "out_dir": None,
            }
        else:
            output = {"path": None, "out_dir": str(campaign_dir)}
        return job.spec.override({
            "output": output,
            "engine": {"resume": True, "checkpoint": True},
        })

    def _run_jobs(self) -> None:
        while not self._stop.is_set():
            job = self.queue.next_job(timeout=0.2)
            if job is None:
                continue
            try:
                self._persist(job.id)
                self._execute(job)
            except Exception as error:  # noqa: BLE001 — one bad job never kills the runner
                self.queue.finish(
                    job.id, "failed", error=f"{type(error).__name__}: {error}"
                )

    def _execute(self, job: Job) -> None:
        def progress(done: int, total: int, task) -> None:
            if job.cancel_requested or self._stop.is_set():
                raise JobCancelled(
                    f"campaign {job.id} cancelled at task {done}/{total}"
                )

        try:
            spec = self._localized_spec(job)
            result = Session(spec, progress=progress).run()
        except JobCancelled:
            self.queue.finish(job.id, "cancelled")
        except Exception as error:  # noqa: BLE001 — jobs never kill the service
            self.queue.finish(
                job.id, "failed", error=f"{type(error).__name__}: {error}"
            )
        else:
            summary = result.summary()
            self.queue.finish(job.id, "done", summary={
                "record_count": result.record_count,
                "executed": summary.get("executed", result.executed),
                "resumed": result.resumed,
                "failures": len(result.failures),
                "elapsed": result.elapsed,
            })
        self._persist(job.id)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def record_paths(self, job: Job) -> List[Path]:
        campaign_dir = self._campaign_dir(job.id)
        if job.spec.kind in ("crawl", "measure"):
            spool = campaign_dir / "records.jsonl"
            return [spool] if spool.exists() else []
        return sorted(campaign_dir.glob("wave-*.jsonl"))


def _handler_for(service: CampaignService):
    """A request-handler class bound to *service* (stdlib idiom)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # The service narrates through its own channel, not stderr spam.
        def log_message(self, format, *args):  # noqa: A002
            pass

        # -- plumbing ---------------------------------------------------
        def _send_json(self, status: int, body: Dict) -> None:
            encoded = json.dumps(body, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def _status_or_404(self, claimed_id: str) -> Optional[Dict]:
            status = service.queue.status(claimed_id)
            if status is None:
                self._send_json(
                    404, {"error": f"unknown campaign {claimed_id!r}"}
                )
            return status

        # -- routes -----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["v1", "health"]:
                self._send_json(200, {
                    "ok": True,
                    "spec_schema_version": SPEC_SCHEMA_VERSION,
                })
                return
            if parts == ["v1", "campaigns"]:
                self._send_json(200, {"campaigns": service.queue.snapshot()})
                return
            if len(parts) == 3 and parts[:2] == ["v1", "campaigns"]:
                status = self._status_or_404(parts[2])
                if status is not None:
                    self._send_json(200, status)
                return
            if (
                len(parts) == 4
                and parts[:2] == ["v1", "campaigns"]
                and parts[3] == "records"
            ):
                self._stream_records(parts[2])
                return
            self._send_json(404, {"error": f"no route {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["v1", "campaigns"]:
                self._submit()
                return
            if (
                len(parts) == 4
                and parts[:2] == ["v1", "campaigns"]
                and parts[3] == "cancel"
            ):
                if self._status_or_404(parts[2]) is not None:
                    service.queue.cancel(parts[2])
                    service._persist(parts[2])
                    self._send_json(200, service.queue.status(parts[2]))
                return
            self._send_json(404, {"error": f"no route {self.path!r}"})

        def _submit(self) -> None:
            try:
                length = int(self.headers.get("Content-Length", "0") or "0")
                spec, tenant, priority = parse_submission(
                    self.rfile.read(length) if length else b""
                )
            except ValueError as error:
                # A SpecError (SpecVersionError included: the readable
                # rejection of a future schema_version) crosses verbatim.
                self._send_json(400, {"error": str(error)})
                return
            try:
                job = service.submit(spec, tenant=tenant, priority=priority)
            except QuotaExceeded as error:
                self._send_json(429, {"error": str(error)})
                return
            self._send_json(202, job.to_dict())

        def _stream_records(self, claimed_id: str) -> None:
            status = self._status_or_404(claimed_id)
            if status is None:
                return
            if status["state"] != "done":
                self._send_json(409, {
                    "error": f"campaign {claimed_id} is {status['state']}; "
                             "records stream once it is done",
                })
                return
            paths = service.record_paths(service.queue.jobs[claimed_id])
            total = sum(path.stat().st_size for path in paths)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(total))
            self.end_headers()
            for path in paths:
                with path.open("rb") as handle:
                    while True:
                        chunk = handle.read(1 << 16)
                        if not chunk:
                            break
                        self.wfile.write(chunk)

    return Handler
