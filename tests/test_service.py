"""The campaign service: lifecycle, quotas, priorities, crash/resume.

In-process tests drive a :class:`CampaignService` on an ephemeral port
through the stdlib :class:`ServiceClient`; the crash test runs the
real ``serve`` CLI verb in a subprocess, SIGKILLs it mid-campaign, and
restarts it with ``--resume`` — the campaign must finish from its
checkpoint fingerprints, not start over.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import RunSpec, WorldSpec
from repro.api.spec import CrawlSpec, EngineSpec, MultiVantageSpec, SpecError
from repro.service import (
    CampaignService,
    Job,
    JobQueue,
    QuotaExceeded,
    ServiceClient,
    ServiceError,
    job_id,
)

def crawl_spec(seed=11, **world) -> RunSpec:
    return RunSpec(
        kind="crawl",
        world=WorldSpec(scale=0.01, seed=seed, **world),
        crawl=CrawlSpec(vps=("DE",)),
    )


@pytest.fixture()
def service(tmp_path):
    started = CampaignService(tmp_path / "data", port=0).start()
    yield started
    started.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url)


# ---------------------------------------------------------------------------
# Queue semantics (no HTTP involved)
# ---------------------------------------------------------------------------
class TestJobQueue:
    @staticmethod
    def job(seed, tenant="t", priority=0):
        spec = crawl_spec(seed)
        return Job(
            id=job_id(spec, tenant), spec=spec,
            tenant=tenant, priority=priority,
        )

    def test_priority_then_fifo_order(self):
        queue = JobQueue(quota=10)
        first = queue.submit(self.job(1, priority=0))
        urgent = queue.submit(self.job(2, priority=5))
        second = queue.submit(self.job(3, priority=0))
        claimed = [queue.next_job(timeout=0.01) for _ in range(3)]
        assert [job.id for job in claimed] == [
            urgent.id, first.id, second.id
        ]
        assert all(job.state == "running" for job in claimed)

    def test_quota_counts_active_jobs_per_tenant(self):
        queue = JobQueue(quota=2)
        queue.submit(self.job(1))
        queue.submit(self.job(2))
        with pytest.raises(QuotaExceeded, match="quota 2"):
            queue.submit(self.job(3))
        # Another tenant is unaffected.
        queue.submit(self.job(3, tenant="other"))
        # Finishing a job frees the slot.
        done = queue.next_job(timeout=0.01)
        queue.finish(done.id, "done", summary={})
        queue.submit(self.job(4))

    def test_submit_is_idempotent_for_known_ids(self):
        queue = JobQueue(quota=1)
        job = self.job(1)
        assert queue.submit(job) is queue.submit(self.job(1))

    def test_cancel_queued_job_never_runs(self):
        queue = JobQueue(quota=10)
        doomed = queue.submit(self.job(1))
        survivor = queue.submit(self.job(2))
        assert queue.cancel(doomed.id).state == "cancelled"
        assert queue.next_job(timeout=0.01) is survivor
        assert queue.next_job(timeout=0.01) is None

    def test_finish_never_leaves_a_terminal_state(self):
        queue = JobQueue(quota=10)
        job = queue.submit(self.job(1))
        queue.next_job(timeout=0.01)
        queue.finish(job.id, "done", summary={"record_count": 3})
        queue.finish(job.id, "failed", error="RuntimeError: late")
        assert queue.status(job.id)["state"] == "done"
        assert queue.status(job.id)["summary"] == {"record_count": 3}
        assert queue.status(job.id)["error"] is None
        cancelled = queue.submit(self.job(2))
        queue.cancel(cancelled.id)
        queue.finish(cancelled.id, "done", summary={})
        assert queue.status(cancelled.id)["state"] == "cancelled"
        with pytest.raises(ValueError, match="terminal"):
            queue.finish(job.id, "running")

    def test_failed_job_is_never_seen_without_its_error(self):
        """Pollers race the runner finishing jobs: every ``failed``
        status carries its error and every ``done`` one its summary."""
        queue = JobQueue(quota=200)
        ids = [queue.submit(self.job(seed)).id for seed in range(60)]
        stop = threading.Event()
        torn = []

        def poll():
            while not stop.is_set():
                for status in queue.snapshot():
                    if (status["state"] == "failed" and not status["error"]
                            or status["state"] == "done"
                            and status["summary"] is None):
                        torn.append(status["id"])

        pollers = [threading.Thread(target=poll) for _ in range(3)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for poller in pollers:
                poller.start()
            for n, claimed_id in enumerate(ids):
                queue.next_job(timeout=0.01)
                if n % 2:
                    queue.finish(claimed_id, "failed", error="RuntimeError: x")
                else:
                    queue.finish(claimed_id, "done", summary={"n": n})
        finally:
            stop.set()
            sys.setswitchinterval(switch_interval)
        for poller in pollers:
            poller.join(timeout=10)
            assert not poller.is_alive()
        assert torn == []

    def test_restore_requeues_only_unfinished_jobs(self):
        queue = JobQueue(quota=1)
        running = self.job(1)
        running.state = "running"
        finished = self.job(2)
        finished.state = "done"
        also_running = self.job(3)
        also_running.state = "running"
        assert queue.restore(running) is True
        assert queue.restore(finished) is False
        # Admitted before the restart: the quota does not refuse it.
        assert queue.restore(also_running) is True
        claimed = {queue.next_job(timeout=0.01).id for _ in range(2)}
        assert claimed == {running.id, also_running.id}
        assert queue.next_job(timeout=0.01) is None
        assert queue.status(finished.id)["state"] == "done"

    def test_concurrent_persists_of_one_job_never_collide(self, tmp_path):
        """The HTTP submit thread and the runner thread both persist the
        same job: no writer may lose a scratch-file race, and the
        durable file must parse whenever it is read."""
        from repro.service.jobs import persist_job

        job = self.job(1)
        jobs_dir = tmp_path / "jobs"
        errors = []

        def persist_repeatedly():
            try:
                for _ in range(200):
                    path = persist_job(jobs_dir, job)
                    json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                errors.append(error)

        # More writers than cores, switching threads as often as the
        # interpreter allows, so a shared scratch name would collide.
        threads = [
            threading.Thread(target=persist_repeatedly) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        restored = Job.from_dict(json.loads(
            (jobs_dir / f"{job.id}.json").read_text(encoding="utf-8")
        ))
        assert restored.id == job.id
        assert not list(jobs_dir.glob("*.tmp"))

    def test_v4_job_file_with_checkpoint_flag_loads(self, tmp_path):
        """A job persisted while ``engine.checkpoint`` existed (spec
        schema v4; the service forced it on) still restores."""
        from repro.service.jobs import load_jobs

        job = self.job(1)
        data = job.to_dict()
        data["spec"]["schema_version"] = 4
        data["spec"]["engine"]["checkpoint"] = True
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        (jobs_dir / f"{job.id}.json").write_text(json.dumps(data))
        [restored] = load_jobs(jobs_dir)
        assert restored.to_dict() == job.to_dict()

    def test_v5_job_file_with_engine_retry_settings_loads(self, tmp_path):
        """A job persisted while the retry settings lived in ``engine``
        (spec schema v5) restores with them on the resilience section."""
        from repro.service.jobs import load_jobs

        job = self.job(1)
        data = job.to_dict()
        data["spec"]["schema_version"] = 5
        del data["spec"]["resilience"]["max_attempts"]
        del data["spec"]["resilience"]["retry_unreachable"]
        data["spec"]["engine"].update(retry_max_attempts=3, retry_unreachable=True)
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        (jobs_dir / f"{job.id}.json").write_text(json.dumps(data))
        [restored] = load_jobs(jobs_dir)
        assert restored.id == job.id
        assert restored.spec.resilience.max_attempts == 3
        assert restored.spec.resilience.retry_unreachable is True
        assert restored.spec.engine == job.spec.engine

    def test_job_id_ignores_the_spec_schema_version(self, monkeypatch):
        """A spec schema bump keeps a resubmitted campaign's id, so it
        resumes in its old ``campaigns/<id>/`` instead of starting over."""
        import repro.api.spec as spec_module

        spec = RunSpec(kind="crawl")
        before = job_id(spec, "t")
        monkeypatch.setattr(
            spec_module, "SPEC_SCHEMA_VERSION", spec_module.SPEC_SCHEMA_VERSION + 1
        )
        assert spec.to_dict()["schema_version"] == spec_module.SPEC_SCHEMA_VERSION
        assert job_id(spec, "t") == before
        assert job_id(spec, "u") != before

    def test_regime_letter_case_is_one_campaign(self):
        """``regime="EU"`` and ``"eu"`` name one campaign: one stored
        spelling, so one job id, and a resubmit in the other case
        resumes instead of re-crawling."""
        upper, lower = (
            RunSpec(kind="multivantage", multivantage=MultiVantageSpec(regime=r))
            for r in ("EU", "eu")
        )
        assert upper.multivantage.regime == "eu"
        assert upper.to_dict() == lower.to_dict()
        assert job_id(upper, "t") == job_id(lower, "t")
        assert RunSpec.from_dict(upper.to_dict()) == lower
        with pytest.raises(SpecError, match="regime"):
            MultiVantageSpec(regime=5).validate()

    def test_crash_before_replace_keeps_previous_job_file(
        self, tmp_path, monkeypatch
    ):
        """An exception after the scratch file is written but before its
        rename: the durable ``<id>.json`` still holds the previous state,
        byte for byte, and the scratch file is removed."""
        from repro.service.jobs import load_jobs, persist_job

        class Crash(BaseException):
            pass

        def crash(src, dst):
            raise Crash

        job = self.job(1)
        jobs_dir = tmp_path / "jobs"
        path = persist_job(jobs_dir, job)
        before = path.read_bytes()
        prior = job.to_dict()

        job.state = "running"
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash)
            with pytest.raises(Crash):
                persist_job(jobs_dir, job)

        assert path.read_bytes() == before
        assert not list(jobs_dir.glob("*.tmp"))
        assert [restored.to_dict() for restored in load_jobs(jobs_dir)] == [
            prior
        ]

    def test_process_death_before_replace_keeps_previous_job_file(
        self, tmp_path
    ):
        """Crash point: the process dies after writing the scratch file
        but before its rename, so no cleanup runs.  The previous
        ``<id>.json`` survives byte for byte, and ``load_jobs`` ignores
        the leftover ``<id>.json.*.tmp``."""
        from repro.service.jobs import load_jobs, persist_job

        job = self.job(1)
        jobs_dir = tmp_path / "jobs"
        path = persist_job(jobs_dir, job)
        before = path.read_bytes()
        prior = job.to_dict()

        child = (
            "import os, sys\n"
            "from pathlib import Path\n"
            "from repro.service.jobs import load_jobs, persist_job\n"
            "jobs_dir = Path(sys.argv[1])\n"
            "[job] = load_jobs(jobs_dir)\n"
            "job.state = 'running'\n"
            "os.replace = lambda src, dst: os._exit(17)\n"
            "persist_job(jobs_dir, job)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        died = subprocess.run(
            [sys.executable, "-c", child, str(jobs_dir)], env=env, timeout=60
        )
        assert died.returncode == 17

        assert path.read_bytes() == before
        [leftover] = jobs_dir.glob(f"{job.id}.json.*.tmp")
        assert json.loads(leftover.read_text())["state"] == "running"
        assert [restored.to_dict() for restored in load_jobs(jobs_dir)] == [
            prior
        ]


# ---------------------------------------------------------------------------
# HTTP lifecycle
# ---------------------------------------------------------------------------
class TestServiceLifecycle:
    def test_health_reports_schema_version(self, client):
        from repro.api import SPEC_SCHEMA_VERSION

        health = client.health()
        assert health["ok"] is True
        assert health["spec_schema_version"] == SPEC_SCHEMA_VERSION

    def test_submit_status_stream(self, service, client):
        job = client.submit(crawl_spec(), tenant="alice", priority=1)
        assert job["state"] in ("queued", "running")
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["summary"]["record_count"] > 0
        assert final["summary"]["failures"] == 0
        records = client.records(job["id"])
        assert records.count(b"\n") == final["summary"]["record_count"]
        for line in records.splitlines()[:5]:
            json.loads(line)
        listing = client.campaigns()["campaigns"]
        assert [j["id"] for j in listing] == [job["id"]]
        # Resubmitting the identical campaign is idempotent: same
        # content-addressed id, still done, nothing re-runs.
        again = client.submit(crawl_spec(), tenant="alice")
        assert again["id"] == job["id"]
        assert again["state"] == "done"

    def test_records_of_unfinished_campaign_conflict(self, service, client):
        # Submitted but executing (or queued): records are not ready.
        job = client.submit(crawl_spec(seed=77))
        with pytest.raises(ServiceError) as excinfo:
            client.records(job["id"])
        assert excinfo.value.status == 409
        client.wait(job["id"], timeout=120)

    def test_unknown_campaign_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("feedfacecafe")
        assert excinfo.value.status == 404

    def test_future_schema_version_rejected_readably(self, service):
        payload = crawl_spec().to_dict()
        payload["schema_version"] = 99
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/campaigns", {"spec": payload})
        assert excinfo.value.status == 400
        assert "schema_version 99" in str(excinfo.value)

    def test_invalid_spec_rejected_with_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/v1/campaigns",
                {"spec": {"kind": "teleport"}},
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("workers", ["2", 2.5, True])
    def test_mistyped_spec_value_rejected_with_400(self, service, workers):
        payload = crawl_spec().to_dict()
        payload["engine"] = {"workers": workers}
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/campaigns", {"spec": payload})
        assert excinfo.value.status == 400
        assert "engine.workers" in str(excinfo.value)

    @pytest.mark.parametrize("spec,field", [
        ({"kind": "crawl", "crawl": {"vps": 5}}, "crawl.vps"),
        ({"kind": "longitudinal", "longitudinal": {"months": [0, "4"]}},
         "longitudinal.months"),
    ], ids=["scalar-for-list", "mistyped-item"])
    def test_mistyped_container_field_rejected_with_400(
        self, service, spec, field
    ):
        """A wrong container value is a 400 naming its field, not a
        dropped connection from an uncaught ``TypeError``."""
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/campaigns", {"spec": spec})
        assert excinfo.value.status == 400
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("extra,detail", [
        ({"tenant": ["x"]}, "body.tenant: expected str, got ['x']"),
        ({"tenant": None}, "body.tenant: expected str, got None"),
        ({"priority": "high"}, "body.priority: expected int, got 'high'"),
        ({"priority": True}, "body.priority: expected int, got True"),
        ({"tenants": "x"}, "body: unknown key(s) tenants"),
    ], ids=["list-tenant", "null-tenant", "str-priority", "bool-priority",
            "unknown-key"])
    def test_malformed_body_field_rejected_with_400(self, service, extra, detail):
        """The body is ``{"spec", "tenant", "priority"}`` with the right
        types: a list tenant is not coerced to its ``str()`` (and billed
        to that quota), and an unknown key is not silently ignored."""
        client = ServiceClient(service.url)
        body = {"spec": crawl_spec().to_dict(), **extra}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/campaigns", body)
        assert excinfo.value.status == 400
        assert detail in str(excinfo.value)
        assert client.campaigns()["campaigns"] == []

    def test_body_without_a_spec_rejected_with_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/campaigns", {"tenant": "t"})
        assert excinfo.value.status == 400
        assert "body: missing key(s) spec" in str(excinfo.value)

    def test_quota_maps_to_429(self, tmp_path):
        service = CampaignService(
            tmp_path / "q", port=0, quota=1
        ).start()
        try:
            client = ServiceClient(service.url)
            client.submit(crawl_spec(seed=1), tenant="bob")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(crawl_spec(seed=2), tenant="bob")
            assert excinfo.value.status == 429
            # Other tenants are unaffected by bob's quota.
            client.submit(crawl_spec(seed=2), tenant="carol")
        finally:
            service.stop()

    def test_cancel_queued_campaign(self, service, client):
        # The first campaign occupies the single runner; the second is
        # deterministically still queued when the cancel arrives.
        running = client.submit(crawl_spec(seed=5))
        queued = client.submit(crawl_spec(seed=6))
        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] in ("queued", "cancelled")
        final = client.wait(queued["id"], timeout=120)
        assert final["state"] == "cancelled"
        assert client.wait(running["id"], timeout=120)["state"] == "done"

    def test_stale_cancel_snapshot_never_replaces_the_final_state(
        self, tmp_path, monkeypatch
    ):
        """The cancel route snapshots a running job, then the runner
        finishes and persists the terminal state before the route's own
        persist lands.  The older snapshot must not replace the newer
        ``jobs/<id>.json``, or ``serve --resume`` would run the finished
        job again."""
        import repro.service.server as server_mod

        started, release = threading.Event(), threading.Event()
        final_written = threading.Event()
        barrier = threading.Barrier(2, timeout=30)

        class BlockingSession:
            """Stands in for the campaign: runs until released, then
            reaches a task boundary, where the cancel takes effect."""

            def __init__(self, spec, progress):
                self.progress = progress

            def run(self):
                started.set()
                release.wait(30)
                self.progress(1, 1, None)

        monkeypatch.setattr(server_mod, "Session", BlockingSession)
        service = CampaignService(tmp_path / "data", port=0).start()
        runner = service._runner
        copy, persist = service.queue.copy, server_mod.persist_job

        def copy_then_wait(claimed_id):
            snapshot = copy(claimed_id)
            if threading.current_thread() is not runner:
                if snapshot.state == "running":
                    barrier.wait()  # the cancel's snapshot is taken ...
                    final_written.wait(30)  # ... and persists last
            return snapshot

        def persist_and_mark(jobs_dir, job):
            persist(jobs_dir, job)
            if job.state == "cancelled":
                final_written.set()

        monkeypatch.setattr(service.queue, "copy", copy_then_wait)
        monkeypatch.setattr(server_mod, "persist_job", persist_and_mark)
        try:
            client = ServiceClient(service.url)
            job = client.submit(crawl_spec(seed=5))
            assert started.wait(30)
            canceller = threading.Thread(
                target=client.cancel, args=(job["id"],)
            )
            canceller.start()
            barrier.wait()
            release.set()
            canceller.join(timeout=30)
            assert not canceller.is_alive()
            assert final_written.is_set()
            assert client.wait(job["id"], timeout=30)["state"] == "cancelled"
        finally:
            release.set()
            service.stop()
        persisted = json.loads(
            (tmp_path / "data" / "jobs" / f"{job['id']}.json").read_text()
        )
        assert persisted["state"] == "cancelled"

    def test_job_files_without_a_revision_still_load(self):
        record = TestJobQueue.job(1).to_dict()
        del record["revision"]
        assert Job.from_dict(record).revision == 0

    @pytest.mark.parametrize("edit", [
        {"priority": "high"}, {"priority": None}, {"state": "bogus"},
        {"tenant": 7}, {"surprise": 1},
    ], ids=["str-priority", "null-priority", "unknown-state", "int-tenant",
            "unknown-key"])
    def test_resume_skips_a_job_file_that_does_not_fit(self, tmp_path, edit):
        """``serve --resume`` loads only job files of the job shape: a
        non-integer priority used to crash the restore, and an unknown
        state was listed as it stood."""
        from repro.service.jobs import persist_job

        jobs_dir = tmp_path / "data" / "jobs"
        good, bad = TestJobQueue.job(1), TestJobQueue.job(2)
        good.state, good.summary = "done", {"records": 0}
        persist_job(jobs_dir, good)
        (jobs_dir / f"{bad.id}.json").write_text(
            json.dumps({**bad.to_dict(), **edit}), encoding="utf-8"
        )
        service = CampaignService(tmp_path / "data", port=0)
        try:
            service.start(resume=True)
            assert service.queue.status(bad.id) is None
            assert service.queue.status(good.id)["state"] == "done"
        finally:
            service.stop()

    def test_cancel_running_campaign(self, service, client):
        # A multi-wave campaign is long enough to cancel mid-flight.
        spec = RunSpec(
            kind="multivantage",
            world=WorldSpec(scale=0.05, seed=3),
            multivantage=MultiVantageSpec(months=(0, 2, 4)),
        )
        job = client.submit(spec)
        deadline = time.monotonic() + 60
        while client.status(job["id"])["state"] == "queued":
            assert time.monotonic() < deadline, "never started"
            time.sleep(0.02)
        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "cancelled"


# ---------------------------------------------------------------------------
# Crash + --resume via the real CLI
# ---------------------------------------------------------------------------
class TestServiceCrashResume:
    @staticmethod
    def _serve(data_dir, *extra):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--data-dir", str(data_dir), "--port", "0", *extra],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = process.stdout.readline()
        assert "listening on" in banner, banner
        url = banner.split("listening on ")[1].split()[0]
        return process, url

    @staticmethod
    def _children(pid):
        """The pids of *pid*'s child processes, whichever of its threads
        started them."""
        children = set()
        for task in Path(f"/proc/{pid}/task").glob("*"):
            try:
                listed = (task / "children").read_text()
            except OSError:
                continue
            children.update(int(child) for child in listed.split())
        return children

    @staticmethod
    def _running(pid):
        """Whether *pid* exists and is not a zombie."""
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    @pytest.mark.skipif(
        not Path("/proc/self/task").is_dir(),
        reason="needs /proc to list the server's worker processes",
    )
    def test_sigkilled_campaign_resumes_from_checkpoint(self, tmp_path):
        data_dir = tmp_path / "data"
        spec = RunSpec(
            kind="multivantage",
            world=WorldSpec(scale=0.02, seed=7),
            # Many shards so the engine checkpoints per-shard progress
            # long before the wave completes.
            engine=EngineSpec(workers=2, shards=12, executor="distributed"),
            multivantage=MultiVantageSpec(months=(0, 2)),
        )
        process, url = self._serve(data_dir)
        try:
            client = ServiceClient(url)
            job = client.submit(spec)
            campaign_dir = data_dir / "campaigns" / job["id"]
            deadline = time.monotonic() + 120
            # Wait for real checkpointed progress — at least one shard
            # entry beyond the header line — then pull the plug.
            def checkpointed_shards():
                return sum(
                    max(0, path.read_bytes().count(b"\n") - 1)
                    for path in campaign_dir.glob("wave-*.checkpoint")
                )

            while checkpointed_shards() == 0:
                assert time.monotonic() < deadline, "no checkpoint appeared"
                assert process.poll() is None
                time.sleep(0.005)
            assert client.status(job["id"])["state"] == "running"
            workers = self._children(process.pid)
            assert workers, "the distributed backend started no workers"
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
        # No worker process outlives the server it worked for.
        deadline = time.monotonic() + 30
        while any(self._running(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"orphaned workers: "
                f"{sorted(p for p in workers if self._running(p))}"
            )
            time.sleep(0.05)

        # The persisted job is still marked active from the dead server.
        persisted = json.loads(
            (data_dir / "jobs" / f"{job['id']}.json").read_text()
        )
        assert persisted["state"] in ("queued", "running")

        process, url = self._serve(data_dir, "--resume")
        try:
            client = ServiceClient(url)
            final = client.wait(job["id"], timeout=300, poll=0.2)
            assert final["state"] == "done"
            assert final["summary"]["resumed"] > 0, (
                "restart re-ran the whole campaign instead of resuming "
                "from its checkpoint fingerprint"
            )
            records = client.records(job["id"])
            assert records.count(b"\n") == final["summary"]["record_count"]
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
