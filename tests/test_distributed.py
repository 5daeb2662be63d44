"""The distributed executor: wire protocol, byte-identity, re-dispatch,
and transport degradation.

The generic backend matrix (``test_executor_backends.py``) already runs
``executor="distributed"`` through the determinism/resume promises;
this module covers what is *specific* to the wire: frame round-trips,
malformed frames and replies, worker death mid-shard, the re-dispatch
budget, and the guarantee that transport failures yield structured
``transport``-category records — record counts always equal the plan
size, never a silent drop.
"""

import io
import json
import os
import select
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.distributed import (
    WIRE_PROTOCOL_VERSION,
    DistributedExecutor,
    decode_message,
    read_frame,
    write_frame,
)
from repro.distributed.wire import check_reply, encode_message
from repro.errors import (
    TransportError,
    WireProtocolError,
    WorkerLostError,
    error_category,
)
from repro.measure import CrawlEngine, Crawler
from repro.measure.instrumentation import EventLog

WORKERS = 2
SHARDS = 4


@pytest.fixture(scope="module")
def small_crawler(small_world):
    return Crawler(small_world)


@pytest.fixture(scope="module")
def detection_plan(small_world, small_crawler):
    return small_crawler.plan_detection_crawl(
        ["DE"], small_world.crawl_targets[:48]
    )


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory, small_crawler, detection_plan):
    """The uninterrupted serial spool bytes every wire run must match."""
    path = tmp_path_factory.mktemp("reference") / "serial.jsonl"
    CrawlEngine(small_crawler, spool_path=path).execute(detection_plan)
    return path.read_bytes()


def distributed_engine(crawler, executor=None, **kwargs):
    return CrawlEngine(
        crawler, workers=WORKERS, shards=SHARDS, backend="distributed",
        executor=executor, **kwargs
    )


def execute_losing_a_worker(crawler, plan, **kwargs):
    """Run *plan* on :data:`WORKERS` spawned workers while one more
    peer takes a bundle and hangs up without a result — to the
    coordinator, exactly a worker SIGKILLed mid-shard.  Returns the
    result and the bundles the lost peer took."""
    executor = DistributedExecutor(WORKERS)
    taken = []
    peer = threading.Thread(
        target=_fake_worker,
        args=(executor, lambda bundle: taken.append(bundle) or b""),
        daemon=True,
    )
    peer.start()
    result = distributed_engine(
        crawler, executor=executor, **kwargs
    ).execute(plan)
    peer.join(timeout=10)
    return result, taken


# ---------------------------------------------------------------------------
# The wire itself
# ---------------------------------------------------------------------------
class TestWireProtocol:
    @pytest.mark.parametrize("frame", [
        pytest.param({"type": "hello", "worker": "w1", "pid": 42,
                      "protocol": WIRE_PROTOCOL_VERSION}, id="WireHello"),
        pytest.param({"type": "shared",
                      "state": {"world": [7, 0.02, 0], "context": {},
                                "ublock_lists": None}}, id="WireShared"),
        pytest.param({
            "type": "bundle", "shard": 3,
            "tasks": [[0, "DE", "a.example", "detect", 1]],
            "id_bases": [[0, 123456789]],
            "breakers": {"a.example": {"state": "open", "consecutive": 2,
                                       "skipped": 0}},
        }, id="WireBundle"),
        pytest.param({"type": "heartbeat", "shard": 3}, id="WireHeartbeat"),
        pytest.param({
            "type": "result", "shard": 3, "pid": 9, "elapsed": 0.25,
            "outcomes": [{"index": 0, "attempts": 1, "error": None,
                          "record": "{}"}],
            "notes": [{"kind": "task-retry", "index": 0, "attempt": 1,
                       "error": "Timeout"},
                      {"kind": "breaker-open", "index": 0}],
            "breakers": {"a.example": {"state": "open", "consecutive": 2,
                                       "skipped": 0}},
        }, id="WireResult"),
    ])
    def test_round_trip(self, frame):
        assert decode_message(encode_message(frame)) == frame

    def test_bundle_round_trips_to_engine_shape(self, small_crawler,
                                                detection_plan):
        """The engine's bundles are JSON data: tagged, each crosses the
        wire as exactly the dict the worker runs."""
        engine = distributed_engine(small_crawler)
        bundles = engine._bundles(
            detection_plan, detection_plan.sharded(SHARDS)
        )
        assert bundles and all(bundle["id_bases"] for bundle in bundles)
        for bundle in bundles:
            frame = {"type": "bundle", **bundle}
            assert decode_message(encode_message(frame)) == frame

    @pytest.mark.parametrize("line,detail", [
        (b"not json\n", "undecodable"),
        (b"[1, 2]\n", "JSON object"),
        (b'{"type": "warp", "x": 1}\n', "unknown frame type"),
        (b'{"type": "heartbeat", "shard": 1, "extra": 2}\n',
         "unknown key"),
        (b'{"type": "heartbeat"}\n', "heartbeat"),
        (b'{"type": "heartbeat", "shard": [1]}\n', "malformed heartbeat"),
        (b'{"type": "hello", "worker": "w", "pid": 1}\n', "malformed hello"),
        (b'{"type": "bundle", "shard": 0, "tasks": [], "id_bases": [], '
         b'"kill_after": 1}\n', "unknown key"),
        (b'{"type": "shared", "blob": "gASVAAAAAAAAAACMAS6ULg=="}\n',
         "unknown key"),
        (b'{"type": ["hello"], "worker": "w", "pid": 1}\n',
         "unknown frame type"),
        pytest.param(b"[" * 100000 + b"\n", "undecodable",
                     id="deep-nesting"),
        pytest.param(
            b'{"type": "heartbeat", "shard": ' + b"9" * 5000 + b"}\n",
            "undecodable", id="overlong-integer",
        ),
    ])
    def test_malformed_frames_rejected(self, line, detail):
        with pytest.raises(WireProtocolError, match=detail):
            decode_message(line)

    @pytest.mark.parametrize("tasks,id_bases,breakers", [
        ([[1]], [], None),
        ([[0, "DE", "a.example", "warp", 1]], [], None),
        ([[0, "DE", "a.example", "detect", "1"]], [], None),
        ([[True, "DE", "a.example", "detect", 1]], [], None),
        (7, [], None),
        ([[0, "DE", "a.example", "detect", 1]], [[0, "x"]], None),
        ([[0, "DE", "a.example", "detect", 1]], {"0": 1}, None),
        ([[0, "DE", "a.example", "detect", 1]], [],
         {"b.example": {"state": "open", "consecutive": 1, "skipped": 0}}),
        ([[0, "DE", "a.example", "detect", 1]], [], {"a.example": []}),
    ])
    def test_malformed_bundle_fields_rejected(self, tasks, id_bases,
                                              breakers):
        """The worker validates a bundle before the shard runner
        unpacks it: a bad task tuple is a protocol error, never a
        ``TypeError`` deep in the runner."""
        line = json.dumps({
            "type": "bundle", "shard": 0, "tasks": tasks,
            "id_bases": id_bases, "breakers": breakers,
        }).encode() + b"\n"
        with pytest.raises(WireProtocolError):
            decode_message(line)

    @pytest.mark.parametrize("frames,detail", [
        ([b'{"type": "bundle", "shard": 0, "tasks": [], "id_bases": [], '
          b'"breakers": {}}'], "shared state"),
        ([b'{"type": "shared", "blob": "gASVAAAAAAAAAACMAS6ULg=="}'],
         "unknown key"),
        ([b'{"type": "shared", "state": {"world": [7, 0.02, 0]}}'],
         "malformed worker state"),
        (["STATE", b'{"type": "bundle", "shard": 0, "tasks": [[1]], '
                   b'"id_bases": [], "breakers": {}}'],
         "malformed bundle frame: tasks"),
    ], ids=["bundle-first", "pickle-blob", "bad-state", "bad-task"])
    def test_worker_refuses_malformed_frames(
        self, monkeypatch, small_crawler, small_world, frames, detail
    ):
        """``worker serve`` ends with a WireProtocolError — never a
        TypeError or KeyError from deep in the runner — on a frame it
        cannot trust."""
        from repro.distributed import serve_worker
        from repro.measure import engine as engine_mod

        plan = small_crawler.plan_detection_crawl(["DE"], [])
        state = CrawlEngine(small_crawler)._worker_state(plan)
        monkeypatch.setitem(
            engine_mod._WORLDS, tuple(state["world"]), small_world
        )
        monkeypatch.setattr(engine_mod, "_WORKER_SHARED", {})
        listener = socket.create_server(("127.0.0.1", 0))

        def coordinator():
            conn, _ = listener.accept()
            with conn:
                assert read_frame(conn.makefile("rb"))["type"] == "hello"
                wfile = conn.makefile("wb")
                for frame in frames:
                    wfile.write(
                        encode_message({"type": "shared", "state": state})
                        if frame == "STATE" else frame + b"\n"
                    )
                wfile.flush()
                conn.recv(1)  # hold the socket open until the worker quits

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        with listener, pytest.raises(WireProtocolError, match=detail):
            serve_worker(*listener.getsockname()[:2])
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_worker_serve_reports_a_bad_peer_in_one_line(self, capsys):
        """A garbage frame ends ``worker serve`` with one ``error:`` line
        and exit status 2, not a traceback."""
        from repro import cli

        listener = socket.create_server(("127.0.0.1", 0))

        def coordinator():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn.makefile("rb"))  # the worker's hello
                conn.sendall(b"not a frame\n")
                conn.recv(1)  # hold the socket open until the worker quits

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        with listener:
            status = cli.main(["worker", "serve", "--connect", f"{host}:{port}"])
        thread.join(timeout=10)
        assert not thread.is_alive()
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_worker_serve_reports_a_refused_connection(self, capsys):
        from repro import cli

        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]
        # The listener is closed: nothing accepts on that port now.
        status = cli.main(["worker", "serve", "--connect", f"{host}:{port}"])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_truncated_frame_rejected(self):
        with pytest.raises(WireProtocolError, match="truncated"):
            read_frame(io.BytesIO(b'{"type": "heartbeat", "shard": 1}'))

    def test_eof_reads_as_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_result_must_cover_bundle_indices(self):
        bundle = {
            "shard": 0,
            "tasks": [[0, "DE", "a.example", "detect", 1],
                      [1, "DE", "b.example", "detect", 1]],
            "id_bases": [[0, 1], [1, 2]],
            "breakers": {},
        }
        reply = {"type": "result", "shard": 0, "pid": 1, "elapsed": 0.0,
                 "notes": [], "breakers": {}}
        dropped = dict(reply, outcomes=[
            {"index": 0, "attempts": 1, "error": None, "record": "{}"},
        ])
        with pytest.raises(WireProtocolError, match="covers indices"):
            check_reply(dropped, bundle)
        wrong_shard = dict(reply, shard=5, outcomes=[])
        with pytest.raises(WireProtocolError, match="names shard"):
            check_reply(wrong_shard, bundle)

    @pytest.mark.parametrize("field,value", [
        ("notes", [{"kind": "task-retry", "index": 999, "attempt": 1,
                    "error": "Timeout"}]),
        ("notes", [7]),
        ("notes", [{"kind": "breaker-open", "index": 0, "attempt": 1,
                    "error": "Timeout"}]),
        ("notes", [{"kind": "task-retry", "index": 0, "attempt": "1",
                    "error": "Timeout"}]),
        ("notes", [{"kind": "task-retry", "index": [0], "attempt": 1,
                    "error": "Timeout"}]),
        ("notes", [{"kind": "breaker-open", "index": 5}]),
        ("notes", [{"kind": "breaker-melt", "index": 0}]),
        ("breakers", {"a.example": 3}),
        ("breakers", [["a.example", {}]]),
        ("pid", "1"),
        ("elapsed", None),
        ("outcomes", [{"index": 0, "attempts": -1, "error": None,
                       "record": None}]),
        ("outcomes", [{"index": 0, "attempts": 1, "error": 5,
                       "record": None}]),
        ("outcomes", [{"index": 0, "attempts": 1, "record": None}]),
    ])
    def test_result_fields_validated(self, field, value):
        """Every field of a reply is checked, by its shape and against
        the bundle: a bad note, count or snapshot is a protocol error at
        the boundary, not an ``IndexError``/``TypeError`` in the
        absorbing run."""
        bundle = {
            "shard": 0, "tasks": [[0, "DE", "a.example", "detect", 1]],
            "id_bases": [[0, 1]], "breakers": {},
        }
        reply = {
            "type": "result", "shard": 0, "pid": 1, "elapsed": 0.0,
            "outcomes": [{"index": 0, "attempts": 1, "error": None,
                          "record": "{}"}],
            "notes": [], "breakers": {},
        }

        def receive(frame):
            check_reply(decode_message(encode_message(frame)), bundle)

        receive(reply)
        with pytest.raises(WireProtocolError):
            receive(dict(reply, **{field: value}))

    def test_transport_errors_have_their_own_category(self):
        assert error_category("TransportError") == "transport"
        assert error_category("WorkerLostError") == "transport"
        assert error_category("WireProtocolError") == "transport"


# ---------------------------------------------------------------------------
# Byte-identity over real sockets and worker processes
# ---------------------------------------------------------------------------
class TestDistributedRuns:
    def test_worker_killed_mid_shard_redispatches_byte_identical(
        self, tmp_path, small_crawler, detection_plan, serial_reference
    ):
        """Lose one worker mid-shard: the lost shard re-runs on a
        surviving worker and the merged spool still equals the serial
        bytes — no degraded records, no gaps."""
        out = tmp_path / "killed.jsonl"
        log = EventLog()
        result, taken = execute_losing_a_worker(
            small_crawler, detection_plan, spool_path=out, event_log=log,
        )
        assert taken, "the lost worker never took a bundle"
        assert len(result) == len(detection_plan)
        assert not result.failures
        assert out.read_bytes() == serial_reference

    def test_multivantage_campaign_plan_distributed_byte_identical(
        self, tmp_path, small_world, small_crawler
    ):
        """The acceptance scenario: a multi-vantage campaign plan runs
        through 2 socket workers — and through 2 socket workers while a
        third is lost mid-shard — and both spools equal the serial one."""
        from repro.api.spec import MultiVantageSpec

        spec = MultiVantageSpec(vps=("DE", "USE"))
        targets = small_world.crawl_targets[:30]

        def campaign_plan():
            plan = small_crawler.plan_detection_crawl(
                ["DE", "USE"], targets
            )
            plan.context["multivantage"] = {
                "wave": 0, "scenario": spec.scenario().to_context(),
            }
            return plan

        serial_out = tmp_path / "serial.jsonl"
        CrawlEngine(
            small_crawler, spool_path=serial_out
        ).execute(campaign_plan())
        distributed_out = tmp_path / "distributed.jsonl"
        distributed_engine(
            small_crawler, spool_path=distributed_out
        ).execute(campaign_plan())
        assert distributed_out.read_bytes() == serial_out.read_bytes()

        killed_out = tmp_path / "killed.jsonl"
        _, taken = execute_losing_a_worker(
            small_crawler, campaign_plan(), spool_path=killed_out,
        )
        assert taken, "the lost worker never took a bundle"
        assert killed_out.read_bytes() == serial_out.read_bytes()

    def test_session_multivantage_distributed_matches_serial(
        self, tmp_path, small_world
    ):
        """End to end through the public API: ``executor="distributed"``
        in the engine spec, wave spool byte-identical to serial."""
        from repro.api import EngineSpec, Session
        from repro.api.spec import MultiVantageSpec, OutputSpec

        spec = MultiVantageSpec(vps=("DE",),
                                domains=tuple(small_world.crawl_targets[:24]))
        serial_dir = tmp_path / "serial"
        Session(small_world).multivantage(
            spec, output=OutputSpec(out_dir=str(serial_dir))
        )
        distributed_dir = tmp_path / "distributed"
        Session(
            small_world,
            engine=EngineSpec(
                workers=WORKERS, shards=SHARDS, executor="distributed"
            ),
        ).multivantage(spec, output=OutputSpec(out_dir=str(distributed_dir)))
        assert (distributed_dir / "wave-00.jsonl").read_bytes() == \
            (serial_dir / "wave-00.jsonl").read_bytes()

    def test_external_worker_serve_processes_byte_identical(
        self, tmp_path, small_crawler, detection_plan, serial_reference
    ):
        """A coordinator that starts no worker of its own: two real
        ``worker serve`` processes dial it, rebuild the world from its
        key, and the spool still equals the serial bytes."""
        executor = DistributedExecutor(0)
        workers = []

        def start_workers():
            while executor.address is None:
                time.sleep(0.01)
            host, port = executor.address
            for _ in range(2):
                workers.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker", "serve",
                     "--connect", f"{host}:{port}"],
                    env=_env_with_src(), stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True,
                ))

        starter = threading.Thread(target=start_workers, daemon=True)
        starter.start()
        out = tmp_path / "external.jsonl"
        try:
            result = distributed_engine(
                small_crawler, executor=executor, spool_path=out
            ).execute(detection_plan)
        finally:
            starter.join(timeout=10)
            replies = [worker.communicate(timeout=60) for worker in workers]
        assert [worker.returncode for worker in workers] == [0, 0], replies
        served = sum(int(stdout.split()[1]) for stdout, _ in replies)
        assert served == SHARDS
        assert not result.failures
        assert out.read_bytes() == serial_reference

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads worker states from /proc")
    def test_local_workers_exit_with_a_killed_coordinator(self):
        """SIGKILL the coordinator mid-bundle: its local workers must be
        gone within ~2 s, not after their multi-second bundles end."""
        pids = []
        with subprocess.Popen(
            [sys.executable, "-c", _SLOW_COORDINATOR],
            env=_env_with_src(), stdout=subprocess.PIPE, text=True,
        ) as coordinator:
            try:
                ready, _, _ = select.select([coordinator.stdout], [], [], 120)
                assert ready, "the coordinator never reported its workers"
                pids = json.loads(coordinator.stdout.readline())
                assert len(pids) == 2
                time.sleep(1.0)  # the workers are inside their bundles now
                coordinator.kill()
                coordinator.wait(timeout=10)
                deadline = time.monotonic() + 2.0
                while any(map(_running, pids)) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not [pid for pid in pids if _running(pid)]
            finally:
                coordinator.kill()
                for pid in pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass


#: A distributed crawl whose two bundles each sleep through ~50 real
#: network latencies; it prints its local worker pids once both
#: workers have connected.
_SLOW_COORDINATOR = textwrap.dedent("""
    import json, threading, time
    from repro.distributed import DistributedExecutor
    from repro.measure import CrawlEngine, Crawler
    from repro.webgen import build_world

    world = build_world(scale=0.01, seed=7)
    world.network.latency = 0.1
    world.network.latency_mode = "real"
    crawler = Crawler(world)
    plan = crawler.plan_detection_crawl(["DE"], world.crawl_targets[:16])
    executor = DistributedExecutor(2)

    def report():
        while executor._live_workers < 2:
            time.sleep(0.01)
        print(json.dumps([proc.pid for proc in executor._procs]), flush=True)

    threading.Thread(target=report, daemon=True).start()
    CrawlEngine(crawler, workers=2, shards=2, backend="distributed",
                executor=executor).execute(plan)
""")


def _env_with_src():
    """This environment, with the tested ``repro`` first on the path."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _running(pid: int) -> bool:
    """Whether *pid* is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


# ---------------------------------------------------------------------------
# Transport degradation: failures become records, never gaps
# ---------------------------------------------------------------------------
def _fake_worker(executor, reply):
    """Dial *executor*'s work queue, take one bundle, answer with
    ``reply(bundle) -> bytes``, and hang up."""
    import time

    while executor.address is None:
        time.sleep(0.01)
    with socket.create_connection(executor.address, timeout=10) as conn:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        write_frame(wfile, {"type": "hello", "worker": "saboteur", "pid": 1,
                            "protocol": WIRE_PROTOCOL_VERSION})
        assert read_frame(rfile)["type"] == "shared"
        bundle = read_frame(rfile)
        assert bundle["type"] == "bundle"
        wfile.write(reply(bundle))
        wfile.flush()


def run_with_fake_worker(crawler, plan, reply, tmp_path):
    executor = DistributedExecutor(
        0, max_dispatches=1, connect_timeout=30.0
    )
    saboteur = threading.Thread(
        target=_fake_worker, args=(executor, reply), daemon=True
    )
    out = tmp_path / "degraded.jsonl"
    engine = CrawlEngine(
        crawler, workers=1, shards=1, backend="distributed",
        executor=executor, spool_path=out, event_log=EventLog(),
    )
    saboteur.start()
    result = engine.execute(plan)
    saboteur.join(timeout=10)
    return result, out


class TestTransportDegradation:
    def test_malformed_reply_degrades_every_task(
        self, tmp_path, small_crawler, small_world
    ):
        """A worker replying garbage (with no re-dispatch budget left)
        must yield one structured transport record per task: the record
        count equals the plan size and every failure is category
        ``transport`` — never a silent drop."""
        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:6]
        )
        result, out = run_with_fake_worker(
            small_crawler, plan,
            lambda bundle: b"this is not a wire frame\n",
            tmp_path,
        )
        assert len(result) == len(plan)
        assert len(result.failures) == len(plan)
        for outcome in result.failures:
            assert outcome.error == "WireProtocolError"
            assert error_category(outcome.error) == "transport"
        lines = out.read_bytes().splitlines()
        assert len(lines) == len(plan)
        for line in lines:
            record = json.loads(line)
            assert record["data"]["error"] == "WireProtocolError"

    def test_undecodable_record_line_degrades_that_task(
        self, tmp_path, small_crawler, small_world
    ):
        """A structurally valid reply whose record lines do not decode
        degrades those tasks at the boundary instead of splicing poison
        into the spool."""
        def reply(bundle):
            return encode_message({
                "type": "result", "shard": bundle["shard"], "pid": 1,
                "elapsed": 0.0, "notes": [], "breakers": {},
                "outcomes": [
                    {"index": index, "attempts": 1, "error": None,
                     "record": "{this is not json"}
                    for index, *_ in bundle["tasks"]
                ],
            })

        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:5]
        )
        result, out = run_with_fake_worker(
            small_crawler, plan, reply, tmp_path
        )
        assert len(result) == len(plan)
        lines = out.read_bytes().splitlines()
        assert len(lines) == len(plan)
        for line in lines:
            record = json.loads(line)
            assert record["data"]["error"] == "WireProtocolError"

    def test_no_workers_fails_fast_with_worker_lost(self, small_crawler,
                                                    small_world):
        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:4]
        )
        engine = CrawlEngine(
            small_crawler, workers=1, shards=1, backend="distributed",
            executor=DistributedExecutor(0, connect_timeout=0.5),
        )
        with pytest.raises(WorkerLostError, match="no live workers"):
            engine.execute(plan)

    def test_out_of_plan_note_degrades_every_task(
        self, tmp_path, small_crawler, small_world
    ):
        """A reply whose retry note names a task outside the bundle is a
        protocol violation: the coordinator degrades the shard instead
        of aborting the run on the unknown plan index."""
        def reply(bundle):
            return encode_message({
                "type": "result", "shard": bundle["shard"], "pid": 1,
                "elapsed": 0.0, "breakers": {},
                "outcomes": [
                    {"index": index, "attempts": 1, "error": None,
                     "record": None}
                    for index, *_ in bundle["tasks"]
                ],
                "notes": [{"kind": "task-retry", "index": 999,
                           "attempt": 1, "error": "TimeoutError"}],
            })

        plan = small_crawler.plan_detection_crawl(
            ["DE"], small_world.crawl_targets[:4]
        )
        result, out = run_with_fake_worker(
            small_crawler, plan, reply, tmp_path
        )
        assert len(result) == len(plan)
        assert [o.error for o in result.failures] == \
            ["WireProtocolError"] * len(plan)
        assert len(out.read_bytes().splitlines()) == len(plan)

    def test_non_json_shared_state_is_a_readable_error(self):
        executor = DistributedExecutor(0)
        with pytest.raises(TransportError, match="not JSON data"):
            executor.run_bundles(
                [{"shard": 0, "tasks": [], "id_bases": [], "breakers": {}}],
                lambda payload: None,
                {"poison": lambda: None},
            )

    def test_hello_protocol_mismatch_strikes_the_worker(self):
        """A worker speaking another wire protocol is hung up on before
        it receives the shared state, and never counts as live."""
        executor = DistributedExecutor(0, connect_timeout=1.0)
        answers = []

        def peer():
            while executor.address is None:
                time.sleep(0.01)
            with socket.create_connection(executor.address, timeout=10) as conn:
                write_frame(conn.makefile("wb"), {
                    "type": "hello", "worker": "old", "pid": 1,
                    "protocol": WIRE_PROTOCOL_VERSION - 1,
                })
                answers.append(read_frame(conn.makefile("rb")))

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        with pytest.raises(WorkerLostError, match="none connected"):
            executor.run_bundles(
                [{"shard": 0, "tasks": [[0, "DE", "a.example", "detect", 1]],
                  "id_bases": [], "breakers": {}}],
                lambda payload: None, {},
            )
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert answers == [None]
