"""Command-line interface: ``repro-cookiewalls``.

The engine-backed subcommands (``crawl``, ``measure``,
``longitudinal``, ``multivantage``) are thin adapters over
:mod:`repro.api`: argv is
compiled into a :class:`~repro.api.RunSpec` (optionally seeded from a
``--config`` TOML/JSON file, with explicitly given flags overriding
file values) and executed through a :class:`~repro.api.Session` — the
same code path as the library API, so flag runs, config runs, and
programmatic runs produce byte-identical output.

Examples
--------
List available experiments::

    repro-cookiewalls list

Run one experiment on a small world and print the artefact::

    repro-cookiewalls run table1 --scale 0.05

Describe a campaign in a config file, inspect it, run it::

    repro-cookiewalls spec crawl --config run.toml
    repro-cookiewalls crawl --config run.toml --workers 8

Compact a long-lived crawl checkpoint in place::

    repro-cookiewalls checkpoint compact crawl.jsonl.checkpoint
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from repro.measure.engine import EXECUTOR_BACKENDS
from repro.webgen import build_world

#: Subcommands that compile argv into a RunSpec.
_SPEC_COMMANDS = ("crawl", "measure", "longitudinal", "multivantage")


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


# ---------------------------------------------------------------------------
# Flag groups.  Spec-backed subcommands use SUPPRESS defaults so the
# compiler can tell an explicitly given flag (which must override the
# config file) from an omitted one (where the file/spec default wins).
# ---------------------------------------------------------------------------

def _add_world_args(parser: argparse.ArgumentParser, *, spec_mode: bool = False) -> None:
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--scale", type=float, default=suppress if spec_mode else 0.05,
        help="world scale (1.0 = the paper's 45k-site web; default 0.05)",
    )
    parser.add_argument(
        "--seed", type=int, default=suppress if spec_mode else 2023,
        help="world seed (default 2023)",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int, default=argparse.SUPPRESS,
        help="crawl-engine worker processes (default 1 = serial)",
    )
    parser.add_argument(
        "--shards", type=_positive_int, default=argparse.SUPPRESS,
        help="crawl-engine shard count (default: 1 serial, 4x workers "
             "parallel; tasks are sharded by a stable domain hash)",
    )
    parser.add_argument(
        "--executor", choices=EXECUTOR_BACKENDS,
        default=argparse.SUPPRESS,
        help="executor backend (default: serial when --workers 1, "
             "distributed otherwise — shard bundles go to worker "
             "processes over a socket work queue; final JSONL is "
             "byte-identical across backends)",
    )
    parser.add_argument(
        "--resume", action="store_true", default=argparse.SUPPRESS,
        help="resume an interrupted run from its checkpoint "
             "(<out>.checkpoint); refuses when the checkpoint fingerprint "
             "does not match the plan/world/config",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=argparse.SUPPRESS,
        help="seed for the deterministic fault-injection plane "
             "(chaos.* config sets the rates; recoverable faults leave "
             "the output byte-identical to a fault-free run)",
    )
    parser.add_argument(
        "--deadline", type=float, default=argparse.SUPPRESS,
        help="per-task virtual-seconds budget across attempts and "
             "backoff (resilience.task_deadline; breached tasks degrade "
             "to DeadlineExceeded partial records, no real sleeping)",
    )
    parser.add_argument(
        "--breaker", type=_positive_int, default=argparse.SUPPRESS,
        help="open a per-domain circuit breaker after N consecutive "
             "task failures (resilience.breaker_threshold; quarantined "
             "tasks degrade to BreakerOpenError records, breaker state "
             "survives --resume)",
    )
    parser.add_argument(
        "--config", metavar="FILE", default=argparse.SUPPRESS,
        help="load a run spec from a TOML or JSON config file; flags "
             "given explicitly override the file's values",
    )


def _add_crawl_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vp", action="append", default=argparse.SUPPRESS,
        help="vantage point code (repeatable; default: all)",
    )
    parser.add_argument(
        "--out", default=argparse.SUPPRESS,
        help="output JSONL path (required unless the config supplies "
             "output.path)",
    )


def _add_measure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vp", default=argparse.SUPPRESS,
        help="vantage point code (default: DE)",
    )
    parser.add_argument(
        "--mode", choices=("accept", "reject", "ublock"),
        default=argparse.SUPPRESS,
        help="measurement mode (default: accept)",
    )
    parser.add_argument(
        "--repeats", type=_positive_int, default=argparse.SUPPRESS,
        help="visits per domain (default 5, the paper's methodology)",
    )
    parser.add_argument(
        "--domain", action="append", default=argparse.SUPPRESS,
        help="target domain (repeatable; default: detected wall domains "
             "from a fresh detection crawl)",
    )
    parser.add_argument(
        "--out", default=argparse.SUPPRESS,
        help="output JSONL path (required unless the config supplies "
             "output.path)",
    )


def _add_longitudinal_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vp", default=argparse.SUPPRESS,
        help="vantage point code (default: DE)",
    )
    parser.add_argument(
        "--month", action="append", type=int, default=argparse.SUPPRESS,
        dest="months",
        help="wave offset in months, repeatable and increasing; 0 is the "
             "baseline snapshot (default: 0 and 4, the paper's May/Sept gap)",
    )
    parser.add_argument(
        "--out-dir", default=argparse.SUPPRESS,
        help="spool each wave to <dir>/wave-<MM>.jsonl with a resumable "
             "checkpoint alongside",
    )


def _add_multivantage_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vps", action="append", default=argparse.SUPPRESS,
        help="vantage point code (repeatable, case-insensitive; "
             "default: all eight)",
    )
    parser.add_argument(
        "--month", action="append", type=int, default=argparse.SUPPRESS,
        dest="months",
        help="wave offset in months, repeatable and increasing; 0 is the "
             "baseline snapshot (default: just 0, a single wave)",
    )
    parser.add_argument(
        "--domain", action="append", default=argparse.SUPPRESS,
        help="target domain (repeatable; default: the world's reachable "
             "union)",
    )
    parser.add_argument(
        "--regime", choices=("baseline", "eu", "non-eu", "geo-blocked"),
        default=argparse.SUPPRESS,
        help="regulation regime: baseline browses from home; eu routes "
             "every VP through a German exit; non-eu routes the EU VPs "
             "through a US exit; geo-blocked has wall sites refuse "
             "GDPR-region visitors",
    )
    parser.add_argument(
        "--relocate", action="append", default=argparse.SUPPRESS,
        metavar="VP=EXIT",
        help="VPN-like relocation: traffic of VP exits at EXIT "
             "(repeatable; applied on top of the regime)",
    )
    parser.add_argument(
        "--relocate-month", type=int, default=argparse.SUPPRESS,
        help="first wave (month offset) the relocations apply from "
             "(default 0: all waves; later values change subsequent "
             "waves only)",
    )
    parser.add_argument(
        "--out-dir", default=argparse.SUPPRESS,
        help="spool each wave to <dir>/wave-<MM>.jsonl with a resumable "
             "checkpoint alongside",
    )


_WORKLOAD_ARGS = {
    "crawl": _add_crawl_args,
    "measure": _add_measure_args,
    "longitudinal": _add_longitudinal_args,
    "multivantage": _add_multivantage_args,
}


def _add_spec_surface(parser: argparse.ArgumentParser, kind: str) -> None:
    """The full flag surface of one spec-backed subcommand."""
    _add_world_args(parser, spec_mode=True)
    _add_engine_args(parser)
    _WORKLOAD_ARGS[kind](parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cookiewalls",
        description="Reproduce 'Thou Shalt Not Reject' (IMC 2023) "
                    "on a synthetic web.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments", nargs="+",
        help=f"experiment ids (or 'all'); known: {', '.join(sorted(EXPERIMENTS))}",
    )
    _add_world_args(run)
    run.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    sub.add_parser("list", help="list available experiments")

    stats = sub.add_parser("stats", help="print world ground-truth stats")
    _add_world_args(stats)

    crawl = sub.add_parser(
        "crawl", help="run a detection crawl and save JSONL records"
    )
    _add_spec_surface(crawl, "crawl")

    measure = sub.add_parser(
        "measure",
        help="run cookie/uBlock measurements through the crawl engine, "
             "streaming JSONL records shard-by-shard",
    )
    _add_spec_surface(measure, "measure")

    longitudinal = sub.add_parser(
        "longitudinal",
        help="re-crawl the same targets against evolved world snapshots "
             "(waves through the crawl engine) and report the drift",
    )
    _add_spec_surface(longitudinal, "longitudinal")

    multivantage = sub.add_parser(
        "multivantage",
        help="one campaign, N vantage points: crawl the VP x domain x "
             "wave cross-product under a regulation regime and report "
             "the geo-discrepancies",
    )
    _add_spec_surface(multivantage, "multivantage")

    spec = sub.add_parser(
        "spec",
        help="resolve a run spec (config file + flags) and print it "
             "without running anything",
    )
    spec_sub = spec.add_subparsers(dest="spec_kind", required=True)
    for kind in _SPEC_COMMANDS:
        kind_parser = spec_sub.add_parser(
            kind, help=f"resolve and print a '{kind}' run spec"
        )
        _add_spec_surface(kind_parser, kind)

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: a long-lived HTTP server that "
             "accepts versioned RunSpec JSON (submit/status/stream/"
             "cancel) with per-tenant quotas and priority scheduling",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default localhost)"
    )
    serve.add_argument(
        "--port", type=int, default=8423,
        help="bind port (default 8423; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--data-dir", required=True,
        help="root for job state and campaign outputs (jobs/ and "
             "campaigns/<id>/ live here; campaigns resume from the "
             "checkpoints they left behind)",
    )
    serve.add_argument(
        "--quota", type=_positive_int, default=4,
        help="max queued+running campaigns per tenant (submits beyond "
             "it get HTTP 429; default 4)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="requeue persisted unfinished jobs on startup; their "
             "campaigns restore from their checkpoint fingerprints",
    )

    worker = sub.add_parser(
        "worker", help="distributed-crawl worker processes"
    )
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    worker_serve = worker_sub.add_parser(
        "serve",
        help="dial a distributed-run coordinator and run shard bundles "
             "from its work queue until it closes the connection",
    )
    worker_serve.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's work-queue address (printed by a "
             "distributed-executor run, or set via the engine spec)",
    )
    worker_serve.add_argument(
        "--id", dest="worker_id", default=None,
        help="worker name reported in the hello (default: host-pid)",
    )
    worker_serve.add_argument(
        "--heartbeat", type=float, default=1.0,
        help="heartbeat interval in seconds while a shard runs "
             "(default 1.0)",
    )

    submit = sub.add_parser(
        "submit",
        help="compile a run spec from flags/--config (exactly like the "
             "run subcommands) and submit it to a campaign service",
    )
    submit_sub = submit.add_subparsers(dest="submit_kind", required=True)
    for kind in _SPEC_COMMANDS:
        kind_parser = submit_sub.add_parser(
            kind, help=f"submit a '{kind}' campaign"
        )
        _add_spec_surface(kind_parser, kind)
        kind_parser.add_argument(
            "--url", required=True,
            help="service base URL, e.g. http://127.0.0.1:8423",
        )
        kind_parser.add_argument(
            "--tenant", default="default",
            help="tenant the campaign counts against (quota unit)",
        )
        kind_parser.add_argument(
            "--priority", type=int, default=0,
            help="scheduling priority (higher runs first; default 0)",
        )
        kind_parser.add_argument(
            "--wait", action="store_true",
            help="poll until the campaign leaves the queue and print "
                 "its final state",
        )

    checkpoint = sub.add_parser(
        "checkpoint", help="crawl-checkpoint file maintenance"
    )
    checkpoint_sub = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    compact = checkpoint_sub.add_parser(
        "compact",
        help="rewrite an append-only checkpoint keeping only the latest "
             "outcome per task (header and resumability preserved)",
    )
    compact.add_argument("path", help="checkpoint file (<out>.checkpoint)")

    report = sub.add_parser(
        "report", help="summarise saved crawl records (walls per VP, or "
                       "the multi-vantage geo-discrepancy report)"
    )
    report.add_argument(
        "records", nargs="+",
        help="JSONL file(s) produced by 'crawl' or 'multivantage', or a "
             "campaign --out-dir (expanded to its wave-<MM>.jsonl "
             "spools; the names carry their wave offset)",
    )
    report.add_argument(
        "--product", choices=("walls", "discrepancy", "failures"),
        default="walls",
        help="walls: banner/cookiewall counts per VP (default); "
             "discrepancy: the streaming per-domain geo-discrepancy "
             "report across VPs and waves; failures: the degraded-record "
             "taxonomy (error class x vantage point, "
             "transient/permanent)",
    )

    export = sub.add_parser(
        "export-toplists", help="write the country toplists as CrUX-style CSV"
    )
    _add_world_args(export)
    export.add_argument("--dir", required=True, help="output directory")

    verify = sub.add_parser(
        "verify",
        help="run every experiment and compare against the paper's numbers",
    )
    _add_world_args(verify)
    verify.add_argument(
        "--markdown", action="store_true",
        help="emit the EXPERIMENTS.md-style markdown table",
    )

    validate = sub.add_parser(
        "validate", help="check the generated world's structural invariants"
    )
    _add_world_args(validate)

    return parser


# ---------------------------------------------------------------------------
# argv -> RunSpec
# ---------------------------------------------------------------------------

def _compile_spec(kind: str, args: argparse.Namespace):
    """Compile parsed argv into a validated RunSpec.

    Precedence: spec defaults < ``--config`` file values < explicitly
    given flags.  SUPPRESS defaults make "explicitly given" knowable —
    an absent attribute means the flag was omitted.
    """
    from repro.api import RunSpec, SpecError

    config = getattr(args, "config", None)
    base = RunSpec.load(config, kind=kind) if config else RunSpec(kind=kind)
    given = lambda name: hasattr(args, name)  # noqa: E731
    overrides = {
        "world": {}, "engine": {}, "resilience": {}, "chaos": {},
        kind: {}, "output": {},
    }
    if given("scale"):
        overrides["world"]["scale"] = args.scale
    if given("seed"):
        overrides["world"]["seed"] = args.seed
    if given("workers"):
        overrides["engine"]["workers"] = args.workers
    if given("shards"):
        overrides["engine"]["shards"] = args.shards
    if given("executor"):
        overrides["engine"]["executor"] = args.executor
    if given("resume"):
        overrides["engine"]["resume"] = True
    if given("chaos_seed"):
        overrides["chaos"]["seed"] = args.chaos_seed
    if given("deadline"):
        overrides["resilience"]["task_deadline"] = args.deadline
    if given("breaker"):
        overrides["resilience"]["breaker_threshold"] = args.breaker
    if kind == "crawl":
        if given("vp"):
            overrides["crawl"]["vps"] = tuple(args.vp)
        if given("out"):
            overrides["output"]["path"] = args.out
    elif kind == "measure":
        if given("vp"):
            overrides["measure"]["vp"] = args.vp
        if given("mode"):
            overrides["measure"]["mode"] = args.mode
        if given("repeats"):
            overrides["measure"]["repeats"] = args.repeats
        if given("domain"):
            overrides["measure"]["domains"] = tuple(args.domain)
        if given("out"):
            overrides["output"]["path"] = args.out
    elif kind == "longitudinal":
        if given("vp"):
            overrides["longitudinal"]["vp"] = args.vp
        if given("months"):
            overrides["longitudinal"]["months"] = tuple(args.months)
        if given("out_dir"):
            overrides["output"]["out_dir"] = args.out_dir
    else:
        if given("vps"):
            overrides["multivantage"]["vps"] = tuple(args.vps)
        if given("months"):
            overrides["multivantage"]["months"] = tuple(args.months)
        if given("domain"):
            overrides["multivantage"]["domains"] = tuple(args.domain)
        if given("regime"):
            overrides["multivantage"]["regime"] = args.regime
        if given("relocate"):
            relocations = {}
            for pair in args.relocate:
                home, separator, exit_code = pair.partition("=")
                if not separator or not home or not exit_code:
                    raise SpecError(
                        f"--relocate takes VP=EXIT pairs, got {pair!r}"
                    )
                relocations[home] = exit_code
            overrides["multivantage"]["relocate"] = relocations
        if given("relocate_month"):
            overrides["multivantage"]["relocate_month"] = args.relocate_month
        if given("out_dir"):
            overrides["output"]["out_dir"] = args.out_dir
    return base.override(overrides)


def _run_spec_command(kind: str, args: argparse.Namespace) -> int:
    """Compile and execute one spec-backed subcommand via a Session."""
    from repro.api import Session, SpecError
    from repro.measure import CheckpointMismatch

    try:
        spec = _compile_spec(kind, args)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if kind in ("crawl", "measure") and not spec.output.path:
        print(
            "error: an output path is required (--out, or output.path "
            "in --config)", file=sys.stderr,
        )
        return 2
    try:
        result = Session(spec).run()
    except CheckpointMismatch as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    resumed = (
        f", {result.resumed} replayed from checkpoint"
        if result.resumed else ""
    )
    if kind == "crawl":
        # Streamed, not materialised: a spool-merged crawl of a huge
        # world must stay O(1) in the summary pass too.
        walls = len({
            r.domain for r in result.iter_records()
            if getattr(r, "is_cookiewall", False)
        })
        print(f"wrote {result.record_count} records to {spec.output.path} "
              f"({walls} unique cookiewall domains{resumed})")
    elif kind == "measure":
        print(f"wrote {result.record_count} {spec.measure.mode} records to "
              f"{spec.output.path} ({result.tasks_per_sec:.1f} tasks/s, "
              f"{len(result.failures)} failures{resumed})")
    else:
        print(result.campaign.render())
        if spec.output.out_dir:
            print(f"\nwave records spooled under {spec.output.out_dir}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    if args.command == "stats":
        world = build_world(scale=args.scale, seed=args.seed)
        for key, value in world.stats().items():
            print(f"{key}: {value}")
        return 0

    if args.command in _SPEC_COMMANDS:
        return _run_spec_command(args.command, args)

    if args.command == "spec":
        from repro.api import SpecError

        try:
            spec = _compile_spec(args.spec_kind, args)
        except SpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.command == "serve":
        from repro.service import CampaignService

        service = CampaignService(
            args.data_dir, host=args.host, port=args.port, quota=args.quota
        )
        return service.serve_forever(resume=args.resume)

    if args.command == "worker":
        from repro.distributed import serve_worker
        from repro.errors import WireProtocolError

        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print(
                f"error: --connect takes HOST:PORT, got {args.connect!r}",
                file=sys.stderr,
            )
            return 2
        try:
            served = serve_worker(
                host, int(port),
                worker_id=args.worker_id,
                heartbeat_interval=args.heartbeat,
            )
        except (WireProtocolError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"served {served} shard(s)")
        return 0

    if args.command == "submit":
        from repro.api import SpecError
        from repro.service import ServiceClient, ServiceError

        try:
            spec = _compile_spec(args.submit_kind, args)
        except SpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        client = ServiceClient(args.url)
        try:
            job = client.submit(
                spec, tenant=args.tenant, priority=args.priority
            )
            print(f"{job['id']}: {job['state']}")
            if args.wait:
                job = client.wait(job["id"])
                print(f"{job['id']}: {job['state']}"
                      + (f" ({job['error']})" if job.get("error") else ""))
                return 0 if job["state"] == "done" else 1
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    if args.command == "checkpoint":
        from repro.measure import CheckpointMismatch, CrawlEngine

        try:
            compaction = CrawlEngine.compact_checkpoint(args.path)
        except (CheckpointMismatch, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(compaction.render())
        return 0

    if args.command == "report":
        import re
        from collections import Counter
        from pathlib import Path

        from repro.measure.storage import iter_records

        # A campaign --out-dir may be passed directly; expand it to its
        # wave spools (sorted, so wave offsets parse in order).
        record_paths: List[str] = []
        for entry in args.records:
            if Path(entry).is_dir():
                spools = sorted(Path(entry).glob("wave-*.jsonl"))
                if not spools:
                    print(f"no wave-*.jsonl spools under {entry}",
                          file=sys.stderr)
                    return 2
                record_paths.extend(str(spool) for spool in spools)
            else:
                record_paths.append(entry)

        if args.product == "failures":
            from repro.analysis import StreamingFailureTaxonomy

            taxonomy = StreamingFailureTaxonomy()
            for position, path in enumerate(record_paths):
                # Same wave attribution as the discrepancy product, so
                # campaign spools stay distinguishable in the table.
                match = re.search(r"wave-(\d+)", Path(path).name)
                wave = int(match.group(1)) if match else None
                for record in iter_records(path):
                    taxonomy.add(record, wave=wave)
            print(taxonomy.render())
            return 0

        if args.product == "discrepancy":
            from repro.analysis import StreamingDiscrepancyReport

            report = StreamingDiscrepancyReport()
            for position, path in enumerate(record_paths):
                # wave-<MM>.jsonl spools carry their wave offset in the
                # name; anything else is attributed by argument order.
                match = re.search(r"wave-(\d+)", Path(path).name)
                wave = int(match.group(1)) if match else position
                report.consume(iter_records(path), wave=wave)
            print(report.render())
            return 0

        count = 0
        vps = set()
        per_vp = Counter()
        banners = Counter()
        wall_domains = set()
        for path in record_paths:
            for record in iter_records(path):
                if getattr(record, "is_cookiewall", None) is None:
                    continue
                count += 1
                vps.add(record.vp)
                if record.is_cookiewall:
                    per_vp[record.vp] += 1
                    wall_domains.add(record.domain)
                if record.banner_found:
                    banners[record.vp] += 1
        print(f"records: {count}")
        for vp in sorted(vps):
            print(f"  {vp}: {banners.get(vp, 0)} banners, "
                  f"{per_vp.get(vp, 0)} cookiewalls")
        print(f"unique cookiewall domains: {len(wall_domains)}")
        return 0

    if args.command == "export-toplists":
        from repro.webgen.crux import export_all

        world = build_world(scale=args.scale, seed=args.seed)
        paths = export_all(world.toplists, args.dir)
        for path in paths:
            print(path)
        return 0

    if args.command == "verify":
        from repro.analysis.papercheck import compare_with_paper

        world = build_world(scale=args.scale, seed=args.seed)
        context = ExperimentContext(world)
        results = [
            run_experiment(e, context=context) for e in sorted(EXPERIMENTS)
        ]
        comparison = compare_with_paper(results)
        print(
            comparison.render_markdown()
            if args.markdown
            else comparison.render_text()
        )
        return 0 if comparison.holding == comparison.total else 1

    if args.command == "validate":
        from repro.webgen.validate import validate_world

        world = build_world(scale=args.scale, seed=args.seed)
        report = validate_world(world)
        print(report.render())
        return 0 if report.ok else 1

    # run
    requested = list(args.experiments)
    if requested == ["all"]:
        requested = sorted(EXPERIMENTS)
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    world = build_world(scale=args.scale, seed=args.seed)
    context = ExperimentContext(world)
    results = [
        run_experiment(experiment_id, context=context)
        for experiment_id in requested
    ]
    if args.json:
        print(json.dumps(
            {r.experiment_id: r.data for r in results},
            indent=2, default=str,
        ))
    else:
        for result in results:
            print("=" * 72)
            print(result.rendered)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
