"""Command-line interface: ``repro-cookiewalls``.

The engine-backed subcommands (``crawl``, ``measure``,
``longitudinal``, ``multivantage``) are thin adapters over
:mod:`repro.api`: argv is
compiled into a :class:`~repro.api.RunSpec` (optionally seeded from a
``--config`` TOML/JSON file, with explicitly given flags overriding
file values) and executed through a :class:`~repro.api.Session` — the
same code path as the library API, so flag runs, config runs, and
programmatic runs produce byte-identical output.

Each flag that sets a spec field is one row of :data:`_KIND_ROWS`,
``(flag, "section.field", help)``; its type, choices and
repeatability are read off the field, and its bounds are checked by
the spec, exactly as for a config file (``error: engine.workers must
be >= 1, got 0``, exit status 2).

Examples
--------
List available experiments::

    repro-cookiewalls list

Run one experiment on a small world and print the artefact::

    repro-cookiewalls run table1 --scale 0.05

Describe a campaign in a config file, inspect it, run it::

    repro-cookiewalls spec crawl --config run.toml
    repro-cookiewalls crawl --config run.toml --workers 8
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import typing
from typing import Dict, List, Optional

from repro import schema
from repro.api import RunSpec, Session, SpecError, WorldSpec
from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from repro.webgen import build_world

#: Subcommands that compile argv into a RunSpec.
_SPEC_COMMANDS = ("crawl", "measure", "longitudinal", "multivantage")


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


# ---------------------------------------------------------------------------
# Flags read off the RunSpec fields.  Spec-backed subcommands use
# SUPPRESS defaults so the compiler can tell an explicitly given flag
# (which must override the config file) from an omitted one (where the
# file/spec default wins).
# ---------------------------------------------------------------------------

_OUT_HELP = "output JSONL path (required unless the config supplies output.path)"
_OUT_DIR_HELP = ("spool each wave to <dir>/wave-<MM>.jsonl with a resumable "
                 "checkpoint alongside")
_MONTH_HELP = ("wave offset in months, repeatable and increasing; 0 is the "
               "baseline snapshot (default: {})")

#: ``(flag, "section.field", help)`` rows: the world's (every
#: world-building subcommand's), the common ones of the spec-backed
#: subcommands, and those plus each kind's own.
_WORLD_ROWS = (
    ("--scale", "world.scale",
     "world scale (1.0 = the paper's 45k-site web; default 0.05)"),
    ("--seed", "world.seed", "world seed (default 2023)"),
)
_COMMON_ROWS = _WORLD_ROWS + (
    ("--workers", "engine.workers",
     "crawl-engine worker processes (default 1 = serial)"),
    ("--shards", "engine.shards",
     "crawl-engine shard count (default: 1 serial, 4x workers parallel; "
     "tasks are sharded by a stable domain hash)"),
    ("--executor", "engine.executor",
     "executor backend (default: serial when --workers 1, distributed "
     "otherwise — shard bundles go to worker processes over a socket work "
     "queue; final JSONL is byte-identical across backends)"),
    ("--resume", "engine.resume",
     "resume an interrupted run from its checkpoint (<out>.checkpoint); "
     "refuses when the checkpoint fingerprint does not match the "
     "plan/world/config"),
    ("--chaos-seed", "chaos.seed",
     "seed for the deterministic fault-injection plane (chaos.* config "
     "sets the rates; recoverable faults leave the output byte-identical "
     "to a fault-free run)"),
    ("--deadline", "resilience.task_deadline",
     "per-task virtual-seconds budget across attempts and backoff "
     "(resilience.task_deadline; breached tasks degrade to "
     "DeadlineExceeded partial records, no real sleeping)"),
    ("--breaker", "resilience.breaker_threshold",
     "open a per-domain circuit breaker after N consecutive task failures "
     "(resilience.breaker_threshold; quarantined tasks degrade to "
     "BreakerOpenError records, breaker state survives --resume)"),
)
_KIND_ROWS = {
    "crawl": _COMMON_ROWS + (
        ("--vp", "crawl.vps", "vantage point code (repeatable; default: all)"),
        ("--out", "output.path", _OUT_HELP),
    ),
    "measure": _COMMON_ROWS + (
        ("--vp", "measure.vp", "vantage point code (default: DE)"),
        ("--mode", "measure.mode", "measurement mode (default: accept)"),
        ("--repeats", "measure.repeats",
         "visits per domain (default 5, the paper's methodology)"),
        ("--domain", "measure.domains",
         "target domain (repeatable; default: detected wall domains from a "
         "fresh detection crawl)"),
        ("--out", "output.path", _OUT_HELP),
    ),
    "longitudinal": _COMMON_ROWS + (
        ("--vp", "longitudinal.vp", "vantage point code (default: DE)"),
        ("--month", "longitudinal.months",
         _MONTH_HELP.format("0 and 4, the paper's May/Sept gap")),
        ("--out-dir", "output.out_dir", _OUT_DIR_HELP),
    ),
    "multivantage": _COMMON_ROWS + (
        ("--vps", "multivantage.vps",
         "vantage point code (repeatable, case-insensitive; default: all "
         "eight)"),
        ("--month", "multivantage.months", _MONTH_HELP.format("just 0, a single wave")),
        ("--domain", "multivantage.domains",
         "target domain (repeatable; default: the world's reachable union)"),
        ("--regime", "multivantage.regime",
         "regulation regime, in any letter case: baseline browses from "
         "home; eu routes every VP through a German exit; non-eu routes the "
         "EU VPs through a US exit; geo-blocked has wall sites refuse "
         "GDPR-region visitors (default: baseline)"),
        ("--relocate-month", "multivantage.relocate_month",
         "first wave (month offset) the relocations apply from (default 0: "
         "all waves; later values change subsequent waves only)"),
        ("--out-dir", "output.out_dir", _OUT_DIR_HELP),
    ),
}


@functools.lru_cache(maxsize=None)
def _field(path: str):
    """``(shape, default)`` of the RunSpec field at ``section.field``."""
    section, name = path.split(".")
    cls = typing.get_type_hints(RunSpec)[section]
    return schema.fields_shape(cls)[name].shape, getattr(cls, name)


def _flag_kwargs(shape) -> Dict[str, object]:
    """argparse settings for a field of *shape*: a sequence repeats (one
    item a flag), a flag is ``store_true``, choices stay choices; every
    bound is the spec's to check."""
    if isinstance(shape, tuple):  # Optional[X] takes an X
        (shape,) = (option for option in shape if option is not None)
    if isinstance(shape, list):
        return dict(_flag_kwargs(shape[0]), action="append")
    if shape is bool:
        return {"action": "store_true"}
    if isinstance(shape, schema.OneOf):
        return {"choices": shape.choices}
    kind = shape.kind if isinstance(shape, schema.Range) else shape
    return {} if kind is str else {"type": kind}


def _add_flags(parser: argparse.ArgumentParser, rows, *, spec_mode: bool = True) -> None:
    """Add each row's flag; it stores under its ``section.field`` path,
    with the field's default outside *spec_mode*."""
    for flag, path, help_text in rows:
        shape, default = _field(path)
        kwargs = _flag_kwargs(shape)
        if kwargs.get("action") != "store_true" and "choices" not in kwargs:
            kwargs["metavar"] = flag[2:].upper().replace("-", "_")
        parser.add_argument(
            flag, dest=path, default=argparse.SUPPRESS if spec_mode else default,
            help=help_text, **kwargs,
        )


def _add_spec_surface(parser: argparse.ArgumentParser, kind: str) -> None:
    """The full flag surface of one spec-backed subcommand."""
    _add_flags(parser, _KIND_ROWS[kind])
    parser.add_argument(
        "--config", metavar="FILE", default=argparse.SUPPRESS,
        help="load a run spec from a TOML or JSON config file; flags "
             "given explicitly override the file's values",
    )
    if kind == "multivantage":
        parser.add_argument(
            "--relocate", action="append", default=argparse.SUPPRESS,
            metavar="VP=EXIT",
            help="VPN-like relocation: traffic of VP exits at EXIT "
                 "(repeatable; applied on top of the regime)",
        )


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
    _add_flags(run, _WORLD_ROWS, spec_mode=False)
    run.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    sub.add_parser("list", help="list available experiments")

    stats = sub.add_parser("stats", help="print world ground-truth stats")
    _add_flags(stats, _WORLD_ROWS, spec_mode=False)

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
    spec_sub = spec.add_subparsers(dest="kind", required=True)
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
    submit_sub = submit.add_subparsers(dest="kind", required=True)
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
    _add_flags(export, _WORLD_ROWS, spec_mode=False)
    export.add_argument("--dir", required=True, help="output directory")

    verify = sub.add_parser(
        "verify",
        help="run every experiment and compare against the paper's numbers",
    )
    _add_flags(verify, _WORLD_ROWS, spec_mode=False)
    verify.add_argument(
        "--markdown", action="store_true",
        help="emit the EXPERIMENTS.md-style markdown table",
    )

    validate = sub.add_parser(
        "validate", help="check the generated world's structural invariants"
    )
    _add_flags(validate, _WORLD_ROWS, spec_mode=False)

    return parser


# ---------------------------------------------------------------------------
# argv -> RunSpec
# ---------------------------------------------------------------------------

def _given(args: argparse.Namespace, rows) -> Dict[str, Dict[str, object]]:
    """``{section: {field: value}}`` for the rows' flags present in *args*."""
    given: Dict[str, Dict[str, object]] = {}
    for _, path, _ in rows:
        if hasattr(args, path):
            section, name = path.split(".")
            given.setdefault(section, {})[name] = getattr(args, path)
    return given


def _compile_spec(kind: str, args: argparse.Namespace) -> RunSpec:
    """Compile parsed argv into a validated RunSpec.

    Precedence: spec defaults < ``--config`` file values < explicitly
    given flags.  SUPPRESS defaults make "explicitly given" knowable —
    an absent attribute means the flag was omitted.
    """
    config = getattr(args, "config", None)
    base = RunSpec.load(config, kind=kind) if config else RunSpec(kind=kind)
    overrides = _given(args, _KIND_ROWS[kind])
    if hasattr(args, "relocate"):
        relocations = {}
        for pair in args.relocate:
            home, separator, exit_code = pair.partition("=")
            if not separator or not home or not exit_code:
                raise SpecError(
                    f"--relocate takes VP=EXIT pairs, got {pair!r}"
                )
            relocations[home] = exit_code
        overrides.setdefault("multivantage", {})["relocate"] = relocations
    return base.override(overrides)


def _run_spec_command(kind: str, spec: RunSpec) -> int:
    """Execute one compiled spec-backed subcommand via a Session."""
    from repro.measure import CheckpointMismatch

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


def _report(args) -> int:
    """``report``: summarise saved record files."""
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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # `spec <kind>` and `submit <kind>` compile like `<kind>` itself.
    kind = getattr(args, "kind", args.command)
    try:
        if kind in _SPEC_COMMANDS:
            spec = _compile_spec(kind, args)
        elif hasattr(args, "world.scale"):  # a world-building subcommand
            world_spec = WorldSpec.from_dict(_given(args, _WORLD_ROWS)["world"])
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    if args.command == "stats":
        world = build_world(scale=world_spec.scale, seed=world_spec.seed)
        for key, value in world.stats().items():
            print(f"{key}: {value}")
        return 0

    if args.command in _SPEC_COMMANDS:
        return _run_spec_command(kind, spec)

    if args.command == "spec":
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
        from repro.service import ServiceClient, ServiceError

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

    if args.command == "report":
        try:
            return _report(args)
        except ValueError as error:  # a malformed record line
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command == "export-toplists":
        from repro.webgen.crux import export_all

        world = build_world(scale=world_spec.scale, seed=world_spec.seed)
        paths = export_all(world.toplists, args.dir)
        for path in paths:
            print(path)
        return 0

    if args.command == "verify":
        from repro.analysis.papercheck import compare_with_paper

        world = build_world(scale=world_spec.scale, seed=world_spec.seed)
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

        world = build_world(scale=world_spec.scale, seed=world_spec.seed)
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
    world = build_world(scale=world_spec.scale, seed=world_spec.seed)
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
