"""Large-world memory smoke: the O(shard-buffer) merge claim, enforced.

Runs a detection crawl of a much-bigger-than-test world through the
**distributed executor with the spool-backed merge** and fails if the
parent process's peak RSS exceeds a documented ceiling.  The spool
merge holds one shard's outcomes at a time plus one buffered line per
part file during the k-way join, so peak memory is dominated by the
world itself (the synthetic web is in RAM by design) — if someone
reintroduces an O(records) buffer into the merge path, this guard
trips long before a paper-scale campaign would OOM.

Run by the scheduled / ``workflow_dispatch`` ``large-world-smoke`` CI
job; locally::

    PYTHONPATH=src python benchmarks/large_world_smoke.py --scale 0.2

``--flat-scales A B`` runs the smoke **twice, in fresh subprocesses**
(``ru_maxrss`` is lifetime-monotonic, so each scale needs its own
process) and then asserts the crawl's RSS *delta* stays flat as the
world grows: the streaming pipeline's working set is the plan plus one
shard's buffers, so doubling the record count must not double the
delta.  The tolerance (``--flat-slack-mb``, default 96 MB) absorbs the
parts that legitimately scale — the O(tasks) plan, proportionally
larger shard buffers, allocator slop — while still tripping on the
real regression this mode exists for: materialising the record stream,
which at 0.2-scale adds hundreds of MB, not tens.

Ceiling calibration (documented so failures are interpretable): at
``--scale 0.2``, all eight vantage points (~72k tasks), the world
plus interpreter sits around 45 MB and the spool-merged crawl adds
~110 MB — the 72k-task plan, warm parse/filter caches, and one
shard's buffers, all O(tasks)-or-bounded, none O(records-held).  The
defaults — 512 MB peak, 256 MB crawl delta — leave ~2× headroom for
platform variance while tripping on the expensive regressions
(buffering encoded payload dicts, event streams, or whole-world
outcome lists through the merge); that a spooled result holds no
records (``EngineResult.held is None``, lazy ``RunResult``) is pinned
separately by the executor-backend test matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.measure import CrawlEngine, Crawler
from repro.measure.storage import iter_records
from repro.webgen import build_world

#: Default peak-RSS ceiling (MB) for the default --scale 0.2 run.
DEFAULT_CEILING_MB = 512
#: Default ceiling (MB) on RSS growth between world build and crawl
#: end — the part the merge strategy controls.
DEFAULT_DELTA_CEILING_MB = 256
DEFAULT_SCALE = 0.2
#: Default slack (MB) allowed between the crawl RSS deltas of the two
#: ``--flat-scales`` runs.  The plan is O(tasks) and the shard buffers
#: grow with world size, so "flat" means tens of MB apart — record
#: materialisation would differ by hundreds.
DEFAULT_FLAT_SLACK_MB = 96


def peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_flat_scales(args) -> int:
    """Run the smoke at two scales and require a flat crawl RSS delta.

    Each scale gets a **fresh subprocess**: ``ru_maxrss`` never goes
    down, so a second in-process run would inherit the first run's
    peak and the comparison would be meaningless.  Only the crawl's
    RSS *growth* (``crawl_rss_delta_mb``) is compared — the world
    itself is in RAM by design and scales with ``--scale``.
    """
    small, large = sorted(args.flat_scales)
    summaries = []
    with tempfile.TemporaryDirectory(prefix="flat-scales-") as tmp:
        for scale in (small, large):
            summary_path = Path(tmp) / f"scale-{scale}.json"
            cmd = [
                sys.executable, __file__,
                "--scale", str(scale),
                "--seed", str(args.seed),
                "--workers", str(args.workers),
                "--shards", str(args.shards),
                # The per-run ceilings are the flat comparison's job
                # here; disable them so a single loose run can't mask
                # or double-report.
                "--rss-ceiling-mb", "1e9",
                "--rss-delta-ceiling-mb", "1e9",
                "--summary-json", str(summary_path),
            ]
            for vp in args.vp or ():
                cmd += ["--vp", vp]
            print(f"--- flat-scales: scale {scale} ---", flush=True)
            proc = subprocess.run(cmd, env=os.environ.copy())
            if proc.returncode != 0:
                print(f"FAIL: scale-{scale} subprocess exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            summaries.append(
                json.loads(summary_path.read_text(encoding="utf-8"))
            )
    deltas = [s["crawl_rss_delta_mb"] for s in summaries]
    growth = deltas[1] - deltas[0]
    ratio = summaries[1]["records"] / max(summaries[0]["records"], 1)
    print(f"flat-scales: crawl RSS delta {deltas[0]:.0f} MB @ scale "
          f"{small} vs {deltas[1]:.0f} MB @ scale {large} "
          f"({ratio:.1f}x the records; growth {growth:.0f} MB, "
          f"slack {args.flat_slack_mb:.0f} MB)")
    if growth > args.flat_slack_mb:
        print(f"FAIL: the crawl RSS delta grew by {growth:.0f} MB "
              f"(> {args.flat_slack_mb:.0f} MB slack) between scales "
              f"{small} and {large} — the pipeline is holding "
              "per-record state; peak memory must stay O(plan + one "
              "shard's buffers) as the world grows", file=sys.stderr)
        return 1
    print("OK: peak RSS is flat across world scales")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help=f"world scale (default {DEFAULT_SCALE})")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--shards", type=int, default=16)
    parser.add_argument("--rss-ceiling-mb", type=float,
                        default=DEFAULT_CEILING_MB,
                        help="fail if parent peak RSS exceeds this "
                             f"(default {DEFAULT_CEILING_MB} MB, calibrated "
                             f"for --scale {DEFAULT_SCALE})")
    parser.add_argument("--rss-delta-ceiling-mb", type=float,
                        default=DEFAULT_DELTA_CEILING_MB,
                        help="fail if the crawl grows RSS beyond the "
                             "post-world-build baseline by more than this "
                             f"(default {DEFAULT_DELTA_CEILING_MB} MB)")
    parser.add_argument("--vp", action="append", default=None,
                        help="vantage point (repeatable; default: all "
                             "eight, ~72k tasks at the default scale)")
    parser.add_argument("--out-dir", default=None,
                        help="spool directory (default: a temp dir)")
    parser.add_argument("--summary-json", default=None, metavar="PATH",
                        help="also write the summary dict to PATH as JSON "
                             "(used by --flat-scales subprocesses)")
    parser.add_argument("--flat-scales", nargs=2, type=float, default=None,
                        metavar=("SMALL", "LARGE"),
                        help="run the smoke at two scales in fresh "
                             "subprocesses and fail unless the crawl RSS "
                             "delta stays flat between them")
    parser.add_argument("--flat-slack-mb", type=float,
                        default=DEFAULT_FLAT_SLACK_MB,
                        help="allowed crawl-RSS-delta growth between the "
                             "two --flat-scales runs "
                             f"(default {DEFAULT_FLAT_SLACK_MB} MB)")
    args = parser.parse_args(argv)

    if args.flat_scales is not None:
        return run_flat_scales(args)

    out_dir = Path(args.out_dir) if args.out_dir else Path(
        tempfile.mkdtemp(prefix="large-world-smoke-")
    )
    out = out_dir / "crawl.jsonl"

    started = time.perf_counter()
    world = build_world(scale=args.scale, seed=args.seed)
    built = time.perf_counter() - started
    rss_after_world = peak_rss_mb()
    crawler = Crawler(world)
    plan = crawler.plan_detection_crawl(args.vp)
    print(f"world: scale {args.scale}, {len(plan)} tasks "
          f"(built in {built:.1f}s, peak RSS {rss_after_world:.0f} MB)")

    engine = CrawlEngine(
        crawler,
        workers=args.workers,
        shards=args.shards,
        backend="distributed",
        spool_path=out,
    )
    started = time.perf_counter()
    result = engine.execute(plan)
    crawl_elapsed = time.perf_counter() - started
    peak = peak_rss_mb()

    spooled = sum(1 for _ in iter_records(out))
    summary = {
        "scale": args.scale,
        "tasks": len(plan),
        "records": result.record_count,
        "spooled_records": spooled,
        "failures": len(result.failures),
        "crawl_seconds": round(crawl_elapsed, 1),
        "rss_after_world_mb": round(rss_after_world, 1),
        "peak_rss_mb": round(peak, 1),
        "rss_ceiling_mb": args.rss_ceiling_mb,
        "crawl_rss_delta_mb": round(peak - rss_after_world, 1),
        "rss_delta_ceiling_mb": args.rss_delta_ceiling_mb,
    }
    print(json.dumps(summary, indent=2))
    if args.summary_json:
        Path(args.summary_json).write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )

    if result.record_count != spooled:
        print(f"FAIL: result reports {result.record_count} records but the "
              f"spool holds {spooled}", file=sys.stderr)
        return 1
    if result.record_count + len(result.failures) != len(plan):
        print("FAIL: records + failures do not cover the plan",
              file=sys.stderr)
        return 1
    if peak > args.rss_ceiling_mb:
        print(f"FAIL: peak RSS {peak:.0f} MB exceeds the "
              f"{args.rss_ceiling_mb:.0f} MB ceiling — the spool merge "
              "is supposed to keep memory at O(one shard's buffer); "
              "something is materialising the record stream",
              file=sys.stderr)
        return 1
    delta = peak - rss_after_world
    if delta > args.rss_delta_ceiling_mb:
        print(f"FAIL: the crawl grew RSS by {delta:.0f} MB "
              f"(> {args.rss_delta_ceiling_mb:.0f} MB) over the "
              "post-world-build baseline — the merge path is buffering "
              "outcomes it should be streaming", file=sys.stderr)
        return 1
    print(f"OK: peak RSS {peak:.0f} MB <= {args.rss_ceiling_mb:.0f} MB "
          f"ceiling, crawl delta {delta:.0f} MB <= "
          f"{args.rss_delta_ceiling_mb:.0f} MB "
          f"({result.record_count} records spool-merged)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
