"""Which public functions each layer is timed through, and its metrics.

Every metric is named ``<layer>.<what>``, the layer being the module
it wraps.  ``_s`` metrics are self times (a span minus its children)
unless the docstring of :func:`per_layer_metrics` says otherwise; a
layer a workload never enters reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.distributed.executor import DistributedExecutor
from repro.experiments.runner import EXPERIMENTS
from tracer import Tracer, resolve

#: Task modes with a ``crawl.task_s.<mode>`` metric: the ones the
#: workloads run (no workload runs ``reject``).
TASK_MODES = ("detect", "accept", "subscription", "ublock")

#: (``module[.Class].attr`` the caller looks up at call time, span name).
SPANS: List[Tuple[str, str]] = [
    ("repro.webgen.world.build_world", "webgen.build"),
    ("repro.netsim.network.Network.fetch", "netsim.fetch"),
    ("repro.soup.cache.DocumentCache.parse", "soup.cache_parse"),
    ("repro.soup.cache.parse_document", "soup.parse_document"),
    ("repro.browser.core.parse_document", "soup.parse_document"),
    ("repro.soup.api.query_selector_all", "dom.query"),
    ("repro.adblock.ublock.query_selector_all", "dom.query"),
    ("repro.browser.effects.query_selector", "dom.query"),
    ("repro.browser.webdriver.query_selector_all", "dom.query"),
    ("repro.bannerclick.detect.iter_elements_by_tags", "dom.query"),
    ("repro.browser.core.Browser.visit", "browser.visit"),
    ("repro.browser.core.Browser.fetch_subresource", "browser.subresource"),
    ("repro.httpkit.cookies.CookieJar.set_from_header", "httpkit.set_cookie"),
    ("repro.httpkit.cookies.CookieJar.cookies_for", "httpkit.cookies_for"),
    ("repro.bannerclick.detect.BannerClick.detect", "bannerclick.detect"),
    ("repro.measure.crawl.accept_banner", "bannerclick.interact"),
    ("repro.measure.crawl.reject_banner", "bannerclick.interact"),
    ("repro.lang.detector.LanguageDetector.detect", "lang.detect"),
    ("repro.measure.engine.CrawlEngine.execute", "engine.execute"),
    ("repro.measure.engine.encode_record_line", "storage.encode"),
    ("repro.measure.storage.encode_record_line", "storage.encode"),
    ("repro.measure.engine.merge_record_spools", "storage.merge"),
    ("repro.analysis.streaming.StreamingCrawlAnalysis.add", "analysis.fold"),
    ("repro.analysis.discrepancy.StreamingDiscrepancyReport.add", "analysis.fold"),
    ("repro.analysis.papercheck.compare_with_paper", "papercheck.compare"),
    ("repro.api.session.Session.execute", "api.session_execute"),
]

#: Generator functions: every ``next()`` is one span.
ITER_SPANS: List[Tuple[str, str]] = [
    ("repro.measure.storage.iter_records", "storage.read"),
    ("repro.measure.engine.iter_records", "storage.read"),
    ("repro.api.result.iter_records", "storage.read"),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; ``tracer.uninstall()`` undoes it."""
    for path, name in SPANS:
        tracer.patch_path(path, name)
    for path, name in ITER_SPANS:
        owner, attr = resolve(path)
        tracer.patch(owner, attr, tracer.wrap_iter(getattr(owner, attr), name))
    tracer.patch_path(
        "repro.measure.crawl.Crawler.run_task", "crawl.task",
        name_of=lambda args: f"crawl.task.{args[1].mode}",
    )
    tracer.patch_path(
        "repro.adblock.engine.FilterEngine.should_block", "adblock.match",
        on_result=lambda t, args, blocked: t.count("adblock.blocked", bool(blocked)),
    )
    tracer.patch_path(
        "repro.distributed.wire.encode_message", "distributed.frame",
        on_result=lambda t, args, line: t.count("distributed.frame_bytes", len(line)),
    )
    tracer.patch_path(
        "repro.distributed.wire.decode_message", "distributed.frame",
        on_result=lambda t, args, _: t.count("distributed.frame_bytes", len(args[0])),
    )
    for experiment_id, experiment in list(EXPERIMENTS.items()):
        tracer.patch(
            EXPERIMENTS, experiment_id,
            tracer.wrap(experiment, f"experiments.{experiment_id}"),
        )

    run_bundles = DistributedExecutor.run_bundles

    def timed_run_bundles(executor, bundles, on_shard, shared):
        # Worker spawn and world rebuild happen before the first shard
        # lands; the time to it is the fleet's start-up cost.
        started = tracer.clock()

        def first_result(payload):
            if "distributed.first_result_s" not in tracer.counters:
                tracer.count("distributed.first_result_s", tracer.clock() - started)
            return on_shard(payload)

        return run_bundles(executor, bundles, first_result, shared)

    tracer.patch(DistributedExecutor, "run_bundles", timed_run_bundles)


def engine_events(events) -> Dict[str, float]:
    """Shard, retry and degraded figures from the engine's event log.

    Skew is the max ÷ mean shard time of the plan with the most tasks,
    so small side plans (verify's measurements) do not mask it.
    """
    plans: List[List[float]] = []
    plan_tasks: List[int] = []
    busy_by_pid: Dict[int, float] = {}
    retries = degraded = 0
    for event in events:
        if event.kind == "plan":
            plans.append([])
            plan_tasks.append(int(event.detail["tasks"]))
        elif event.kind == "shard" and plans:
            elapsed = float(event.detail["elapsed"])
            plans[-1].append(elapsed)
            pid = event.detail.get("pid")
            if pid is not None:
                busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + elapsed
        elif event.kind == "task-retry":
            retries += 1
        elif event.kind == "task-degraded":
            degraded += 1
    skew = 0.0
    if plans:
        largest = max(range(len(plans)), key=lambda i: plan_tasks[i])
        shards = plans[largest]
        if shards and sum(shards) > 0:
            skew = max(shards) / (sum(shards) / len(shards))
    return {
        "tasks": sum(plan_tasks),
        "shard_busy_s": sum(sum(p) for p in plans),
        "shard_skew": skew,
        "retries": retries,
        "degraded": degraded,
        "workers": len(busy_by_pid),
        "worker_busy_s": sum(busy_by_pid.values()),
        "busiest_worker_s": max(busy_by_pid.values(), default=0.0),
    }


def per_layer_metrics(
    times: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    engine: Dict[str, float],
    cache: Tuple[int, int],
    spool_bytes: int,
    worker_rss_mb: float,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced iteration.

    Inclusive times (a span with its children): ``webgen.build_s``,
    ``crawl.task_s.*``, ``engine.execute_s``, ``experiments.*_s``.
    ``engine.overhead_s`` is ``engine.execute`` minus in-process task
    time and minus the busiest worker's busy time; ``soup.clone_s`` is
    the self time of ``DocumentCache.parse`` (the ``parse_document``
    inside it is its child).
    """

    def own(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    def inclusive(name: str) -> float:
        return times.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(times.get(name, {}).get("calls", 0))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    task_s = {mode: inclusive(f"crawl.task.{mode}") for mode in TASK_MODES}
    all_tasks_s = sum(
        inclusive(name) for name in times if name.startswith("crawl.task.")
    )
    execute_s = inclusive("engine.execute")
    hits, misses = cache
    fold_s = own("analysis.fold")
    metrics: Dict[str, Tuple[float, str]] = {
        "webgen.build_s": (inclusive("webgen.build"), "s"),
        "netsim.fetch_calls": (calls("netsim.fetch"), "count"),
        "netsim.fetch_s": (own("netsim.fetch"), "s"),
        "soup.parse_calls": (calls("soup.parse_document"), "count"),
        "soup.parse_s": (own("soup.parse_document"), "s"),
        "soup.clone_s": (own("soup.cache_parse"), "s"),
        "soup.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "dom.query_calls": (calls("dom.query"), "count"),
        "dom.query_s": (own("dom.query"), "s"),
        "browser.visits": (calls("browser.visit"), "count"),
        "browser.visit_s": (own("browser.visit"), "s"),
        "browser.subresources": (calls("browser.subresource"), "count"),
        "browser.subresource_s": (own("browser.subresource"), "s"),
        "httpkit.set_cookie_calls": (calls("httpkit.set_cookie"), "count"),
        "httpkit.set_cookie_s": (own("httpkit.set_cookie"), "s"),
        "httpkit.cookies_for_calls": (calls("httpkit.cookies_for"), "count"),
        "httpkit.cookies_for_s": (own("httpkit.cookies_for"), "s"),
        "adblock.match_calls": (calls("adblock.match"), "count"),
        "adblock.match_s": (own("adblock.match"), "s"),
        "adblock.blocked_ratio": (
            ratio(counters.get("adblock.blocked", 0), calls("adblock.match")),
            "ratio",
        ),
        "bannerclick.detect_calls": (calls("bannerclick.detect"), "count"),
        "bannerclick.detect_s": (own("bannerclick.detect"), "s"),
        "bannerclick.interact_s": (own("bannerclick.interact"), "s"),
        "lang.detect_s": (own("lang.detect"), "s"),
    }
    for mode in TASK_MODES:
        metrics[f"crawl.task_s.{mode}"] = (task_s[mode], "s")
    metrics.update({
        "engine.execute_s": (execute_s, "s"),
        "engine.overhead_s": (
            max(execute_s - all_tasks_s - engine["busiest_worker_s"], 0.0)
            if execute_s else 0.0,
            "s",
        ),
        "engine.shard_busy_s": (engine["shard_busy_s"], "s"),
        "engine.shard_skew": (engine["shard_skew"], "ratio"),
        "engine.retries": (engine["retries"], "count"),
        "engine.degraded": (engine["degraded"], "count"),
        "storage.encode_calls": (calls("storage.encode"), "count"),
        "storage.encode_s": (own("storage.encode"), "s"),
        "storage.merge_s": (own("storage.merge"), "s"),
        "storage.read_s": (own("storage.read"), "s"),
        "storage.spool_bytes": (spool_bytes, "B"),
        "distributed.frames": (calls("distributed.frame"), "count"),
        "distributed.frame_bytes": (counters.get("distributed.frame_bytes", 0), "B"),
        "distributed.frame_s": (own("distributed.frame"), "s"),
        "distributed.first_result_s": (
            counters.get("distributed.first_result_s", 0.0), "s"
        ),
        "distributed.worker_busy_s": (engine["worker_busy_s"], "s"),
        "distributed.worker_idle_frac": (
            1.0 - ratio(engine["worker_busy_s"], engine["workers"] * execute_s)
            if engine["workers"] else 0.0,
            "ratio",
        ),
        "distributed.worker_peak_rss_mb": (worker_rss_mb, "MB"),
        "analysis.fold_s": (fold_s, "s"),
        "analysis.fold_records_per_s": (ratio(calls("analysis.fold"), fold_s), "1/s"),
    })
    for experiment_id in sorted(EXPERIMENTS):
        metrics[f"experiments.{experiment_id}_s"] = (
            inclusive(f"experiments.{experiment_id}"), "s"
        )
    metrics["papercheck.compare_s"] = (inclusive("papercheck.compare"), "s")
    metrics["api.session_overhead_s"] = (own("api.session_execute"), "s")
    return metrics
