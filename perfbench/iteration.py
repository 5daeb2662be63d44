"""One iteration of a workload in a fresh process; prints one JSON line.

    python3 perfbench/iteration.py WORKLOAD SEED MODE TRACE OUT_DIR

MODE is ``run`` (set up, run the timed phase, check the output),
``setup`` (set up only) or ``reference`` (campaign: the digest of a
serial-backend run).  TRACE 1 installs the layer wrappers and adds
``layers`` to the result.  ``run.py`` starts this script; run it by
hand only to debug a workload.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from repro.soup.cache import shared_document_cache  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def iterate(workload: Workload, seed: int, out: Path, tracer=None) -> dict:
    """Set up, run and check *workload* once; the sample ``run.py`` reads."""
    if tracer is not None:
        layers.install(tracer)
    try:
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_s = time.perf_counter() - started
        hits, misses = shared_document_cache.hits, shared_document_cache.misses
        started = time.perf_counter()
        products = workload.run(state, out)
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    cache = (
        shared_document_cache.hits - hits, shared_document_cache.misses - misses
    )
    engine = layers.engine_events(state.log.events)
    check = workload.check(state, products)
    sample = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "tasks": engine["tasks"],
        "degraded": engine["degraded"],
        "records": check["records"],
        "digest": check["digest"],
        "observations": check["observations"],
        "peak_rss_mb": rss_mb(resource.RUSAGE_SELF),
        "regime": workload.regime(state, engine["tasks"]),
    }
    if tracer is not None:
        spool_bytes = sum(p.stat().st_size for p in products.get("paths", ()))
        metrics = layers.per_layer_metrics(
            tracer.layer_times(), tracer.counters, engine, cache,
            spool_bytes, rss_mb(resource.RUSAGE_CHILDREN),
        )
        sample["layers"] = {name: value for name, (value, _) in metrics.items()}
    return sample


def main(argv) -> int:
    name, seed, mode, trace, out = argv
    workload = WORKLOADS[name]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if mode == "setup":
        started = time.perf_counter()
        workload.setup(int(seed))
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    if mode == "reference":
        state = workload.setup(int(seed))
        print(json.dumps({"digest": workload.reference(state, out)}))
        return 0
    tracer = Tracer() if trace == "1" else None
    sample = iterate(workload, int(seed), out, tracer)
    if tracer is not None:
        # Spans stay in memory during the run and are written once here.
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{name}.spans")
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
