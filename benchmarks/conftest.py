"""Benchmark fixtures: one full-scale world + one shared crawl.

By default benchmarks run at **paper scale** (45,222 reachable targets,
8 vantage points).  ``REPRO_BENCH_SCALE`` shrinks the world for a quick
pass.  ``0.05`` suits the files CI runs at that scale
(``bench_pipeline``, ``bench_hotpaths``, ``bench_streaming``,
``bench_discrepancy``, ``bench_chaos``, ``bench_distributed``); the
figure benches need ``0.1`` or more: at ``0.05``
``bench_fig1_fig2_fig3.py::test_fig3_category_vs_price`` finds no
category with the five verified walls it requires, and fails.
Expensive products (the detection crawl, the cookie
measurements) are computed once in session fixtures — individual
benchmarks then time the analysis that regenerates each artefact, and
``bench_pipeline`` times the crawl itself.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext
from repro.measure.crawl import Crawler, CrawlResult
from repro.webgen import build_world

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2023"))

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def bench_world():
    return build_world(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_context(bench_world):
    return ExperimentContext(bench_world, crawler=Crawler(bench_world))


@pytest.fixture(scope="session")
def warm_crawl(bench_context):
    """The 8-VP detection crawl, computed once for the whole session."""
    return CrawlResult(records=bench_context.detection_result().records)


@pytest.fixture(scope="session")
def verified_walls_de(bench_context, warm_crawl):
    """DE cookiewall records of the verified walls (Figure 2's input)."""
    verified = set(bench_context.verified_wall_domains())
    return [r for r in warm_crawl.cookiewalls("DE") if r.domain in verified]


def write_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure for EXPERIMENTS.md."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def update_bench_json(name: str, section: str, data: dict, **meta) -> None:
    """Merge *section* into ``output/<name>`` (one JSON file per bench
    module, one section per test) and stamp its ``meta`` with the CPU
    count plus any extra *meta* keys."""
    out = OUTPUT_DIR / name
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload[section] = data
    payload.setdefault("meta", {}).update(cpus=os.cpu_count() or 1, **meta)
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def run_once(benchmark, fn):
    """Run an expensive benchmark exactly once (no warmup rounds)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
