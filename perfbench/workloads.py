"""The workloads: set-up, the timed phase, and the output check.

Each drives the system only through its public entry points
(``build_world``, ``Session``, ``ExperimentContext``/``run_experiment``).
Functions are looked up through their modules at call time
(``world_mod.build_world``) so the tracer's wrappers see them.
README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import platform
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

import repro.webgen.world as world_mod
from repro.analysis import papercheck
from repro.analysis.streaming import StreamingCrawlAnalysis
from repro.api import EngineSpec, MultiVantageSpec, OutputSpec, Session
from repro.experiments import ExperimentContext
from repro.experiments import runner
from repro.measure import storage
from repro.measure.instrumentation import EventLog
from repro.soup.cache import DocumentCache

#: Workers for the distributed campaign: one per CPU, as a closed-loop
#: batch job would use, capped to keep memory modest on big hosts.
NPROC = min(len(os.sched_getaffinity(0)), 4)


def sha256_files(paths: List[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def fold_observations(fold: StreamingCrawlAnalysis) -> int:
    """Paper observations that hold for the experiments a detection fold
    provides.  The namespace stands in for an ``ExperimentContext``: these
    experiment functions only call the artefact methods it has."""
    context = SimpleNamespace(
        table1=fold.table1, landscape=fold.landscape,
        figure1=fold.figure1, figure2=fold.figure2, figure3=fold.figure3,
    )
    experiment_ids = ("landscape", "table1", "fig1", "fig2", "fig3")
    results = [runner.EXPERIMENTS[e](context) for e in experiment_ids]
    return papercheck.compare_with_paper(results).holding


class Workload:
    """One workload: ``setup`` is timed as ``setup_s``, ``run`` as ``wall_s``."""

    name = ""
    scale = 0.0
    vps = 1

    def build(self, seed: int) -> SimpleNamespace:
        world = world_mod.build_world(scale=self.scale, seed=seed)
        return SimpleNamespace(world=world, log=EventLog())

    def setup(self, seed: int) -> SimpleNamespace:
        raise NotImplementedError

    def run(self, state, out: Path) -> Dict:
        raise NotImplementedError

    def check(self, state, products: Dict) -> Dict:
        """``records`` (output records), ``digest``, ``observations``."""
        raise NotImplementedError

    def regime(self, state, plan_tasks: int) -> Dict:
        return {
            "scale": self.scale,
            "targets": len(state.world.crawl_targets),
            "document_cache_capacity": inspect.signature(
                DocumentCache
            ).parameters["max_entries"].default,
            "vps": self.vps,
            "plan_tasks": plan_tasks,
            "nproc": NPROC,
            "python": platform.python_version(),
        }


class Verify(Workload):
    """``repro verify``: every experiment, then the paper comparison."""

    name = "verify"
    scale = 0.03
    vps = 8

    def setup(self, seed):
        state = self.build(seed)
        state.context = ExperimentContext(state.world, event_log=state.log)
        return state

    def run(self, state, out):
        results = [
            runner.run_experiment(e, context=state.context)
            for e in sorted(runner.EXPERIMENTS)
        ]
        return {
            "results": results,
            "comparison": papercheck.compare_with_paper(results),
        }

    def check(self, state, products):
        data = {r.experiment_id: r.data for r in products["results"]}
        text = json.dumps(data, sort_keys=True, default=str)
        return {
            "records": None,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "observations": products["comparison"].holding,
        }


class Campaign(Workload):
    """An 8-VP, one-wave ``eu`` campaign on the distributed backend."""

    name = "campaign"
    scale = 0.03
    vps = 8

    def setup(self, seed):
        state = self.build(seed)
        state.session = Session(
            state.world,
            engine=EngineSpec(executor="distributed", workers=NPROC, merge="spool"),
            event_log=state.log,
        )
        return state

    @staticmethod
    def _campaign(session, out):
        result = session.multivantage(
            MultiVantageSpec(regime="eu", months=(0,)),
            output=OutputSpec(out_dir=str(out)),
        )
        return {"result": result, "paths": [out / "wave-00.jsonl"]}

    def run(self, state, out):
        return self._campaign(state.session, out / "campaign")

    def reference(self, state, out) -> str:
        """The digest a serial-backend run of the same plan writes."""
        serial = Session(state.world, engine=EngineSpec(executor="serial"))
        return sha256_files(self._campaign(serial, out / "serial")["paths"])

    def check(self, state, products):
        fold = StreamingCrawlAnalysis(state.world).consume(
            storage.iter_records(products["paths"][0])
        )
        return {
            "records": products["result"].record_count,
            "digest": sha256_files(products["paths"]),
            "observations": fold_observations(fold),
        }


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Verify(), Campaign())}
