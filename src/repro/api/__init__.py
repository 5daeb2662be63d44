"""repro.api — the unified public entry point.

One campaign, one object: a :class:`RunSpec` describes an entire
crawl, measurement, or longitudinal run (world, engine, workload,
output) as a single validating, serialisable artefact; a
:class:`Session` executes it and hands back a :class:`RunResult`.
The CLI, the experiment drivers, and the longitudinal campaigns are
all thin adapters over this package.

>>> from repro.api import RunSpec, Session, WorldSpec
>>> spec = RunSpec(kind="crawl", world=WorldSpec(scale=0.01, seed=3))
>>> result = Session(spec).run()          # doctest: +SKIP
>>> spec == RunSpec.from_dict(spec.to_dict())
True
"""

from repro.api.result import RESULT_VERSION, RunFailure, RunResult
from repro.api.session import Session, run
from repro.api.spec import (
    EXECUTOR_BACKENDS,
    MEASURE_MODES,
    MERGE_MODES,
    RUN_KINDS,
    SPEC_SCHEMA_VERSION,
    ChaosSpec,
    CrawlSpec,
    EngineSpec,
    LongitudinalSpec,
    MeasureSpec,
    MultiVantageSpec,
    OutputSpec,
    ResilienceSpec,
    RunSpec,
    SpecError,
    SpecVersionError,
    WorldSpec,
    migrate_spec_payload,
    spec_migration,
)

__all__ = [
    "ChaosSpec",
    "CrawlSpec",
    "EngineSpec",
    "EXECUTOR_BACKENDS",
    "LongitudinalSpec",
    "MeasureSpec",
    "MEASURE_MODES",
    "MultiVantageSpec",
    "MERGE_MODES",
    "OutputSpec",
    "RESULT_VERSION",
    "RUN_KINDS",
    "ResilienceSpec",
    "RunFailure",
    "RunResult",
    "RunSpec",
    "SPEC_SCHEMA_VERSION",
    "Session",
    "SpecError",
    "SpecVersionError",
    "WorldSpec",
    "migrate_spec_payload",
    "run",
    "spec_migration",
]
