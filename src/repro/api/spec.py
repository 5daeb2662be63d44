"""The declarative run description: one serialisable object per campaign.

The paper's pipeline is one conceptual experiment — crawl vantage
points, detect accept-or-pay walls, measure cookies with and without
consent, compare against uBlock — but until this package the
configuration surface was fractured across ``Crawler`` arguments,
``CrawlEngine`` kwargs, ``ExperimentContext``, ``run_longitudinal``
and ~20 argparse flags.  A :class:`RunSpec` collapses all of that into
a single typed, validating, serialisable tree:

- :class:`WorldSpec` — which synthetic web (seed, scale).
- :class:`EngineSpec` — how to execute (workers, shards, retry,
  checkpointing, resume).
- :class:`CrawlSpec` / :class:`MeasureSpec` /
  :class:`LongitudinalSpec` / :class:`MultiVantageSpec` — what to
  measure (exactly one of them, selected by ``RunSpec.kind``).
- :class:`OutputSpec` — where the records go (JSONL spool path, or a
  wave directory for longitudinal campaigns).

A spec round-trips losslessly: ``RunSpec.from_dict(spec.to_dict()) ==
spec``, and :meth:`RunSpec.load` reads the same structure from a TOML
or JSON config file, so an entire campaign (including its resume
behaviour) is one artefact that can be saved, diffed, and replayed.

>>> spec = RunSpec(kind="crawl", world=WorldSpec(scale=0.01, seed=3))
>>> RunSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, Mapping, MutableMapping, Optional, Tuple, Union

from repro.measure.engine import EXECUTOR_BACKENDS
from repro.resilience.chaos import ChaosSpec as _ChaosPlaneSpec

#: Campaign kinds a :class:`RunSpec` can describe, and the section
#: holding each kind's workload settings.
RUN_KINDS = ("crawl", "measure", "longitudinal", "multivantage")

#: Current version of the RunSpec *wire schema* — the JSON structure
#: :meth:`RunSpec.to_dict` emits and the campaign service accepts.
#: Version 1 is the pre-versioning format (no ``schema_version`` key);
#: version 2 added the explicit key and the ``"distributed"`` executor
#: backend; version 3 dropped the thread backend, version 4 the
#: process pool.  Old versions are upgraded through
#: :data:`_SPEC_MIGRATIONS` so queued/submitted campaigns survive spec
#: evolution.
SPEC_SCHEMA_VERSION = 4

#: Kinds whose records land in a wave directory (``output.out_dir``)
#: rather than a single spool file (``output.path``).
_WAVE_KINDS = ("longitudinal", "multivantage")

#: Cookie/uBlock measurement modes (`MeasureSpec.mode`).
MEASURE_MODES = ("accept", "reject", "ublock")


class SpecError(ValueError):
    """A run spec (or config file) is structurally invalid."""


class SpecVersionError(SpecError):
    """A run spec declares a wire-schema version this build cannot read."""


#: Migration hooks: ``version -> upgrade`` where *upgrade* takes the
#: mutable spec mapping at that version and returns the mapping at
#: ``version + 1``.  :meth:`RunSpec.from_dict` chains these until the
#: data reaches :data:`SPEC_SCHEMA_VERSION`, so a spec serialized by an
#: older build stays submittable forever (each release that changes the
#: wire shape registers exactly one hook here).
_SPEC_MIGRATIONS: Dict[int, Callable[[MutableMapping], MutableMapping]] = {}


def spec_migration(version: int):
    """Register the migration upgrading wire-schema *version* by one."""
    def register(upgrade: Callable[[MutableMapping], MutableMapping]):
        _SPEC_MIGRATIONS[version] = upgrade
        return upgrade
    return register


@spec_migration(1)
def _upgrade_v1(data: MutableMapping) -> MutableMapping:
    """v1 -> v2: the structure is unchanged; the version key is new."""
    return data


@spec_migration(2)
def _upgrade_v2(data: MutableMapping) -> MutableMapping:
    """v2 -> v3: the thread backend is gone; a stored ``"thread"``
    executor runs on worker processes instead (same records)."""
    engine = data.get("engine")
    if isinstance(engine, Mapping) and engine.get("executor") == "thread":
        data["engine"] = dict(engine, executor="process")
    return data


@spec_migration(3)
def _upgrade_v3(data: MutableMapping) -> MutableMapping:
    """v3 -> v4: the process pool is gone; a stored ``"process"``
    executor runs on the wire's local workers instead (same records)."""
    engine = data.get("engine")
    if isinstance(engine, Mapping) and engine.get("executor") == "process":
        data["engine"] = dict(engine, executor="distributed")
    return data


def migrate_spec_payload(data: Mapping) -> Dict[str, object]:
    """Upgrade a raw spec mapping to :data:`SPEC_SCHEMA_VERSION`.

    A missing ``schema_version`` means version 1 (the pre-versioning
    format).  Unknown — usually *newer* — versions are rejected with a
    readable :class:`SpecVersionError` instead of a downstream
    field-validation surprise, so a service running an older build
    refuses a newer client's spec in one comprehensible sentence.
    """
    out = dict(data)
    version = out.pop("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool):
        raise SpecVersionError(
            f"schema_version must be an integer, got {version!r}"
        )
    while version < SPEC_SCHEMA_VERSION:
        upgrade = _SPEC_MIGRATIONS.get(version)
        if upgrade is None:
            raise SpecVersionError(
                f"no migration from spec schema_version {version} "
                f"(supported: {sorted(_SPEC_MIGRATIONS)} -> "
                f"{SPEC_SCHEMA_VERSION})"
            )
        out = dict(upgrade(out))
        out.pop("schema_version", None)
        version += 1
    if version > SPEC_SCHEMA_VERSION:
        raise SpecVersionError(
            f"spec declares schema_version {version}, but this build "
            f"reads up to {SPEC_SCHEMA_VERSION} — it was produced by a "
            "newer release; upgrade this installation to run it"
        )
    return out


def _tuple_or_none(value) -> Optional[tuple]:
    """Normalise a checked config sequence to a tuple (``None`` passes
    through)."""
    return None if value is None else tuple(value)


#: Scalar field annotation -> the value types a config may give it.
_SCALARS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


@functools.lru_cache(maxsize=None)
def _typed_fields(cls) -> Dict[str, Tuple[type, bool, bool]]:
    """``{field: (scalar type, optional, sequence)}`` for the fields of
    *cls* annotated ``int``/``float``/``bool``/``str``, a
    ``Tuple[<scalar>, ...]`` of one, or the ``Optional`` of either."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = typing.get_origin(hint) is Union and type(None) in args
        if optional and len(args) == 2:
            hint = next(arg for arg in args if arg is not type(None))
        args = typing.get_args(hint)
        sequence = typing.get_origin(hint) is tuple and args[1:] == (...,)
        if sequence:
            hint = args[0]
        if hint in _SCALARS:
            out[f.name] = (hint, optional, sequence)
    return out


def _is_scalar(value, kind: type) -> bool:
    """Whether *value* may fill a *kind* field (a ``bool`` is no ``int``)."""
    return isinstance(value, _SCALARS[kind]) and (
        kind is bool or not isinstance(value, bool)
    )


def _check_fields(cls, data: Mapping, where: str) -> None:
    """Refuse unknown keys, scalar values of the wrong type, and
    sequence values that are not a list of the right scalars, naming
    the offending ``section.field``.  A null sequence is the field's
    default (``None`` where optional)."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"{where}: unknown key(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    for name, (kind, optional, sequence) in _typed_fields(cls).items():
        value = data.get(name)
        if value is None and (name not in data or optional or sequence):
            continue
        listed = f"{where}.{name}: expected a list of {kind.__name__}"
        if not sequence:
            if not _is_scalar(value, kind):
                raise SpecError(
                    f"{where}.{name}: expected {kind.__name__}"
                    f"{' or null' if optional else ''}, got {value!r}"
                )
        elif isinstance(value, str):
            raise SpecError(
                f"{listed}, got the string {value!r} "
                "(write it as a one-element list)"
            )
        elif not isinstance(value, (list, tuple)):
            raise SpecError(f"{listed} or null, got {value!r}")
        else:
            for item in value:
                if not _is_scalar(item, kind):
                    raise SpecError(f"{listed}, got the item {item!r}")


@dataclass(frozen=True)
class WorldSpec:
    """Which synthetic web to build (`repro.webgen.build_world`)."""

    #: Fraction of the paper's 45k-site web; ``1.0`` is paper scale.
    scale: float = 0.05
    seed: int = 2023

    def validate(self) -> None:
        if not 0 < self.scale <= 1.0:
            raise SpecError(f"world.scale must be in (0, 1], got {self.scale}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorldSpec":
        _check_fields(cls, data, "world")
        return cls(**data)


#: Values of ``EngineSpec.merge``: ``"spool"`` asserts the run streams.
MERGE_MODES = ("memory", "spool")


@dataclass(frozen=True)
class EngineSpec:
    """How the crawl engine executes the plan."""

    workers: int = 1
    #: ``None`` keeps the engine default (1 serial, 4 × workers parallel).
    shards: Optional[int] = None
    #: Executor backend, one of ``EXECUTOR_BACKENDS`` (serial or
    #: distributed); ``None`` picks serial when ``workers == 1`` and
    #: distributed otherwise.  ``distributed`` ships the run's JSON
    #: worker state and shard bundles over a socket work queue
    #: (:mod:`repro.distributed`) to worker processes, which rebuild the
    #: campaign from it (stock crawler and detectors over a built
    #: world, a JSON plan context — see the engine docs).
    executor: Optional[str] = None
    #: Not a choice: the engine spool-joins whenever the run has an
    #: output path and merges in memory otherwise.  ``"spool"`` only
    #: asserts that this run must stream, so it is refused without an
    #: output path; ``"memory"`` asserts nothing.
    merge: str = "memory"
    retry_max_attempts: int = 2
    retry_unreachable: bool = False
    #: Checkpoint every run that has a spool path (``<out>.checkpoint``).
    checkpoint: bool = True
    resume: bool = False

    def validate(self) -> None:
        if self.workers < 1:
            raise SpecError(f"engine.workers must be >= 1, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise SpecError(f"engine.shards must be >= 1, got {self.shards}")
        if self.executor is not None and self.executor not in EXECUTOR_BACKENDS:
            raise SpecError(
                "engine.executor must be one of "
                f"{', '.join(EXECUTOR_BACKENDS)}, got {self.executor!r}"
            )
        if self.executor == "serial" and self.workers > 1:
            raise SpecError(
                "engine.executor='serial' contradicts engine.workers > 1 "
                "(pick 'distributed' to parallelise)"
            )
        if self.merge not in MERGE_MODES:
            raise SpecError(
                f"engine.merge must be one of {', '.join(MERGE_MODES)}, "
                f"got {self.merge!r}"
            )
        if self.retry_max_attempts < 1:
            raise SpecError(
                "engine.retry_max_attempts must be >= 1, "
                f"got {self.retry_max_attempts}"
            )
        if self.resume and not self.checkpoint:
            raise SpecError("engine.resume requires engine.checkpoint")

    def in_memory(self) -> "EngineSpec":
        """These settings for a run that writes no file: no resume and
        no streaming assertion."""
        return dataclasses.replace(self, resume=False, merge="memory")

    @classmethod
    def from_dict(cls, data: Mapping) -> "EngineSpec":
        _check_fields(cls, data, "engine")
        return cls(**data)


@dataclass(frozen=True)
class ResilienceSpec:
    """Backoff, deadlines and circuit breakers for the retry layer.

    All durations are **virtual seconds**: the engine pays them on the
    world's virtual clock, so no configuration here can ever make a
    run sleep for real — only degrade deterministically sooner.
    """

    #: Exponential-backoff schedule between retry attempts.
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: Deterministic jitter fraction in [0, 1] (derived from the task
    #: identity, never a live RNG).
    jitter: float = 0.1
    #: Per-attempt virtual-time budget (None = unlimited).
    attempt_deadline: Optional[float] = None
    #: Whole-task virtual-time budget across attempts + backoff.
    task_deadline: Optional[float] = None
    #: Open a domain's circuit after N consecutive task failures
    #: (None disables breakers).
    breaker_threshold: Optional[int] = None
    #: Tasks an open breaker skips before its half-open probe.
    breaker_quarantine: int = 4

    def validate(self) -> None:
        if self.backoff_base < 0:
            raise SpecError(
                f"resilience.backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise SpecError(
                "resilience.backoff_factor must be >= 1, "
                f"got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise SpecError(
                f"resilience.backoff_max must be >= 0, got {self.backoff_max}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise SpecError(
                f"resilience.jitter must be in [0, 1], got {self.jitter}"
            )
        for name in ("attempt_deadline", "task_deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SpecError(
                    f"resilience.{name} must be > 0, got {value}"
                )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise SpecError(
                "resilience.breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_quarantine < 1:
            raise SpecError(
                "resilience.breaker_quarantine must be >= 1, "
                f"got {self.breaker_quarantine}"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResilienceSpec":
        _check_fields(cls, data, "resilience")
        return cls(**data)


@dataclass(frozen=True)
class ChaosSpec(_ChaosPlaneSpec):
    """The seeded fault-injection plane (`repro.resilience.chaos`).

    The spec section *is* the engine's :class:`ChaosSpec` — same
    fields, same semantics — so what a config file declares is exactly
    what rides in ``CrawlPlan.context`` and reaches every worker.
    """

    def validate(self) -> None:
        try:
            super().validate()
        except ValueError as error:
            raise SpecError(f"chaos: {error}") from None

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChaosSpec":
        _check_fields(cls, data, "chaos")
        out = dict(data)
        out["domains"] = _tuple_or_none(data.get("domains"))
        return cls(**out)


@dataclass(frozen=True)
class CrawlSpec:
    """A multi-vantage-point detection crawl."""

    #: Vantage point codes; ``None`` crawls all eight.
    vps: Optional[Tuple[str, ...]] = None
    #: Target domains; ``None`` crawls the world's reachable union.
    domains: Optional[Tuple[str, ...]] = None

    def validate(self) -> None:
        if self.vps is not None and not self.vps:
            raise SpecError("crawl.vps must name at least one vantage point")

    @classmethod
    def from_dict(cls, data: Mapping) -> "CrawlSpec":
        _check_fields(cls, data, "crawl")
        return cls(
            vps=_tuple_or_none(data.get("vps")),
            domains=_tuple_or_none(data.get("domains")),
        )


@dataclass(frozen=True)
class MeasureSpec:
    """Repeated cookie or uBlock measurements on wall domains."""

    vp: str = "DE"
    mode: str = "accept"
    repeats: int = 5
    #: ``None`` measures the wall domains a fresh detection crawl finds.
    domains: Optional[Tuple[str, ...]] = None

    def validate(self) -> None:
        if self.mode not in MEASURE_MODES:
            raise SpecError(
                f"measure.mode must be one of {', '.join(MEASURE_MODES)}, "
                f"got {self.mode!r}"
            )
        if self.repeats < 1:
            raise SpecError(f"measure.repeats must be >= 1, got {self.repeats}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "MeasureSpec":
        _check_fields(cls, data, "measure")
        out = dict(data)
        out["domains"] = _tuple_or_none(data.get("domains"))
        return cls(**out)


@dataclass(frozen=True)
class LongitudinalSpec:
    """Re-crawls of the same targets against evolved world snapshots."""

    vp: str = "DE"
    #: Wave offsets in months; 0 is the baseline snapshot.
    months: Tuple[int, ...] = (0, 4)
    domains: Optional[Tuple[str, ...]] = None

    def validate(self) -> None:
        months = list(self.months)
        if not months:
            raise SpecError("longitudinal.months must name at least one wave")
        if sorted(months) != months or len(set(months)) != len(months):
            raise SpecError("months must be strictly increasing")
        if months[0] < 0:
            raise SpecError("months must be >= 0")

    @classmethod
    def from_dict(cls, data: Mapping) -> "LongitudinalSpec":
        _check_fields(cls, data, "longitudinal")
        out = dict(data)
        if out.get("months") is None:
            out.pop("months", None)    # explicit null keeps the default
        else:
            out["months"] = _tuple_or_none(out["months"])
        out["domains"] = _tuple_or_none(data.get("domains"))
        return cls(**out)


@dataclass(frozen=True)
class MultiVantageSpec:
    """One campaign, N vantage points: the VP × domain × wave
    cross-product, compared by the streaming discrepancy report.

    Waves reuse the longitudinal machinery (month offsets against
    evolved world snapshots); the scenario knobs select a regulation
    regime (:data:`repro.vantage.REGULATION_REGIMES`) and optional
    VPN-like relocations / geo-blocking on top of it.
    """

    #: Vantage point codes; ``None`` crawls all eight.
    vps: Optional[Tuple[str, ...]] = None
    #: Wave offsets in months; 0 is the baseline snapshot.
    months: Tuple[int, ...] = (0,)
    #: Target domains; ``None`` crawls the world's reachable union.
    domains: Optional[Tuple[str, ...]] = None
    #: Named regulation regime (baseline / eu / non-eu / geo-blocked).
    regime: str = "baseline"
    #: Extra VPN-like relocations: logical VP code -> exit VP code.
    relocate: Optional[Mapping[str, str]] = None
    #: First wave (month offset) the relocations apply from.
    relocate_month: int = 0

    def validate(self) -> None:
        from repro.vantage import REGULATION_REGIMES, get_vantage_point

        if self.vps is not None and not self.vps:
            raise SpecError(
                "multivantage.vps must name at least one vantage point"
            )
        months = list(self.months)
        if not months:
            raise SpecError("multivantage.months must name at least one wave")
        if sorted(months) != months or len(set(months)) != len(months):
            raise SpecError("months must be strictly increasing")
        if months[0] < 0:
            raise SpecError("months must be >= 0")
        if str(self.regime).lower() not in REGULATION_REGIMES:
            raise SpecError(
                "multivantage.regime must be one of "
                f"{', '.join(REGULATION_REGIMES)}, got {self.regime!r}"
            )
        if self.relocate_month < 0:
            raise SpecError(
                "multivantage.relocate_month must be >= 0, "
                f"got {self.relocate_month}"
            )
        try:
            for code in self.vps or ():
                get_vantage_point(code)
            self.scenario()
        except KeyError as error:
            raise SpecError(f"multivantage: {error.args[0]}") from None

    def scenario(self):
        """The composed :class:`~repro.vantage.RegulationScenario`."""
        from repro.vantage import build_scenario

        return build_scenario(
            self.regime,
            relocations=self.relocate,
            relocate_from_month=self.relocate_month,
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "MultiVantageSpec":
        _check_fields(cls, data, "multivantage")
        out = dict(data)
        out["vps"] = _tuple_or_none(data.get("vps"))
        if out.get("months") is None:
            out.pop("months", None)    # explicit null keeps the default
        else:
            out["months"] = _tuple_or_none(out["months"])
        out["domains"] = _tuple_or_none(data.get("domains"))
        relocate = data.get("relocate")
        if relocate is not None:
            if not isinstance(relocate, Mapping) or not all(
                isinstance(code, str) for pair in relocate.items()
                for code in pair
            ):
                raise SpecError(
                    "multivantage.relocate must be a table/mapping of "
                    f"VP code -> exit VP code, got {relocate!r}"
                )
            out["relocate"] = dict(relocate)
        return cls(**out)


@dataclass(frozen=True)
class OutputSpec:
    """Where records go (all optional: no path means in-memory only)."""

    #: JSONL spool for ``crawl``/``measure`` records.
    path: Optional[str] = None
    #: Wave directory for ``longitudinal``/``multivantage``
    #: (``wave-<MM>.jsonl`` files).
    out_dir: Optional[str] = None

    def validate(self) -> None:
        pass

    @classmethod
    def from_dict(cls, data: Mapping) -> "OutputSpec":
        _check_fields(cls, data, "output")
        return cls(**data)


#: ``RunSpec`` section name -> section class, in serialisation order.
_SECTIONS = {
    "world": WorldSpec,
    "engine": EngineSpec,
    "resilience": ResilienceSpec,
    "chaos": ChaosSpec,
    "crawl": CrawlSpec,
    "measure": MeasureSpec,
    "longitudinal": LongitudinalSpec,
    "multivantage": MultiVantageSpec,
    "output": OutputSpec,
}


@dataclass(frozen=True)
class RunSpec:
    """One complete, replayable campaign description.

    Exactly one workload section is *active*, selected by ``kind``;
    the other workload sections may be present (e.g. a config file
    describing several campaigns' settings) but are ignored and — for
    canonical equality — dropped from :meth:`to_dict`.
    """

    kind: str
    world: WorldSpec = field(default_factory=WorldSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    crawl: CrawlSpec = field(default_factory=CrawlSpec)
    measure: MeasureSpec = field(default_factory=MeasureSpec)
    longitudinal: LongitudinalSpec = field(default_factory=LongitudinalSpec)
    multivantage: MultiVantageSpec = field(default_factory=MultiVantageSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    # ------------------------------------------------------------------
    def validate(self) -> "RunSpec":
        """Check the whole tree; returns self so calls can chain."""
        if self.kind not in RUN_KINDS:
            raise SpecError(
                f"kind must be one of {', '.join(RUN_KINDS)}, got {self.kind!r}"
            )
        self.world.validate()
        self.engine.validate()
        self.resilience.validate()
        self.chaos.validate()
        self.workload.validate()
        self.output.validate()
        if self.engine.resume:
            # The messages name the CLI flags: the output section's
            # fields map 1:1 onto them, and the CLI surfaces these
            # errors verbatim.
            if self.kind in _WAVE_KINDS and self.output.out_dir is None:
                raise SpecError(
                    f"{self.kind} --resume requires --out-dir "
                    "(output.out_dir: the checkpoints live next to the "
                    "wave spools)"
                )
            if self.kind not in _WAVE_KINDS and self.output.path is None:
                raise SpecError(
                    "--resume requires an output path (--out / "
                    "output.path: the checkpoint lives next to the spool)"
                )
        if self.engine.merge == "spool":
            # The streaming merge joins the run's journal into a final
            # file — without one there is nothing to stream to.
            if self.kind in _WAVE_KINDS and self.output.out_dir is None:
                raise SpecError(
                    f"{self.kind} --merge spool requires --out-dir "
                    "(output.out_dir: each wave's journal is joined into "
                    "its wave file)"
                )
            if self.kind not in _WAVE_KINDS and self.output.path is None:
                raise SpecError(
                    "--merge spool requires an output path (--out / "
                    "output.path: the run's journal is joined into it)"
                )
        return self

    @property
    def workload(self):
        """The active workload section (selected by ``kind``)."""
        return getattr(self, self.kind)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The canonical nested-dict form (inactive workloads omitted).

        The emitted mapping is the versioned *wire schema*: it always
        carries ``schema_version`` so a spec queued today is readable
        (via the registered migrations) by whatever build dequeues it.
        """
        out: Dict[str, object] = {
            "schema_version": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
        }
        for name in ("world", "engine", "resilience", "chaos",
                     self.kind, "output"):
            out[name] = dataclasses.asdict(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: Mapping, *, kind: Optional[str] = None) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a config file).

        *kind* supplies the campaign kind when the mapping omits it
        (a config file meant to be used as ``repro <kind> --config``);
        when both are present they must agree.
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"run spec must be a mapping, got {type(data).__name__}")
        data = migrate_spec_payload(data)
        file_kind = data.get("kind")
        if file_kind is not None and kind is not None and file_kind != kind:
            raise SpecError(
                f"config file describes a {file_kind!r} run, "
                f"but a {kind!r} run was requested"
            )
        resolved_kind = file_kind or kind
        if resolved_kind is None:
            raise SpecError(f"run spec needs a 'kind' ({'/'.join(RUN_KINDS)})")
        unknown = sorted(set(data) - set(_SECTIONS) - {"kind"})
        if unknown:
            raise SpecError(
                f"unknown section(s) {', '.join(unknown)} "
                f"(known: kind, {', '.join(_SECTIONS)})"
            )
        sections = {}
        for name, section_cls in _SECTIONS.items():
            payload = data.get(name)
            if payload is None:
                sections[name] = section_cls()
            else:
                if not isinstance(payload, Mapping):
                    raise SpecError(f"section {name!r} must be a table/mapping")
                sections[name] = section_cls.from_dict(payload)
        return cls(kind=resolved_kind, **sections).validate()

    def override(self, overrides: Mapping[str, Mapping]) -> "RunSpec":
        """A copy with *overrides* (nested section -> field maps) applied.

        This is the CLI precedence rule: values from a config file are
        the base, explicitly supplied flags win.  Only fields present
        in *overrides* change.
        """
        _check = set(overrides) - set(_SECTIONS)
        if _check:
            raise SpecError(f"override names unknown section(s) {sorted(_check)}")
        replaced = {}
        for name, values in overrides.items():
            if not values:
                continue
            section = getattr(self, name)
            _check_fields(type(section), values, name)
            replaced[name] = dataclasses.replace(section, **values)
        return dataclasses.replace(self, **replaced).validate()

    # ------------------------------------------------------------------
    # Config files
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, Path], *, kind: Optional[str] = None) -> "RunSpec":
        """Load a spec from a ``.toml`` or ``.json`` config file.

        The file holds the :meth:`to_dict` structure; ``kind`` may be
        omitted in the file and supplied by the caller (the CLI passes
        the subcommand).  TOML cannot express ``null`` — simply omit a
        key to keep its default.
        """
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise SpecError(f"cannot read config {path}: {error}") from error
        if path.suffix.lower() == ".json":
            try:
                data = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise SpecError(f"{path}: invalid JSON ({error})") from error
        elif path.suffix.lower() == ".toml":
            import tomllib

            try:
                data = tomllib.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, tomllib.TOMLDecodeError) as error:
                raise SpecError(f"{path}: invalid TOML ({error})") from error
        else:
            raise SpecError(
                f"{path}: unsupported config suffix {path.suffix!r} "
                "(use .toml or .json)"
            )
        try:
            return cls.from_dict(data, kind=kind)
        except SpecError as error:
            raise SpecError(f"{path}: {error}") from error

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as JSON (the ``load``-able canonical form)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path
