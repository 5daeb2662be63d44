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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, MutableMapping, Optional, Tuple, Union

from repro import schema
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


@functools.lru_cache(maxsize=None)
def _checker(cls):
    """Section *cls*'s checker: its annotations and declared rules."""
    return schema.compile(schema.fields_shape(cls), SpecError, _SECTION_NAMES[cls])


class _Section:
    """A RunSpec section, checked by one shape whether read
    (:meth:`from_dict`), built (:meth:`validate`) or overridden
    (:meth:`RunSpec.override`); cross-field rules extend :meth:`validate`."""

    def validate(self) -> None:
        _checker(type(self))(vars(self))

    @classmethod
    def from_dict(cls, data: Mapping):
        if isinstance(data, Mapping):  # a null sequence keeps the field's default
            data = {name: value for name, value in data.items()
                    if value is not None or not isinstance(getattr(cls, name, None), tuple)}
        data = _checker(cls)(data)
        return cls(**{
            name: tuple(value) if isinstance(value, list)
            else dict(value) if isinstance(value, dict) else value
            for name, value in data.items()
        })


@dataclass(frozen=True)
class WorldSpec(_Section):
    """Which synthetic web to build (`repro.webgen.build_world`)."""

    #: Fraction of the paper's 45k-site web; ``1.0`` is paper scale.
    scale: float = schema.field(0.05, above=0, max=1)
    seed: int = 2023


#: Values of ``EngineSpec.merge``: ``"spool"`` asserts the run streams.
MERGE_MODES = ("memory", "spool")


@dataclass(frozen=True)
class EngineSpec(_Section):
    """How the crawl engine executes the plan."""

    workers: int = schema.field(1, min=1)
    #: ``None`` keeps the engine default (1 serial, 4 × workers parallel).
    shards: Optional[int] = schema.field(None, min=1)
    #: Executor backend, one of ``EXECUTOR_BACKENDS`` (serial or
    #: distributed); ``None`` picks serial when ``workers == 1`` and
    #: distributed otherwise.  ``distributed`` ships the run's JSON
    #: worker state and shard bundles over a socket work queue
    #: (:mod:`repro.distributed`) to worker processes, which rebuild the
    #: campaign from it (stock crawler and detectors over a built
    #: world, a JSON plan context — see the engine docs).
    executor: Optional[str] = schema.field(None, one_of=EXECUTOR_BACKENDS)
    #: Not a choice: the engine spool-joins whenever the run has an
    #: output path and merges in memory otherwise.  ``"spool"`` only
    #: asserts that this run must stream, so it is refused without an
    #: output path; ``"memory"`` asserts nothing.
    merge: str = schema.field("memory", one_of=MERGE_MODES)
    retry_max_attempts: int = schema.field(2, min=1)
    retry_unreachable: bool = False
    #: Checkpoint every run that has a spool path (``<out>.checkpoint``).
    checkpoint: bool = True
    resume: bool = False

    def validate(self) -> None:
        super().validate()
        if self.executor == "serial" and self.workers > 1:
            raise SpecError(
                "engine.executor='serial' contradicts engine.workers > 1 "
                "(pick 'distributed' to parallelise)"
            )
        if self.resume and not self.checkpoint:
            raise SpecError("engine.resume requires engine.checkpoint")

    def in_memory(self) -> "EngineSpec":
        """These settings for a run that writes no file: no resume and
        no streaming assertion."""
        return dataclasses.replace(self, resume=False, merge="memory")


@dataclass(frozen=True)
class ResilienceSpec(_Section):
    """Backoff, deadlines and circuit breakers for the retry layer.

    All durations are **virtual seconds**: the engine pays them on the
    world's virtual clock, so no configuration here can ever make a
    run sleep for real — only degrade deterministically sooner.
    """

    #: Exponential-backoff schedule between retry attempts.
    backoff_base: float = schema.field(0.5, min=0)
    backoff_factor: float = schema.field(2.0, min=1)
    backoff_max: float = schema.field(30.0, min=0)
    #: Deterministic jitter fraction in [0, 1] (derived from the task
    #: identity, never a live RNG).
    jitter: float = schema.field(0.1, min=0, max=1)
    #: Per-attempt virtual-time budget (None = unlimited).
    attempt_deadline: Optional[float] = schema.field(None, above=0)
    #: Whole-task virtual-time budget across attempts + backoff.
    task_deadline: Optional[float] = schema.field(None, above=0)
    #: Open a domain's circuit after N consecutive task failures
    #: (None disables breakers).
    breaker_threshold: Optional[int] = schema.field(None, min=1)
    #: Tasks an open breaker skips before its half-open probe.
    breaker_quarantine: int = schema.field(4, min=1)


@dataclass(frozen=True)
class ChaosSpec(_Section, _ChaosPlaneSpec):
    """The seeded fault-injection plane (`repro.resilience.chaos`).

    The spec section *is* the engine's :class:`ChaosSpec` — same
    fields, same rules — so what a config file declares is exactly
    what rides in ``CrawlPlan.context`` and reaches every worker.
    """


@dataclass(frozen=True)
class CrawlSpec(_Section):
    """A multi-vantage-point detection crawl."""

    #: Vantage point codes; ``None`` crawls all eight.
    vps: Optional[Tuple[str, ...]] = None
    #: Target domains; ``None`` crawls the world's reachable union.
    domains: Optional[Tuple[str, ...]] = None

    def validate(self) -> None:
        super().validate()
        _check_vps("crawl", self.vps)


@dataclass(frozen=True)
class MeasureSpec(_Section):
    """Repeated cookie or uBlock measurements on wall domains."""

    vp: str = "DE"
    mode: str = schema.field("accept", one_of=MEASURE_MODES)
    repeats: int = schema.field(5, min=1)
    #: ``None`` measures the wall domains a fresh detection crawl finds.
    domains: Optional[Tuple[str, ...]] = None


def _check_vps(section: str, vps: Optional[Tuple[str, ...]]) -> None:
    if vps is not None and not vps:
        raise SpecError(f"{section}.vps must name at least one vantage point")


def _check_months(section: str, months: Tuple[int, ...]) -> None:
    if not months:
        raise SpecError(f"{section}.months must name at least one wave")
    if list(months) != sorted(set(months)):
        raise SpecError("months must be strictly increasing")


@dataclass(frozen=True)
class LongitudinalSpec(_Section):
    """Re-crawls of the same targets against evolved world snapshots."""

    vp: str = "DE"
    #: Wave offsets in months; 0 is the baseline snapshot.
    months: Tuple[int, ...] = schema.field((0, 4), min=0)
    domains: Optional[Tuple[str, ...]] = None

    def validate(self) -> None:
        super().validate()
        _check_months("longitudinal", self.months)


@dataclass(frozen=True)
class MultiVantageSpec(_Section):
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
    months: Tuple[int, ...] = schema.field((0,), min=0)
    #: Target domains; ``None`` crawls the world's reachable union.
    domains: Optional[Tuple[str, ...]] = None
    #: Named regulation regime (baseline / eu / non-eu / geo-blocked),
    #: in any letter case.
    regime: str = "baseline"
    #: Extra VPN-like relocations: logical VP code -> exit VP code.
    relocate: Optional[Mapping[str, str]] = None
    #: First wave (month offset) the relocations apply from.
    relocate_month: int = schema.field(0, min=0)

    def validate(self) -> None:
        from repro.vantage import REGULATION_REGIMES, get_vantage_point

        super().validate()
        _check_vps("multivantage", self.vps)
        _check_months("multivantage", self.months)
        if self.regime.lower() not in REGULATION_REGIMES:
            raise SpecError(
                "multivantage.regime must be one of "
                f"{', '.join(REGULATION_REGIMES)}, got {self.regime!r}"
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


@dataclass(frozen=True)
class OutputSpec(_Section):
    """Where records go (all optional: no path means in-memory only)."""

    #: JSONL spool for ``crawl``/``measure`` records.
    path: Optional[str] = None
    #: Wave directory for ``longitudinal``/``multivantage``
    #: (``wave-<MM>.jsonl`` files).
    out_dir: Optional[str] = None


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
_SECTION_NAMES = {cls: name for name, cls in _SECTIONS.items()}
_check_kind = schema.compile(schema.OneOf(RUN_KINDS), SpecError, "kind")


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
        _check_kind(self.kind)
        self.world.validate()
        self.engine.validate()
        self.resilience.validate()
        self.chaos.validate()
        self.workload.validate()
        self.output.validate()
        # A resume's checkpoint and a streaming merge's journal live next
        # to the output; the messages name the CLI flags, shown verbatim.
        waves = self.kind in _WAVE_KINDS
        if (self.output.out_dir if waves else self.output.path) is None:
            for flag, asserted, waves_why, why in (
                ("--resume", self.engine.resume,
                 "the checkpoints live next to the wave spools",
                 "the checkpoint lives next to the spool"),
                ("--merge spool", self.engine.merge == "spool",
                 "each wave's journal is joined into its wave file",
                 "the run's journal is joined into it"),
            ):
                if asserted:
                    raise SpecError(
                        f"{self.kind} {flag} requires --out-dir "
                        f"(output.out_dir: {waves_why})" if waves else
                        f"{flag} requires an output path (--out / "
                        f"output.path: {why})"
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
        sections = {
            name: section_cls() if data.get(name) is None else section_cls.from_dict(data[name])
            for name, section_cls in _SECTIONS.items()
        }
        return cls(kind=resolved_kind, **sections).validate()

    def override(self, overrides: Mapping[str, Mapping]) -> "RunSpec":
        """A copy with *overrides* (nested section -> field maps) applied.

        This is the CLI precedence rule: values from a config file are
        the base, explicitly supplied flags win.  Only fields present
        in *overrides* change.
        """
        replaced = {}
        for name, values in overrides.items():
            if name not in _SECTIONS:
                raise SpecError(f"override names unknown section {name!r}")
            if values:  # read as from_dict reads it; only the given keys change
                parsed = vars(_SECTIONS[name].from_dict(values))
                replaced[name] = dataclasses.replace(getattr(self, name), **{
                    key: parsed[key] for key in values})
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
