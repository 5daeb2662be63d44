"""The handle a :class:`~repro.api.session.Session` returns per run.

A :class:`RunResult` binds together the resolved :class:`RunSpec` that
produced a campaign, the records it measured (streamed lazily from the
JSONL spool when one was written), the permanent failures, and a
summary — and it round-trips through :meth:`RunResult.save` /
:meth:`RunResult.load`, so a finished campaign is itself a durable,
replayable artefact: the manifest names the spec to re-run and the
spools holding the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import schema
from repro.api.spec import RunSpec, SpecError
from repro.durable import atomic_write_text
from repro.measure.storage import (
    decode_record,
    encode_record,
    iter_records,
    materialize_record,
)
from repro.schema import OneOf, Omittable, Range

#: Bumped when the manifest layout changes (old manifests are refused).
RESULT_VERSION = 1


@dataclass(frozen=True)
class RunFailure:
    """One permanently failed task (its retries exhausted)."""

    index: int
    vp: str
    domain: str
    mode: str
    error: str
    attempts: int = 1
    #: Wave month for longitudinal campaigns (``None`` otherwise).
    wave: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "vp": self.vp,
            "domain": self.domain,
            "mode": self.mode,
            "error": self.error,
            "attempts": self.attempts,
            "wave": self.wave,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunFailure":
        return cls(**data)


#: A :meth:`RunResult.save` manifest, and the summary fields
#: :meth:`RunResult.load` reads back (the summary's other keys are
#: per-kind extras, carried through as they are).
_MANIFEST = schema.compile({
    "kind": OneOf(("run-result",)),
    "version": Range(int, min=RESULT_VERSION, max=RESULT_VERSION),
    "spec": dict,
    "summary": dict,
    "failures": [{
        "index": int, "vp": str, "domain": str, "mode": str, "error": str,
        "attempts": Omittable(int), "wave": Omittable((None, int)),
    }],
    "spools": [str],
    "records": (None, [{"type": str, "data": dict}]),
}, SpecError)
_SUMMARY = schema.compile({
    "elapsed": Omittable(float), "executed": Omittable(int),
    "resumed": Omittable(int), "records": Omittable((None, int)),
}, SpecError, "summary")


class RunResult:
    """Records, failures, and summary of one executed :class:`RunSpec`.

    Records are held in memory when the session just produced them;
    a result :meth:`load`-ed from a manifest streams them lazily from
    its spool files instead, so inspecting a finished 45k-site
    campaign never materialises the full record list unless asked
    (:attr:`records` does, :meth:`iter_records` does not).
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        records: Optional[Sequence] = None,
        spool_paths: Sequence[Union[str, Path]] = (),
        failures: Sequence[RunFailure] = (),
        elapsed: float = 0.0,
        executed: int = 0,
        resumed: int = 0,
        record_count: Optional[int] = None,
        campaign=None,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.spec = spec
        # Records a worker shipped zero-copy are decoded here, once.
        self._records = (
            None if records is None else [materialize_record(r) for r in records]
        )
        self.spool_paths: Tuple[Path, ...] = tuple(
            Path(p) for p in spool_paths
        )
        self.failures: Tuple[RunFailure, ...] = tuple(failures)
        self.elapsed = elapsed
        self.executed = executed
        self.resumed = resumed
        self._record_count = record_count
        #: The live :class:`~repro.measure.longitudinal.LongitudinalRun`
        #: for longitudinal campaigns (not round-tripped by ``save``).
        self.campaign = campaign
        self._extra = dict(extra or {})

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.spec.kind

    def iter_records(self) -> Iterator:
        """Stream the records — from memory when fresh, else spool."""
        if self._records is not None:
            yield from self._records
            return
        if not self.spool_paths:
            return
        for path in self.spool_paths:
            yield from iter_records(path)

    @property
    def records(self) -> List:
        """The full record list (materialises a spool-backed result)."""
        if self._records is None:
            self._records = list(self.iter_records())
        return self._records

    @property
    def record_count(self) -> int:
        if self._record_count is None:
            self._record_count = sum(1 for _ in self.iter_records())
        return self._record_count

    @property
    def ok(self) -> bool:
        """True when no task failed permanently."""
        return not self.failures

    @property
    def tasks_per_sec(self) -> float:
        if self.elapsed <= 0.0:
            return 0.0
        return self.executed / self.elapsed

    def __len__(self) -> int:
        return self.record_count

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Machine-readable run overview (stable-keyed, JSON-safe)."""
        out: Dict[str, object] = {
            "kind": self.kind,
            "records": self.record_count,
            "failures": len(self.failures),
            "executed": self.executed,
            "resumed": self.resumed,
            "elapsed": self.elapsed,
            "tasks_per_sec": self.tasks_per_sec,
        }
        out.update(self._extra)
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write a JSON manifest describing this run.

        The manifest embeds the resolved spec, summary, and failures.
        Spooled runs are referenced by their JSONL paths (the data
        already lives there); spool-less runs embed the records so the
        manifest alone round-trips.
        """
        path = Path(path)
        payload: Dict[str, object] = {
            "kind": "run-result",
            "version": RESULT_VERSION,
            "spec": self.spec.to_dict(),
            "summary": self.summary(),
            "failures": [f.to_dict() for f in self.failures],
            "spools": [str(p) for p in self.spool_paths],
            "records": (
                None if self.spool_paths
                else [encode_record(r) for r in self.records]
            ),
        }
        return atomic_write_text(
            path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunResult":
        """Rebuild a result handle from a :meth:`save` manifest.

        Spool-backed results stay lazy: records stream from the JSONL
        files on demand rather than loading here.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise SpecError(f"cannot load run result {path}: {error}") from error
        try:
            _MANIFEST(payload)
            summary = payload["summary"]
            # The summary also carries per-kind extras; only the fields
            # read back here have a shape.
            _SUMMARY({k: v for k, v in summary.items() if k in _SUMMARY.shape})
            embedded = payload["records"]
            # A record body is checked by its dataclass, not by a shape.
            records = None if embedded is None else [decode_record(r) for r in embedded]
        except (ValueError, TypeError) as error:
            raise SpecError(f"{path}: not a run-result manifest ({error})") from None
        return cls(
            RunSpec.from_dict(payload["spec"]),
            records=records,
            spool_paths=payload["spools"],
            failures=[RunFailure.from_dict(f) for f in payload["failures"]],
            elapsed=summary.get("elapsed", 0.0),
            executed=summary.get("executed", 0),
            resumed=summary.get("resumed", 0),
            record_count=summary.get("records"),
            extra={
                k: v for k, v in summary.items()
                if k not in (
                    "kind", "records", "failures", "executed", "resumed",
                    "elapsed", "tasks_per_sec",
                )
            },
        )
