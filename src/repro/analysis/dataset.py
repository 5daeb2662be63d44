"""Data-release bundles (the paper publishes tools, data, and code).

The paper's artefact release [49] ships raw crawl records and analysis
inputs.  :func:`export_dataset` writes the equivalent bundle for a
reproduction run: crawl records, cookie measurements, uBlock records,
the toplists, the tracking list, and a manifest; :func:`load_dataset`
opens a bundle for offline re-analysis as a :class:`Dataset` whose
record accessors are single-pass iterators reading straight from the
bundle's JSONL files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Union

from repro.durable import atomic_write_text
from repro.measure.crawl import cookiewall_domains
from repro.measure.records import CookieMeasurement, UBlockRecord, VisitRecord
from repro.measure.storage import iter_records, save_records
from repro.webgen.crux import export_all, import_toplist
from repro.webgen.world import World

_MANIFEST = "manifest.json"


class Dataset:
    """A released bundle: record accessors are fresh iterators.

    Nothing is materialised at load time beyond the manifest, the
    toplists, and the tracking list; every ``iter_*`` call opens the
    underlying JSONL file again, so repeated passes work and memory
    stays O(one record).  Callers that need lists call ``list(...)``.
    """

    def __init__(
        self,
        directory: Path,
        manifest: Dict,
        toplists: Dict[str, object],
        tracking_domains: List[str],
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self.toplists = toplists
        self.tracking_domains = tracking_domains

    def iter_visit_records(self) -> Iterator[VisitRecord]:
        return iter_records(self.directory / "visits.jsonl")

    def iter_cookie_measurements(self) -> Iterator[CookieMeasurement]:
        return iter_records(self.directory / "cookies.jsonl")

    def iter_ublock_records(self) -> Iterator[UBlockRecord]:
        return iter_records(self.directory / "ublock.jsonl")

    def cookiewall_domains(self) -> List[str]:
        return cookiewall_domains(self.iter_visit_records())


def export_dataset(
    directory: Union[str, Path],
    *,
    world: World,
    visit_records: Iterable[VisitRecord] = (),
    cookie_measurements: Iterable[CookieMeasurement] = (),
    ublock_records: Iterable[UBlockRecord] = (),
    description: str = "",
) -> Path:
    """Write a measurement bundle; returns the directory path.

    The record arguments may be one-shot iterators (e.g.
    ``RunResult.iter_records()``): each is consumed exactly once by an
    appending :func:`save_records` pass, and the manifest counts come
    from the number of records actually written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    counts: Dict[str, int] = {}
    for name, records in (
        ("visits.jsonl", visit_records),
        ("cookies.jsonl", cookie_measurements),
        ("ublock.jsonl", ublock_records),
    ):
        path = directory / name
        # Fresh bundle file, then stream-append: a single pass that
        # also composes with callers appending further waves later.
        if path.exists():
            path.unlink()
        counts[name] = save_records(records, path, append=True)
    export_all(world.toplists, directory / "toplists")
    (directory / "justdomains.txt").write_text(
        world.tracking_list.to_text(), encoding="utf-8"
    )
    manifest = {
        "description": description,
        "seed": world.config.seed,
        "scale": world.config.scale,
        "crawl_targets": len(world.crawl_targets),
        "visit_records": counts["visits.jsonl"],
        "cookie_measurements": counts["cookies.jsonl"],
        "ublock_records": counts["ublock.jsonl"],
        "files": [
            "visits.jsonl", "cookies.jsonl", "ublock.jsonl",
            "toplists/", "justdomains.txt",
        ],
    }
    atomic_write_text(directory / _MANIFEST, json.dumps(manifest, indent=2))
    return directory


def load_dataset(directory: Union[str, Path]) -> Dataset:
    """Open a bundle written by :func:`export_dataset`."""
    directory = Path(directory)
    manifest = json.loads((directory / _MANIFEST).read_text(encoding="utf-8"))
    toplists: Dict[str, object] = {}
    for csv_path in sorted((directory / "toplists").glob("crux_*.csv")):
        toplist = import_toplist(csv_path)
        toplists[toplist.country] = toplist
    from repro.blocklists import JustDomainsList

    tracking = JustDomainsList.from_text(
        (directory / "justdomains.txt").read_text(encoding="utf-8")
    )
    return Dataset(directory, manifest, toplists, list(tracking))
