"""Streaming discipline: the analysis and merge paths stay single-pass.

Generalises the original ``load_records``-in-``analysis/`` ban: the
flat-RSS gates (``large_world_smoke.py``, ``BENCH_streaming.json``
floors) assume no layer between a spool and an aggregate ever
materialises a record file, so any whole-file read in those paths is
a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Finding, Rule, SourceFile

#: Strict scope: no load_records imports/references at all, and no
#: whole-file json.load — every aggregation here is one pass by design.
ANALYSIS_SCOPE = "src/repro/analysis/"

#: Merge/reconcile paths plus the perf gates: materialising *calls*
#: are banned, but naming the API (re-exports, docstrings) is fine.
MERGE_SCOPES = (
    "src/repro/measure/storage.py",
    "src/repro/measure/engine.py",
    "src/repro/measure/longitudinal.py",
    "benchmarks/",
    "tools/",
)

BANNED_NAME = "load_records"

#: Streaming iterators whose wholesale materialisation defeats them.
STREAM_ITERATORS = {"iter_records", "iter_jsonl", "iter_journal_runs"}


def _callee_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class MaterializedRecordsRule(Rule):
    name = "materialized-records"
    summary = "no whole-file record materialisation in streaming paths"
    explanation = """\
The one-pass pipeline's memory model (peak RSS independent of record
count) dies the moment a streaming path buffers a whole file.  Flagged
in ``src/repro/analysis/`` (strictest — importing or referencing
``load_records`` at all), and as *calls* in the merge/reconcile modules
(``measure/storage.py``, ``measure/engine.py``,
``measure/longitudinal.py``) plus ``benchmarks/`` and ``tools/``:

- ``load_records(...)`` — the one deliberately materialising API;
- ``list(iter_records(...))`` / ``list(iter_jsonl(...))`` /
  ``list(iter_journal_runs(...))`` and their ``tuple`` forms —
  load_records by another spelling;
- ``handle.readlines()`` — a whole file as a list of lines;
- ``json.load(...)`` (analysis scope only) — a whole document at once;
  small config/benchmark JSON elsewhere is legitimate.

Stream with ``iter_records`` / ``iter_jsonl`` and fold into the online
aggregators in ``analysis/stats.py`` instead.
"""

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(ANALYSIS_SCOPE) or rel.startswith(MERGE_SCOPES)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        strict = src.rel.startswith(ANALYSIS_SCOPE)
        for node in ast.walk(src.tree):
            if strict and isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == BANNED_NAME:
                        yield src.finding(
                            self.name,
                            node,
                            f"imports {BANNED_NAME} from {node.module}; the "
                            "analysis layer is single-pass — stream with "
                            "iter_records instead",
                        )
            elif strict and isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[-1] == BANNED_NAME:
                        yield src.finding(
                            self.name,
                            node,
                            f"imports {alias.name}; the analysis layer is "
                            "single-pass — stream with iter_records instead",
                        )
            elif strict and isinstance(node, ast.Attribute):
                if node.attr == BANNED_NAME:
                    yield src.finding(
                        self.name,
                        node,
                        f"references .{BANNED_NAME}; the analysis layer is "
                        "single-pass — stream with iter_records instead",
                    )
            elif isinstance(node, ast.Call):
                callee = _callee_name(node)
                if callee == BANNED_NAME:
                    yield src.finding(
                        self.name,
                        node,
                        f"{BANNED_NAME}() materialises a whole record file; "
                        "stream with iter_records",
                    )
                elif callee in {"list", "tuple"} and node.args:
                    inner = node.args[0]
                    if (
                        isinstance(inner, ast.Call)
                        and _callee_name(inner) in STREAM_ITERATORS
                    ):
                        yield src.finding(
                            self.name,
                            node,
                            f"{callee}({_callee_name(inner)}(...)) buffers the "
                            "whole stream — this is load_records by another "
                            "name; keep it an iterator",
                        )
                elif callee == "readlines":
                    yield src.finding(
                        self.name,
                        node,
                        ".readlines() buffers the whole file; iterate the "
                        "handle line by line",
                    )
                elif (
                    strict
                    and callee == "load"
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"
                ):
                    yield src.finding(
                        self.name,
                        node,
                        "json.load() reads a whole document; analysis inputs "
                        "are JSONL — stream with iter_jsonl",
                    )
