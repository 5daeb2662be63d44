"""The reprolint framework: sources, findings, pragmas, and the baseline.

A :class:`SourceFile` is one parsed module; rules yield
:class:`Finding` objects against it.  :func:`lint_sources` runs a rule
set over a file set and applies the two suppression layers:

- **inline pragmas** — ``# reprolint: disable=RULE[,RULE] -- why`` on
  the finding's line.  The justification after ``--`` is mandatory: a
  pragma without one suppresses nothing and is itself reported
  (``bad-pragma``); a pragma that suppresses nothing is reported too
  (``unused-suppression``), so stale suppressions cannot rot in place.
- **the baseline** — a checked-in JSON file of grandfathered findings,
  matched by ``(rule, path, snippet)`` so entries survive line drift.
  Every entry must carry a non-empty ``reason``; unmatched entries are
  reported as stale (warning, not failure) so the file shrinks as debt
  is paid down.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Repo root (tools/reprolint/core.py -> tools/reprolint -> tools -> root).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Pragma syntax (in a real comment): ``reprolint: disable=rule-a,rule-b -- justification``
_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\-]+)"
    r"(?:\s+--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative posix path (the scoping/reporting path)
    line: int
    col: int
    message: str
    snippet: str = ""  # stripped source line, the baseline fingerprint

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.snippet)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def render_github(self) -> str:
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title=reprolint[{self.rule}]::{self.message}"
        )


@dataclass
class Pragma:
    """One inline suppression comment."""

    line: int
    rules: Set[str]
    justification: Optional[str]
    used: Set[str] = field(default_factory=set)


class SourceFile:
    """One parsed python module plus its suppression pragmas.

    *rel* is the path rules scope on — repo-relative for real files,
    and overridable so the test corpus can present a fixture as living
    anywhere in the tree.
    """

    def __init__(self, text: str, rel: str, path: Optional[Path] = None) -> None:
        self.text = text
        self.rel = rel.replace("\\", "/")
        self.path = path
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=self.rel)
        self.pragmas: Dict[int, Pragma] = {}
        # Real comment tokens only: pragma examples inside docstrings
        # must not count as suppressions.
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        except tokenize.TokenizeError:  # pragma: no cover - ast.parse caught it
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            number = token.start[0]
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            pragma = Pragma(
                line=number, rules=rules, justification=match.group("why")
            )
            # A trailing pragma guards its own line; a standalone
            # comment line guards the next line (the convention used
            # when the offending line is too long to annotate inline).
            standalone = not self.lines[number - 1][: token.start[1]].strip()
            self.pragmas[number + 1 if standalone else number] = pragma

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=rule,
            path=self.rel,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
        )


class Rule:
    """A per-file rule: scoped by path, checked against one AST."""

    name: str = ""
    summary: str = ""
    explanation: str = ""

    def applies_to(self, rel: str) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def check(self, src: SourceFile) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


class BaselineError(ValueError):
    """The baseline file is malformed or an entry lacks a justification."""


class Baseline:
    """The checked-in set of grandfathered findings.

    Matching is by ``(rule, path, snippet)`` with per-key counts, so an
    entry keeps matching when surrounding code shifts lines but stops
    matching — and is reported stale — the moment the offending line
    changes or disappears.
    """

    def __init__(self, entries: Optional[List[dict]] = None) -> None:
        self.entries = list(entries or [])
        self._budget: Dict[Tuple[str, str, str], int] = {}
        for entry in self.entries:
            for key in ("rule", "path", "snippet"):
                if not isinstance(entry.get(key), str) or not entry[key]:
                    raise BaselineError(
                        f"baseline entry missing a non-empty {key!r}: {entry!r}"
                    )
            reason = entry.get("reason")
            if not isinstance(reason, str) or not reason.strip():
                raise BaselineError(
                    "baseline entries must carry a non-empty 'reason' "
                    f"justifying the grandfathered finding: {entry!r}"
                )
            key = (entry["rule"], entry["path"], entry["snippet"])
            self._budget[key] = self._budget.get(key, 0) + int(entry.get("count", 1))
        self._spent: Dict[Tuple[str, str, str], int] = {}

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise BaselineError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(payload, dict) or "entries" not in payload:
            raise BaselineError(f"{path}: expected an object with an 'entries' list")
        return cls(payload["entries"])

    def absorbs(self, finding: Finding) -> bool:
        key = finding.key()
        if self._spent.get(key, 0) < self._budget.get(key, 0):
            self._spent[key] = self._spent.get(key, 0) + 1
            return True
        return False

    def stale_entries(self) -> List[dict]:
        """Entries that matched nothing in the last lint run."""
        seen: Set[Tuple[str, str, str]] = set()
        stale = []
        for entry in self.entries:
            key = (entry["rule"], entry["path"], entry["snippet"])
            if self._spent.get(key, 0) == 0 and key not in seen:
                seen.add(key)
                stale.append(entry)
        return stale

    @staticmethod
    def serialize(findings: Iterable[Finding]) -> dict:
        """A baseline payload grandfathering *findings* (reasons to fill in)."""
        counts: Dict[Tuple[str, str, str], int] = {}
        order: List[Tuple[str, str, str]] = []
        for finding in findings:
            key = finding.key()
            if key not in counts:
                order.append(key)
            counts[key] = counts.get(key, 0) + 1
        return {
            "version": 1,
            "entries": [
                {
                    "rule": rule,
                    "path": path,
                    "snippet": snippet,
                    "count": counts[(rule, path, snippet)],
                    "reason": "grandfathered - replace with a real justification",
                }
                for rule, path, snippet in sorted(order)
            ],
        }


def load_sources(paths: Iterable[Path], root: Path = REPO_ROOT) -> List[SourceFile]:
    """Collect ``SourceFile``s for every ``*.py`` under *paths*."""
    seen: Set[Path] = set()
    files: List[Path] = []
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            files.append(resolved)
    sources = []
    for file in files:
        try:
            rel = file.relative_to(root).as_posix()
        except ValueError:
            rel = file.as_posix()
        sources.append(SourceFile(file.read_text(encoding="utf-8"), rel, path=file))
    return sources


def lint_sources(
    sources: Sequence[SourceFile],
    rules: Sequence[Rule],
    baseline: Optional[Baseline] = None,
) -> List[Finding]:
    """Run *rules* over *sources*; return the surviving findings.

    Order of layers: raw findings -> pragma suppression (justified
    pragmas only) -> pragma meta-findings (``bad-pragma`` /
    ``unused-suppression``) -> baseline absorption.
    """
    raw: List[Finding] = []
    for rule in rules:
        for src in sources:
            if rule.applies_to(src.rel):
                raw.extend(rule.check(src))

    by_rel: Dict[str, SourceFile] = {src.rel: src for src in sources}
    kept: List[Finding] = []
    for finding in raw:
        src = by_rel.get(finding.path)
        pragma = src.pragmas.get(finding.line) if src is not None else None
        if pragma is not None and (
            finding.rule in pragma.rules or "all" in pragma.rules
        ):
            pragma.used.add(finding.rule if finding.rule in pragma.rules else "all")
            if pragma.justification:
                continue  # justified suppression
            # An unjustified pragma suppresses nothing; the finding
            # stands and the pragma is reported below.
        kept.append(finding)

    for src in sources:
        for pragma in src.pragmas.values():
            if not pragma.justification:
                kept.append(
                    Finding(
                        rule="bad-pragma",
                        path=src.rel,
                        line=pragma.line,
                        col=1,
                        message=(
                            "suppression pragma lacks a justification: write "
                            "'# reprolint: disable=RULE -- why this is safe'"
                        ),
                        snippet=src.snippet(pragma.line),
                    )
                )
            else:
                # A pragma is only "unused" for rules that actually ran
                # (a --select subset must not flag other rules' pragmas).
                executed = {rule.name for rule in rules} | {"all"}
                for rule_name in sorted(
                    (pragma.rules & executed) - pragma.used
                ):
                    kept.append(
                        Finding(
                            rule="unused-suppression",
                            path=src.rel,
                            line=pragma.line,
                            col=1,
                            message=(
                                f"pragma disables {rule_name!r} but nothing on "
                                "this line triggers it; remove the stale "
                                "suppression"
                            ),
                            snippet=src.snippet(pragma.line),
                        )
                    )

    if baseline is not None:
        kept = [finding for finding in kept if not baseline.absorbs(finding)]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept
