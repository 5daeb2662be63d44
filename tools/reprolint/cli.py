"""The reprolint command line: ``python -m tools.reprolint [paths...]``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from tools.reprolint.core import (
    REPO_ROOT,
    Baseline,
    BaselineError,
    lint_sources,
    load_sources,
)
from tools.reprolint.rules import all_rules, rules_by_name

#: The CI gate: everything that produces records, tooling included.
DEFAULT_PATHS = ("src", "tools", "benchmarks")

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description=(
            "Repo-specific static analysis enforcing the reproducibility "
            "contract: determinism, streaming discipline, locking "
            "discipline, robustness, and trust boundaries."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output format (github emits workflow annotations)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=str(DEFAULT_BASELINE),
        help="baseline file of grandfathered findings",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write all current findings to the baseline file (justify each "
            "entry's 'reason' before committing) instead of failing"
        ),
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the full rationale for one rule and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    registry = rules_by_name()

    if args.list_rules:
        width = max(len(name) for name in registry)
        for name in sorted(registry):
            print(f"{name:<{width}}  {registry[name].summary}")
        return 0

    if args.explain:
        rule = registry.get(args.explain)
        if rule is None:
            print(
                f"unknown rule {args.explain!r}; known: "
                f"{', '.join(sorted(registry))}",
                file=sys.stderr,
            )
            return 2
        print(f"{rule.name}: {rule.summary}\n")
        print(rule.explanation.rstrip())
        return 0

    if args.select:
        names = [name.strip() for name in args.select.split(",") if name.strip()]
        unknown = [name for name in names if name not in registry]
        if unknown:
            print(
                f"unknown rule(s): {', '.join(unknown)}; known: "
                f"{', '.join(sorted(registry))}",
                file=sys.stderr,
            )
            return 2
        rules = [registry[name] for name in names]
    else:
        rules = all_rules()

    try:
        sources = load_sources([Path(p) for p in args.paths], root=REPO_ROOT)
    except (OSError, SyntaxError) as exc:
        print(f"reprolint: cannot load sources: {exc}", file=sys.stderr)
        return 2
    if not sources:
        print("reprolint: no python files under the given paths", file=sys.stderr)
        return 2

    baseline = None
    baseline_path = Path(args.baseline)
    if args.write_baseline:
        findings = lint_sources(sources, rules, baseline=None)
        payload = Baseline.serialize(findings)
        baseline_path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(
            f"wrote {len(payload['entries'])} baseline entr"
            f"{'y' if len(payload['entries']) == 1 else 'ies'} to "
            f"{baseline_path} — fill in each 'reason' before committing"
        )
        return 0
    if not args.no_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"reprolint: bad baseline: {exc}", file=sys.stderr)
            return 2

    findings = lint_sources(sources, rules, baseline=baseline)
    for finding in findings:
        if args.format == "github":
            print(finding.render_github())
        else:
            print(finding.render())
    if baseline is not None:
        for entry in baseline.stale_entries():
            print(
                f"warning: stale baseline entry no longer matches anything: "
                f"[{entry['rule']}] {entry['path']}: {entry['snippet']!r}",
                file=sys.stderr,
            )
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(
            f"reprolint: {len(findings)} {noun} "
            f"({len(sources)} files, {len(rules)} rules)",
            file=sys.stderr,
        )
        return 1
    print(
        f"reprolint: OK ({len(sources)} files, {len(rules)} rules, "
        f"{len(baseline.entries) if baseline else 0} baselined)"
    )
    return 0
