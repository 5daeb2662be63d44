#!/usr/bin/env python3
"""Alternating A/B pairs of the repository benchmark, with a verdict.

    python -m tools.abpairs --workload verify --seed 1 --pairs 10 \\
        --parent HEAD~1 --change HEAD --workdir /tmp/abpairs

Extracts both revisions with ``git archive`` into temporary
directories under ``--workdir`` and runs the unchanged
``perfbench/run.py`` of each in alternating order (parent first in odd
pairs, change first in even ones), so a slow spell on the host hits
both sides.  ``--change WORKTREE`` benchmarks the current working tree
(tracked and untracked, ignored files excluded) without touching the
index or HEAD.  The copies are removed again, also on failure or
Ctrl-C.

Prints every run (each end-to-end metric of ``BENCHMARK.json``, child
CPU seconds and ``correct``).  Then, for every end-to-end metric and
for CPU seconds: each side's median and quartiles, the pairs the
change won, the median gap against the parent's interquartile range,
the verdict under the rule "the change wins >= 9 of 10 pairs and the
median gap exceeds the parent's IQR", and how far the change's median
is from the metric's bound.  Child CPU seconds are ``getrusage(RUSAGE_CHILDREN)``
deltas around each run (user + system, every reaped descendant), so
the output also shows whether CPU time is quieter than wall time.
perfbench fills ``--seconds`` with timed iterations and then set-up
runs, so a run's CPU seconds measure a fixed amount of work only when
``--seconds`` is shorter than one iteration (one iteration plus the
minimum set-up runs); each run line shows its iteration count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
#: The rule's win share: at least nine of ten pairs.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    """The gain rule applied to paired parent/change runs."""

    pairs: int
    wins: int
    parent_median: float
    change_median: float
    parent_quartiles: Tuple[float, float]
    change_quartiles: Tuple[float, float]
    #: Median improvement (positive = the change is better).
    gap: float
    parent_iqr: float

    @property
    def enough_wins(self) -> bool:
        return self.pairs > 0 and self.wins >= WIN_SHARE * self.pairs

    @property
    def gap_exceeds_iqr(self) -> bool:
        return self.gap > self.parent_iqr

    @property
    def met(self) -> bool:
        return self.enough_wins and self.gap_exceeds_iqr


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """``(Q1, Q3)`` by :func:`statistics.quantiles` (exclusive method);
    a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str = "lower"
) -> Verdict:
    """Apply the gain rule to paired runs (``parent[i]`` with ``change[i]``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    parent_q = quartiles(parent)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    return Verdict(
        pairs=len(parent),
        wins=wins,
        parent_median=parent_median,
        change_median=change_median,
        parent_quartiles=parent_q,
        change_quartiles=quartiles(change),
        gap=sign * (parent_median - change_median) + 0.0,  # no "-0"
        parent_iqr=parent_q[1] - parent_q[0],
    )


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse the change's median is, as a fraction of the
    parent's (negative when it is better)."""
    if parent == change:
        return 0.0
    delta = change - parent if better == "lower" else parent - change
    if not parent:
        return math.inf if delta > 0 else -math.inf
    return delta / abs(parent)


def render(v: Verdict, metric: str) -> List[str]:
    """The summary lines for one metric."""
    return [
        f"{metric}: parent median {v.parent_median:.4g} "
        f"(Q1..Q3 {v.parent_quartiles[0]:.4g}..{v.parent_quartiles[1]:.4g}), "
        f"change median {v.change_median:.4g} "
        f"(Q1..Q3 {v.change_quartiles[0]:.4g}..{v.change_quartiles[1]:.4g})",
        f"{metric}: change won {v.wins}/{v.pairs} pairs; median gap "
        f"{v.gap:.4g} vs parent IQR {v.parent_iqr:.4g}",
        f"{metric}: verdict {'MET' if v.met else 'NOT MET'} "
        f"(wins >= {WIN_SHARE:.0%}: {'yes' if v.enough_wins else 'no'}; "
        f"gap > IQR: {'yes' if v.gap_exceeds_iqr else 'no'})",
    ]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _git(*args: str, env: Optional[dict] = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, env=env, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout.strip()


def resolve(revision: str, scratch: Path) -> str:
    """A tree id for *revision*; ``WORKTREE`` snapshots the working
    tree through a private index file."""
    if revision != WORKTREE:
        return _git("rev-parse", "--verify", f"{revision}^{{tree}}")
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "snapshot.index"))
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    return _git("write-tree", env=env)


def extract(tree_id: str, dest: Path) -> None:
    """Write the files of *tree_id* into the new directory *dest*."""
    dest.mkdir()
    archive = subprocess.Popen(
        ["git", "archive", tree_id], cwd=REPO, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {tree_id} exited {archive.returncode}")


def run_once(tree: Path, command: List[str], args) -> dict:
    """One benchmark run in *tree*: its JSON result plus ``cpu_s``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        command + [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark in {tree} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (
        after.ru_stime - before.ru_stime
    )
    result["iterations"] = sum(1 for line in lines if line.startswith("# iteration "))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=WORKTREE)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run length (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="directory for the two worktrees (default: a new temp dir)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    made_workdir = args.workdir is None
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="abpairs-"))
    workdir.mkdir(parents=True, exist_ok=True)
    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    added: List[Path] = []
    try:
        commits = {
            side: resolve(getattr(args, side), workdir) for side in trees
        }
        for side, tree in trees.items():
            extract(commits[side], tree)
            added.append(tree)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        command = list(spec["command"])
        if command[0].startswith("python"):
            command[0] = sys.executable
        print(f"# parent {args.parent} = tree {commits['parent'][:12]}, "
              f"change {args.change} = tree {commits['change'][:12]}")
        print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s a run, "
              f"{args.pairs} pairs")

        cpu = {"parent": [], "change": []}
        metrics = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], command, args)
                cpu[side].append(result["cpu_s"])
                metrics[side].append(result["metrics"])
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in spec["end_to_end"]
                )
                print(f"pair {pair + 1:2d} {side:6s} {values} "
                      f"cpu_s={result['cpu_s']:.2f} "
                      f"iterations={result['iterations']} "
                      f"correct={str(result['correct']).lower()}", flush=True)
                if not result["correct"]:
                    print(f"# {side} run was not correct", file=sys.stderr)
                    return 1

        # Every end-to-end metric of BENCHMARK.json, then child CPU
        # seconds: its runs, the gain rule, and the bound check.
        series = [
            (
                m["name"], m["better"], m.get("bound"),
                {side: [r[m["name"]]["value"] for r in metrics[side]]
                 for side in trees},
            )
            for m in spec["end_to_end"]
        ] + [("cpu_s", "lower", None, cpu)]
        for name, better, bound, runs in series:
            for side in trees:
                print(f"{side:6s} {name}: "
                      + " ".join(f"{v:.4g}" for v in runs[side]))
            v = verdict(runs["parent"], runs["change"], better)
            for line in render(v, name):
                print(line)
            for side in trees:
                q1, q3 = quartiles(runs[side])
                median = statistics.median(runs[side])
                spread = (q3 - q1) / median if median else 0.0
                print(f"# {side} {name} spread: IQR/median {spread:.1%}")
            if bound is not None:
                worse = worsening(v.parent_median, v.change_median, better)
                print(f"# {name}: worsening {worse:+.1%}; bound {bound:.0%}: "
                      f"{'within' if worse <= bound else 'BEYOND'}")
        return 0
    finally:
        if made_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            for tree in added:
                shutil.rmtree(tree, ignore_errors=True)
            (workdir / "snapshot.index").unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
