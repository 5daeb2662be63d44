"""The repository benchmark: one workload per invocation, one JSON result.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0

Run from the repository root.  Every iteration runs in a fresh
``iteration.py`` process (world build, timed phase, output check);
iterations repeat while the next one should end within ``--seconds``
(at least one runs), then set-up-only processes fill the rest of
``--seconds`` (at least five set-up samples in all).  ``campaign``'s
serial reference run comes after that, outside the measured time.
The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--record``
stores this seed's output digest in references.json once the run
checks out.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_SETUPS = 5
#: A run must end within 180 s whatever a child does.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def child(args, mode: str, trace: int, out: Path, deadline: float) -> dict:
    """Run one ``iteration.py`` process and return its JSON line."""
    command = [
        sys.executable, str(HERE / "iteration.py"),
        args.workload, str(args.seed), mode, str(trace), str(out),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        # The session holds the child's distributed workers too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload} {mode} iteration timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} {mode} iteration exited {proc.returncode}")
    return json.loads(stdout.decode("utf-8").strip().splitlines()[-1])


def check_samples(samples, serial_digest, reference):
    """``(failed tasks, failure notes)``: a sample whose output does not
    match counts all its tasks as failed; otherwise its degraded ones."""
    failed, notes = 0, []
    for i, sample in enumerate(samples):
        problems = []
        if sample["records"] is not None and sample["records"] != sample["tasks"]:
            problems.append(f"{sample['records']} records for {sample['tasks']} tasks")
        if sample["digest"] != samples[0]["digest"]:
            problems.append("output differs from the first iteration")
        if serial_digest is not None and sample["digest"] != serial_digest:
            problems.append("output differs from the serial backend")
        if reference is not None and (
            sample["digest"] != reference["digest"]
            or sample["observations"] != reference["observations_holding"]
        ):
            problems.append("output differs from the recorded reference")
        if problems:
            failed += sample["tasks"]
            notes.append(f"iteration {i}: " + "; ".join(problems))
        else:
            failed += sample["degraded"]
    return failed, notes


def summarise(samples, setups, failed: int, attempted: int, traced: bool) -> dict:
    """Each metric's samples in this run; the reported value is their median."""
    if traced:
        values = {
            name: [s["layers"][name] for s in samples] for name in samples[0]["layers"]
        }
        values["trace.wall_s"] = [s["wall_s"] for s in samples]
        return values
    return {
        "setup_s": setups,
        "wall_s": [s["wall_s"] for s in samples],
        "records_per_s": [s["tasks"] / s["wall_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "ok_frac": [1.0 - failed / attempted],
        "observations_holding": [s["observations"] for s in samples],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    try:
        samples, last = [], 0.0
        # Start another iteration only when it should end within --seconds.
        while not samples or time.monotonic() - started + last <= args.seconds:
            begun = time.monotonic()
            samples.append(child(args, "run", args.trace, work / str(len(samples)), deadline))
            last = time.monotonic() - begun
        setups = [s["setup_s"] for s in samples]
        last = 0.0
        while not args.trace and (
            len(setups) < MIN_SETUPS or time.monotonic() - started + last <= args.seconds
        ):
            begun = time.monotonic()
            setups.append(child(args, "setup", 0, work / "setup", deadline)["setup_s"])
            last = time.monotonic() - begun
        # The serial run only checks the output, so it runs after the
        # measured --seconds.
        serial_digest = None
        if args.workload == "campaign":
            serial_digest = child(args, "reference", 0, work / "ref", deadline)["digest"]
    except BenchError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    references = (
        json.loads(REFERENCES.read_text(encoding="utf-8"))
        if REFERENCES.exists() else {}
    )
    reference = references.get(args.workload, {}).get(str(args.seed))
    failed, notes = check_samples(samples, serial_digest, reference)
    attempted = sum(s["tasks"] for s in samples)

    values = summarise(samples, setups, failed, attempted, args.trace)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if not METRIC_NAME.fullmatch(name) or name not in values:
            print(f"metric {name!r} is not produced", file=sys.stderr)
            return 1
        metrics[name] = {"value": statistics.median(values[name]), "unit": metric["unit"]}

    for i, sample in enumerate(samples):
        print(f"# iteration {i}: setup_s={sample['setup_s']:.3f} "
              f"wall_s={sample['wall_s']:.3f} tasks={sample['tasks']} "
              f"observations={sample['observations']} digest={sample['digest'][:16]}")
    for note in notes:
        print(f"# FAILED {note}")
    for name, metric in metrics.items():
        points = values[name]
        quartiles = statistics.quantiles(points, n=4) if len(points) > 1 else points * 3
        print(f"# {name}: median {metric['value']:.6g} quartiles "
              f"{quartiles[0]:.6g}..{quartiles[2]:.6g} n={len(points)}")
    print("# regime " + json.dumps(samples[0]["regime"], sort_keys=True))
    if args.record and not notes and failed == 0:
        references.setdefault(args.workload, {})[str(args.seed)] = {
            "digest": samples[0]["digest"],
            "observations_holding": samples[0]["observations"],
        }
        REFERENCES.write_text(
            json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(json.dumps({
        "correct": not notes and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
