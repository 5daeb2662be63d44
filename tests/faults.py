"""Fault injection for the crash-safety tests and benchmarks.

The executor here kills chosen shards the way a dying worker would, so
the checkpoint/resume matrices can crash a run at a known point and
check that the resumed output is byte-identical.
"""

from repro.measure.engine import SerialExecutor, _run_local_bundle


class FaultInjectingExecutor(SerialExecutor):
    """Chaos harness for the checkpoint/resume path: kills the chosen
    shards either before they run or — with ``partial=True`` — after
    half their tasks completed (and were checkpointed), which is what a
    worker dying mid-shard looks like.  Every other shard runs and
    checkpoints normally; the first injected crash is raised after the
    last shard, exactly as under a real crash of one worker.
    Used by the crash-safety tests and benchmarks; never the default.
    """

    def __init__(self, fail_shards, *, partial: bool = False):
        self.fail_shards = set(fail_shards)
        self.partial = partial

    def run_bundles(self, bundles, on_shard, shared):
        crashed = [b["shard"] for b in bundles if b["shard"] in self.fail_shards]
        for bundle in bundles:
            if bundle["shard"] in crashed:
                if not self.partial:
                    continue
                tasks = bundle["tasks"]
                bundle = dict(bundle, tasks=tasks[: len(tasks) // 2])
            _run_local_bundle(bundle, on_shard, shared)
        if crashed:
            raise RuntimeError(f"injected crash in shard {crashed[0]}")
