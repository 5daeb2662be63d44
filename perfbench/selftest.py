"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Covers the self-time arithmetic of nested spans, the metric-name rule,
and a tiny-scale smoke of every workload that checks each metric named
in BENCHMARK.json is produced.  The smoke builds worlds at 1% scale, so
the whole file runs in well under a minute.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import threading
import types
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from iteration import iterate  # noqa: E402
from run import METRIC_NAME, ROOT, check_samples, summarise  # noqa: E402
from tracer import Tracer, span_self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.now += 1.0

        def middle():
            clock.now += 0.5
            traced_leaf()
            traced_leaf()
            clock.now += 0.25

        def outer():
            traced_middle()
            clock.now += 2.0

        traced_leaf = tracer.wrap(leaf, "leaf")
        traced_middle = tracer.wrap(middle, "middle")
        tracer.wrap(outer, "outer")()
        times = tracer.layer_times()
        self.assertEqual(times["leaf"], {"calls": 2, "total_s": 2.0, "self_s": 2.0})
        self.assertEqual(times["middle"], {"calls": 1, "total_s": 2.75, "self_s": 0.75})
        self.assertEqual(times["outer"], {"calls": 1, "total_s": 4.75, "self_s": 2.0})

    def test_columns(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
        start = array("d", [0, 1, 5, 6])
        end = array("d", [10, 4, 9, 7])
        name = array("i", [0, 1, 1, 2])
        parent = array("i", [-1, 0, 0, 2])
        self.assertEqual(
            span_self_times(start, end, name, parent),
            [(0, 1, 10.0, 3.0), (1, 2, 7.0, 6.0), (2, 1, 1.0, 1.0)],
        )

    def test_open_span_ignored_and_threads_separate(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.open(tracer.name_id("open"))
        done = threading.Event()

        def other_thread():
            tracer.wrap(lambda: None, "other")()
            done.set()

        threading.Thread(target=other_thread).start()
        self.assertTrue(done.wait(5))
        times = tracer.layer_times()
        self.assertNotIn("open", times)
        self.assertEqual(times["other"]["calls"], 1)

    def test_iterator_spans_and_uninstall(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def produce():
            for i in range(3):
                clock.now += 1.0
                yield i

        module = types.SimpleNamespace(produce=produce)
        tracer.patch(module, "produce", tracer.wrap_iter(produce, "read"))
        self.assertEqual(list(module.produce()), [0, 1, 2])
        tracer.uninstall()
        self.assertIs(module.produce, produce)
        self.assertEqual(tracer.layer_times()["read"]["calls"], 4)


class MetricNameTest(unittest.TestCase):
    def test_rule(self):
        for good in ("wall_s", "soup.cache_hit_ratio", "crawl.task_s.ublock", "a-b.c_1"):
            self.assertTrue(METRIC_NAME.fullmatch(good), good)
        for bad in ("", "_x", "wall s", "rss/mb", "x" * 65, "a:b"):
            self.assertFalse(METRIC_NAME.fullmatch(bad), bad)

    def test_benchmark_names(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(METRIC_NAME.fullmatch(name), name)


class CheckTest(unittest.TestCase):
    def sample(self, digest="d", **overrides):
        sample = {"records": 10, "tasks": 10, "degraded": 0,
                  "digest": digest, "observations": 7}
        sample.update(overrides)
        return sample

    def test_mismatch_fails_all_tasks(self):
        samples = [self.sample(), self.sample(digest="other")]
        failed, notes = check_samples(samples, "d", None)
        self.assertEqual(failed, 10)
        self.assertEqual(len(notes), 1)

    def test_reference_and_degraded(self):
        reference = {"digest": "d", "observations_holding": 7}
        failed, notes = check_samples([self.sample(degraded=2)], None, reference)
        self.assertEqual((failed, notes), (2, []))
        failed, notes = check_samples(
            [self.sample(observations=6)], None, reference
        )
        self.assertEqual(failed, 10)


class WorkloadSmokeTest(unittest.TestCase):
    """Every workload at 1% scale emits every metric BENCHMARK.json names."""

    def test_every_metric_emitted(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for name in sorted(WORKLOADS):
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                workload = copy.copy(WORKLOADS[name])
                workload.scale = 0.01
                sample = iterate(workload, 3, Path(tmp), Tracer())
                self.assertEqual(sample["records"] or sample["tasks"], sample["tasks"])
                self.assertGreater(sample["tasks"], 0)
                self.assertEqual(sample["degraded"], 0)
                plain = summarise([sample], [sample["setup_s"]], 0, sample["tasks"], False)
                self.assertEqual(set(plain), end_to_end)
                traced = summarise([sample], [], 0, sample["tasks"], True)
                self.assertEqual(set(traced), per_layer)
                self.assertTrue(all(v[0] >= 0 for v in traced.values()))


if __name__ == "__main__":
    unittest.main()
