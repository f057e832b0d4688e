"""Self-tests of the benchmark: tracer coverage, golden verdicts, metric names.

    python3 -m unittest discover -s bench -t bench

A later rename or re-export inside lmlab would otherwise read as a layer with
zero time: lmlab re-binds names with ``from .groebner import ...``, so each
wrapped function has to be patched at every module that binds it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _originals():
    found = {}
    for module in tracer._lmlab_modules():
        name = module.__name__.rsplit(".", 1)[1]
        for mod, qual in tracer.TARGETS:
            if mod == name:
                owner = module
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                found[mod + "." + qual] = vars(owner)[attr]
    return found


def _bound_to(functions):
    """Every (owner, attribute) in the package whose value is in functions."""
    ids = {id(f) for f in functions}
    hits = []
    for module in tracer._lmlab_modules():
        for attr, value in vars(module).items():
            if id(value) in ids:
                hits.append((module.__name__, attr))
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    if id(cvalue) in ids:
                        hits.append((value.__qualname__, cattr))
    return sorted(hits)


class TracerCoverage(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        originals = _originals()
        self.assertEqual(len(originals), len(tracer.TARGETS))
        before = _bound_to(originals.values())
        for binding in [
            ("lmlab.localmodel", "buchberger"),
            ("lmlab.cli", "buchberger"),
            ("lmlab.verify", "krull_dim"),
            ("lmlab.quadric", "intersect"),
            ("lmlab.quadric", "radical_member"),
            ("Polynomial", "__rmul__"),
        ]:
            self.assertIn(binding, before)
        with tracer.Tracer():
            self.assertEqual(_bound_to(originals.values()), [])
        self.assertEqual(_bound_to(originals.values()), before)

    def test_traced_pass_calls_every_function_and_keeps_verdicts(self):
        # One untraced and two traced suite passes on 5:1.  ``correct``
        # requires equal verdicts on all three, counts and ratios that repeat
        # exactly, and no golden pass lost.
        wl = run.Workload("suite", ((5, 1),))
        expected = run.expected_verdicts(json.loads(run.GOLDEN.read_text()), wl)
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.traced_run(wl, 7, expected)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        for name in tracer.metric_names():
            if name.endswith(".calls"):
                self.assertGreaterEqual(metrics[name]["value"], 1, name)
        self.assertLess(metrics["groebner.buchberger.distinct_share"]["value"], 1)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: m["unit"] for name, m in metrics.items()},
        )

    def test_forked_workers_are_traced(self):
        # suite-j2's pool workers inherit the wrappers and report back, so
        # its counts equal the serial suite's.
        counts = {}
        for jobs in (1, 2):
            wl = run.Workload("suite", ((5, 1),), jobs=jobs)
            expected = run.expected_verdicts(json.loads(run.GOLDEN.read_text()), wl)
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.traced_run(wl, 7, expected)
            self.assertTrue(result["correct"])
            self.assertEqual("suite.worker_utilization" in result["metrics"], jobs > 1)
            counts[jobs] = {
                name: m["value"]
                for name, m in result["metrics"].items()
                if name.endswith((".calls", "_share"))
            }
        self.assertEqual(counts[1], counts[2])


class GoldenVerdicts(unittest.TestCase):
    def test_standing_failures_are_recorded(self):
        verdicts = json.loads(run.GOLDEN.read_text())["verdicts"]
        fails = Counter(
            (v["check"], v["instance"].get("part")) for v in verdicts if v["status"] == "fail"
        )
        self.assertEqual(
            fails, {("quadbu-smooth", None): 14, ("chart-match", "linking"): 14}
        )
        self.assertEqual(len(verdicts), 375)


class BenchmarkSpec(unittest.TestCase):
    def test_workloads_and_end_to_end_metrics_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )


if __name__ == "__main__":
    unittest.main()
