"""Self-tests of the benchmark harness: self-time arithmetic, the tracer's
installation, and the rule that a failed check raises the error rate.

Run from the root of a source checkout:

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mvkmf  # noqa: E402
import run  # noqa: E402
from tracing import OpTrace, Span, Tracer, self_times, union_length  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_ALGORITHMS, BENCH_SEEDS, BenchGridN300, Checks, OpResult,
)


class SelfTimeTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(0, 1), (2, 4)]), 3.0)
        self.assertEqual(union_length([(0, 3), (1, 2), (2, 5)]), 5.0)
        self.assertEqual(union_length([(1, 1), (3, 2)]), 0.0)

    def test_sequential_children(self):
        spans = [Span("a", None, 1, 0.0, 10.0),
                 Span("b", 0, 1, 1.0, 3.0),
                 Span("c", 0, 1, 4.0, 8.0),
                 Span("d", 2, 1, 5.0, 6.0)]
        # a: 10 - (2 + 4); c: 4 - 1; the grandchild d only reduces c
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_in_other_threads(self):
        spans = [Span("bench", None, 1, 0.0, 10.0),
                 Span("fit", 0, 2, 1.0, 6.0),
                 Span("fit", 0, 3, 2.0, 7.0),
                 Span("fit", 0, 2, 9.0, 12.0)]
        # covered: [1, 7] plus [9, 10] clipped to the parent = 7
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_totals_per_name(self):
        spans = [Span("a", None, 1, 0.0, 4.0), Span("b", 0, 1, 1.0, 2.0),
                 Span("b", 0, 1, 2.0, 3.5)]
        totals = OpTrace(spans, Counter()).totals()
        self.assertEqual(totals["a"], {"calls": 1, "self_s": 1.5})
        self.assertEqual(totals["b"], {"calls": 2, "self_s": 2.5})


class TracerTest(unittest.TestCase):
    def test_spans_and_counts_of_one_fit(self):
        feats, labels = mvkmf.make_synthetic(10, 4, 3, separation=6.0, seed=3)
        ks = mvkmf.KernelSet(kernels=tuple(
            mvkmf.build_kernel(f, mvkmf.KernelSpec(kind="rbf")) for f in feats))
        original = mvkmf.solver.update_g
        tracer = Tracer()
        tracer.install()
        try:
            state = mvkmf.fit(ks, mvkmf.SolverConfig(k=4, alpha=8.0))
            mvkmf.kmeans(state.H, mvkmf.KMeansConfig(k=4, restarts=7))
        finally:
            tracer.uninstall()
        self.assertIs(mvkmf.solver.update_g, original)
        trace = tracer.take()
        totals = trace.totals()
        iterations = state.objective_trace.size - 1
        self.assertEqual(totals["solver.fit"]["calls"], 1)
        self.assertEqual(totals["solver.init_state"]["calls"], 1)
        self.assertEqual(totals["solver.update_g"]["calls"], 3 * iterations)
        self.assertEqual(trace.counters["solver.iterate.iterations"], iterations)
        self.assertEqual(trace.counters["kmeans.restarts"], 7)
        self.assertEqual(trace.counters["solver.fit.distinct"], 1)
        self.assertNotIn("solver.init_g", totals)
        names = [s.name for s in trace.spans]
        for s in trace.spans:
            if s.name == "solver.update_g":
                self.assertEqual(names[s.parent], "solver.iterate")
        self.assertTrue(all(t >= 0 for t in
                            (v["self_s"] for v in totals.values())))


def _op(units=1, failed=0, failures=()):
    return run.OpRecord(wall_s=1.0, cpu_s=1.0,
                        result=OpResult(units=units, failed=failed, acc=0.9,
                                        failures=list(failures)))


class ErrorRateTest(unittest.TestCase):
    def test_failed_check_raises_error_rate(self):
        c = Checks()
        c.trace_monotone([3.0, 2.0, 2.5])
        c.simplex([0.5, 0.6])
        c.orthonormal(np.array([[1.0, 0.0], [0.0, 2.0]]))
        c.acc(0.25, "op")
        self.assertEqual(len(c.failures), 4)
        ops = [_op(), _op(failed=1, failures=c.failures)]
        line, report = run.summarize(ops, 1.0, 10, 100.0, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (2, 1))
        self.assertEqual(report["error_rate"], 0.5)

    def test_clean_run(self):
        line, report = run.summarize([_op(), _op()], 1.0, 10, 100.0,
                                     trace=False)
        self.assertTrue(line["correct"])
        self.assertEqual(report["error_rate"], 0.0)
        self.assertEqual(set(line["metrics"]),
                         {"setup_s", "op_p50_s", "samples_per_s",
                          "cpu_s_per_op", "peak_rss_mb", "acc_mean"})

    def test_count_that_differs_across_traced_ops_fails(self):
        ops = [_op(), _op()]
        for i, op in enumerate(ops):
            op.layer = {name: 1.0 for name, *_ in run.PER_LAYER}
            op.layer["kmeans.restarts"] = 50 + i
        line, report = run.summarize(ops, 1.0, 10, 100.0, trace=True)
        self.assertEqual(line["failed"], 1)
        self.assertEqual(report["error_rate"], 0.5)
        self.assertEqual(set(line["metrics"]),
                         {name for name, *_ in run.PER_LAYER})


class BenchCheckTest(unittest.TestCase):
    """A missing cell fails that cell; a failed op-level check fails all."""

    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        self.workload = BenchGridN300(mvkmf, self.dir, 0)
        self.workload.manifests = [self.dir / "m0", self.dir / "m1"]
        records = []
        for d in ("synth0", "synth1"):
            for alg in BENCH_ALGORITHMS:
                alphas = ([float(2 ** j) for j in range(10)]
                          if alg == "umklmf" else [None])
                for a in alphas:
                    for s in BENCH_SEEDS:
                        records.append({
                            "dataset": d, "algorithm": alg, "alpha": a,
                            "seed": s, "iterations": 5,
                            "metrics": {"acc": 0.9, "nmi": 0.8,
                                        "purity": 0.9, "ari": 0.8}})
        self.records = records
        (self.dir / "table.csv").write_text(
            "dataset,umklmf,kkm,mkkm\nsynth0,0.9,0.9,0.9\nsynth1,0.9,0.9,0.9\n")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def _check(self, records, rc_stats=0):
        (self.dir / "records.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        return self.workload.check((self.dir, 0, rc_stats, "mean ranks:\n"))

    def test_complete_output_passes(self):
        result = self._check(self.records)
        self.assertEqual((result.units, result.failed), (72, 0))
        self.assertEqual(self.workload.units_per_op, 72)

    def test_missing_cell_counts_once(self):
        result = self._check(self.records[1:])
        self.assertEqual((result.units, result.failed), (72, 1))

    def test_failed_stats_fails_every_cell(self):
        result = self._check(self.records, rc_stats=2)
        self.assertEqual((result.units, result.failed), (72, 72))


if __name__ == "__main__":
    unittest.main()
