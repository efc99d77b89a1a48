"""mvkmf benchmark: one workload per process, one client in a closed loop.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload fit_n2000 --seed 1 --seconds 40 --trace 0

It imports the package from ``src/`` of the checkout, generates the
workload's inputs from ``--seed``, runs ops back to back for ``--seconds``
(at least one op), checks every op's output, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
line before it is a JSON report with quartiles, op count, failed checks and
the machine's thread and BLAS settings.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
installs span tracing (see ``tracing.py``) and reports the per-layer metrics
in ``PER_LAYER``; the spans themselves go to ``.bench_work/`` in the
checkout. Thread settings (``MVKMF_THREADS``, BLAS variables) are read and
reported, never set: the program is measured as shipped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, OpResult

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
THREAD_VARS = ("MVKMF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Per-layer metrics from the traced run: name, unit, better, and the
# end-to-end metric and workload the layer should move. A name is
# <span>.calls, <span>.self_s, <layer>.self_s (summed over the layer's spans)
# or a counter recorded by the tracer. Times are per op, averaged over the
# traced ops; counts are per op and must repeat exactly.
PER_LAYER = [
    ("kernels.build_kernel.calls", "count", "lower", "op_p50_s on fit_n2000"),
    ("kernels.build_kernel.self_s", "s", "lower", "op_p50_s on fit_n2000"),
    ("kernels.validate_kernel_set.self_s", "s", "lower",
     "op_p50_s on fit_n2000"),
    ("io.load_dataset.self_s", "s", "lower", "none today"),
    ("io.read_matrix.bytes", "B", "lower", "none today"),
    ("io.append_record.calls", "count", "lower", "none today"),
    ("solver.init_state.calls", "count", "lower",
     "op_p50_s on fit_n2000 and bench_grid_n300"),
    ("solver.init_state.self_s", "s", "lower",
     "op_p50_s on fit_n2000 and bench_grid_n300"),
    ("solver.update_g.self_s", "s", "lower",
     "op_p50_s on bench_grid_n300, peak_rss_mb on fit_n2000"),
    ("solver.update_h.self_s", "s", "lower",
     "op_p50_s on bench_grid_n300, peak_rss_mb on fit_n2000"),
    ("solver.per_view_loss.self_s", "s", "lower",
     "op_p50_s on bench_grid_n300, peak_rss_mb on fit_n2000"),
    ("solver.update_weights.self_s", "s", "lower",
     "op_p50_s on bench_grid_n300, peak_rss_mb on fit_n2000"),
    ("solver.iterate.iterations", "count", "lower",
     "none: must not change under a numerical rewrite"),
    ("solver.fit.calls", "count", "lower",
     "op_p50_s and cpu_s_per_op on bench_grid_n300"),
    ("solver.fit.self_s", "s", "lower",
     "op_p50_s and cpu_s_per_op on bench_grid_n300"),
    ("solver.fit.useful_ratio", "ratio", "higher",
     "op_p50_s and cpu_s_per_op on bench_grid_n300"),
    ("solver.fit_kkm.self_s", "s", "lower", "op_p50_s on bench_grid_n300"),
    ("solver.fit_mkkm.self_s", "s", "lower", "op_p50_s on bench_grid_n300"),
    ("kmeans.kmeans.calls", "count", "lower", "op_p50_s on bench_grid_n300"),
    ("kmeans.kmeans.self_s", "s", "lower", "op_p50_s on bench_grid_n300"),
    ("kmeans.restarts", "count", "lower", "op_p50_s on bench_grid_n300"),
    ("metrics.evaluate.self_s", "s", "lower", "none today (milliseconds)"),
    ("stats.friedman.self_s", "s", "lower", "none today (milliseconds)"),
    ("cli.bench.self_s", "s", "lower",
     "op_p50_s and cpu_s_per_op on bench_grid_n300"),
    ("cli.bench.queue_wait_s", "s", "lower",
     "op_p50_s and cpu_s_per_op on bench_grid_n300"),
    ("cli.bench.workers", "count", "higher",
     "op_p50_s and cpu_s_per_op on bench_grid_n300"),
    ("kernels.self_s", "s", "lower", "op_p50_s on fit_n2000"),
    ("io.self_s", "s", "lower", "none today"),
    ("solver.self_s", "s", "lower", "op_p50_s on both workloads"),
    ("kmeans.self_s", "s", "lower", "op_p50_s on bench_grid_n300"),
    ("metrics.self_s", "s", "lower", "none today"),
    ("stats.self_s", "s", "lower", "none today"),
    ("cli.self_s", "s", "lower", "op_p50_s on bench_grid_n300"),
    ("trace.op_p50_s", "s", "lower",
     "none: traced op time, against op_p50_s untraced it is the overhead"),
]

# span name behind a metric name that differs from it
SPAN_OF = {"cli.bench": "cli.cmd_bench"}


@dataclass
class OpRecord:
    wall_s: float
    cpu_s: float
    result: object                # workloads.OpResult
    layer: dict | None = None     # per-layer values of a traced op


def layer_values(trace) -> dict[str, float]:
    """Per-layer metric values of one traced op (all but trace.op_p50_s)."""
    totals = trace.totals()
    out = {}
    for name, *_ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name == "trace.op_p50_s":
            continue
        if name == "solver.fit.useful_ratio":
            calls = totals.get("solver.fit", {}).get("calls", 0)
            out[name] = (trace.counters["solver.fit.distinct"] / calls
                         if calls else 0.0)
        elif base in LAYERS and kind == "self_s":
            out[name] = sum(v["self_s"] for k, v in totals.items()
                            if k.startswith(base + "."))
        elif kind in ("calls", "self_s"):
            out[name] = totals.get(SPAN_OF.get(base, base), {}).get(kind, 0)
        else:
            out[name] = trace.counters[name]
    return out


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(ops: list[OpRecord], setup_s: float, samples_per_op: int,
              peak_rss_mb: float, trace: bool) -> tuple[dict, dict]:
    """(result line, report) for a finished run. A failed check or a failed
    op counts against the units (ops, or bench cells) attempted."""
    attempted = sum(op.result.units for op in ops)
    failed = sum(op.result.failed for op in ops)
    walls = [op.wall_s for op in ops]
    report = {
        "ops": len(ops),
        "op_s_quartiles": quartiles(walls),
        "cpu_s_quartiles": quartiles([op.cpu_s for op in ops]),
        "failures": [f for op in ops for f in op.result.failures][:20],
    }
    if trace:
        values = {}
        for name, unit, *_ in PER_LAYER:
            if name == "trace.op_p50_s":
                values[name] = statistics.median(walls)
                continue
            per_op = [op.layer[name] for op in ops]
            if unit == "s":
                values[name] = statistics.fmean(per_op)
            else:
                values[name] = per_op[0]
                if any(v != per_op[0] for v in per_op):
                    report["failures"].append(f"count {name} differs "
                                              f"across ops: {per_op}")
                    failed += 1
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        accs = [op.result.acc for op in ops if math.isfinite(op.result.acc)]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "samples_per_s": {"value": samples_per_op * len(ops) / sum(walls),
                              "unit": "1/s"},
            "cpu_s_per_op": {"value": statistics.median(
                [op.cpu_s for op in ops]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "acc_mean": {"value": statistics.fmean(accs) if accs else 0.0,
                         "unit": "ratio"},
        }
    report["error_rate"] = failed / attempted
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, report


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(args) -> int:
    if not (ROOT / "src" / "mvkmf" / "__init__.py").is_file():
        print(f"error: no mvkmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mvkmf
    import mvkmf.cli

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](mvkmf, work, args.seed)
    # each set-up: a fresh interpreter importing the package, then the
    # workload's data, manifests and warm-up op
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, "
                        f"{str(ROOT / 'src')!r}); import mvkmf.cli"],
                       check=True)
        import_s = time.perf_counter() - t
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t = time.perf_counter()
        workload.setup()
        setup_times.append(import_s + time.perf_counter() - t)
    setup_s = statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ops: list[OpRecord] = []
    spans = []
    start = time.perf_counter()
    try:
        while not ops or time.perf_counter() - start < args.seconds:
            index = len(ops)
            cpu0, t = time.process_time(), time.perf_counter()
            try:
                output = workload.op(index)
                error = None
            except Exception:
                error = traceback.format_exc()
            wall, cpu = time.perf_counter() - t, time.process_time() - cpu0
            op_trace = tracer.take() if tracer is not None else None
            if error is None:
                try:
                    result = workload.check(output, op_trace)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                print(error, file=sys.stderr)
                result = OpResult(units=workload.units_per_op,
                                  failed=workload.units_per_op,
                                  failures=[error.strip().splitlines()[-1]])
            record = OpRecord(wall, cpu, result)
            if op_trace is not None:
                record.layer = layer_values(op_trace)
                spans.append([[s.name, s.parent, s.thread, s.start, s.end]
                              for s in op_trace.spans])
            ops.append(record)
            shutil.rmtree(work / f"op{index}", ignore_errors=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    line, report = summarize(ops, setup_s, workload.samples_per_op,
                             peak_rss_mb, bool(args.trace))
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, setup_runs_s=setup_times,
                  environment=environment())
    if spans:
        spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "parent", "thread", "start", "end"],
             "ops": spans}))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
