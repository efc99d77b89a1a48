"""The benchmark workloads and the checks run on every op's output.

All inputs come from ``make_synthetic`` with 4 clusters and 3 views, read
through an rbf kernel at the median-heuristic sigma; the workload seed is the
generation seed. Each workload has a ``setup`` (data generation, manifests,
a small warm-up op), an ``op`` that is timed, and a ``check`` of the op's
output that is not timed.

- fit_n2000: the library path at n=2000. ``solver.init_state`` (a full
  eigendecomposition per view) dominates, and the n x n temporaries of the
  loss set peak memory.
- bench_grid_n300: ``mvkmf bench`` over two n=300 datasets, three algorithms,
  the default alpha ladder and three seeds, then ``mvkmf stats``. Many small
  fits plus k-means under the thread pool; today ``bench`` refits the same
  model once per seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLUSTERS = 4
VIEWS = 3
CHANCE_ACC = 1.0 / CLUSTERS
MIN_ACC = 2.0 * CHANCE_ACC        # "well above chance"
TRACE_REL_SLACK = 1e-9
ORTH_TOL = 1e-8
SIMPLEX_TOL = 1e-12

BENCH_ALGORITHMS = ("umklmf", "kkm", "mkkm")
BENCH_SEEDS = (0, 1, 2)
BENCH_ALPHAS = 10                 # the CLI's default ladder 2^0 .. 2^9


@dataclass
class OpResult:
    """Outcome of one op: ``units`` attempted (1, or bench cells), how many
    of them failed a check, the mean ACC of the op's labelings, and a
    description of each failed check."""

    units: int
    failed: int = 0
    acc: float = math.nan
    failures: list[str] = field(default_factory=list)


class Checks:
    """Collects failed output checks for one op."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def trace_monotone(self, trace) -> None:
        t = np.asarray(trace, dtype=np.float64)
        steps = np.diff(t)
        slack = TRACE_REL_SLACK * np.maximum(np.abs(t[:-1]), 1.0)
        self.require(t.size >= 2 and bool(np.all(np.isfinite(t)))
                     and bool(np.all(steps <= slack)),
                     "objective trace is not finite and non-increasing")

    def simplex(self, omega) -> None:
        w = np.asarray(omega, dtype=np.float64)
        self.require(bool(np.all(w >= 0))
                     and abs(float(w.sum()) - 1.0) <= SIMPLEX_TOL,
                     f"view weights {w.tolist()} are not on the simplex")

    def orthonormal(self, H) -> None:
        err = float(np.max(np.abs(H @ H.T - np.eye(H.shape[0]))))
        self.require(err <= ORTH_TOL, f"max|HH^T - I| = {err:.3e}")

    def acc(self, value: float, where: str) -> None:
        self.require(value >= MIN_ACC,
                     f"{where}: ACC {value:.4f} is not above {MIN_ACC}")


def _synthetic(m, n: int, separation: float, seed: int):
    return m.make_synthetic(n // CLUSTERS, CLUSTERS, VIEWS,
                            separation=separation, seed=seed)


def _dataset_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _write_dataset(m, out: Path, name: str, n: int, separation: float,
                   seed: int) -> Path:
    feats, labels = _synthetic(m, n, separation, seed)
    return m.save_synthetic_dataset(out, feats, labels, clusters=CLUSTERS,
                                    name=name,
                                    kernel_spec=m.KernelSpec(kind="rbf"))


def _cli(m, argv: list[str]) -> tuple[int, str]:
    """Run ``mvkmf <argv>`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = m.cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


class Workload:
    name = ""
    samples_per_op = 0
    units_per_op = 1

    def __init__(self, m, work_dir: Path, seed: int):
        self.m = m
        self.work = work_dir
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, output, trace=None) -> OpResult:
        raise NotImplementedError


class FitN2000(Workload):
    name = "fit_n2000"
    samples_per_op = 2000
    separation = 2.5

    def setup(self) -> None:
        self.feats, self.labels = _synthetic(self.m, self.samples_per_op,
                                             self.separation, self.seed)
        self._fit(*_synthetic(self.m, 200, self.separation, self.seed))

    def _fit(self, feats, labels):
        m = self.m
        spec = m.KernelSpec(kind="rbf")
        ks = m.KernelSet(kernels=tuple(m.build_kernel(f, spec) for f in feats))
        m.validate_kernel_set(ks)
        state = m.fit(ks, m.SolverConfig(k=CLUSTERS, alpha=128.0))
        labeling = m.kmeans(state.H, m.KMeansConfig(k=CLUSTERS, restarts=50))
        report = m.evaluate(labels, labeling.labels)
        return state, report

    def op(self, index: int):
        return self._fit(self.feats, self.labels)

    def check(self, output, trace=None) -> OpResult:
        state, report = output
        c = Checks()
        c.trace_monotone(state.objective_trace)
        c.simplex(state.omega)
        c.orthonormal(state.H)
        c.acc(report.acc, "fit")
        if trace is not None:
            c.require(trace.counters["solver.iterate.iterations"]
                      == state.objective_trace.size - 1,
                      "traced iterations disagree with the objective trace")
        return OpResult(units=1, failed=int(bool(c.failures)), acc=report.acc,
                        failures=c.failures)


class BenchGridN300(Workload):
    name = "bench_grid_n300"
    samples_per_op = 600
    # every (dataset, algorithm, alpha, seed) cell; kkm and mkkm take no alpha
    units_per_op = 2 * (BENCH_ALPHAS + len(BENCH_ALGORITHMS) - 1) * len(BENCH_SEEDS)
    separation = 2.5
    n = 300

    def setup(self) -> None:
        self.manifests = [
            _write_dataset(self.m, self.work / f"data{i}", f"synth{i}",
                           self.n, self.separation, _dataset_seed(self.seed, i))
            for i in range(2)]
        # a single cell, so the warm-up runs no two cells at once
        _cli(self.m, ["bench", "--manifest", self.manifests[0],
                      "--algorithms", "kkm", "--out", self.work / "warmup",
                      "--quiet"])

    def _bench_argv(self, out: Path) -> list:
        argv = ["bench", "--algorithms", ",".join(BENCH_ALGORITHMS),
                "--seeds", ",".join(map(str, BENCH_SEEDS)),
                "--out", out, "--quiet"]
        for mp in self.manifests:
            argv += ["--manifest", mp]
        return argv

    def op(self, index: int):
        out = self.work / f"op{index}"
        rc_bench, _ = _cli(self.m, self._bench_argv(out))
        rc_stats, stats_text = _cli(self.m, ["stats", "--table",
                                             out / "table.csv"])
        return out, rc_bench, rc_stats, stats_text

    def check(self, output, trace=None) -> OpResult:
        out, rc_bench, rc_stats, stats_text = output
        expected = {(f"synth{i}", alg, a, s)
                    for i in range(len(self.manifests))
                    for alg in BENCH_ALGORITHMS
                    for a in ([float(2 ** j) for j in range(BENCH_ALPHAS)]
                              if alg == "umklmf" else [None])
                    for s in BENCH_SEEDS}
        units = len(expected)
        records = {}
        records_path = out / "records.jsonl"
        if records_path.exists():
            for line in records_path.read_text().splitlines():
                r = json.loads(line)
                records[(r["dataset"], r["algorithm"], r["alpha"],
                         r["seed"])] = r
        c = Checks()
        c.require(rc_bench == 0, f"bench exited {rc_bench}")
        c.require(rc_stats == 0 and "mean ranks:" in stats_text,
                  f"stats exited {rc_stats}")
        table_path = out / "table.csv"
        cells = []
        if table_path.exists():
            rows = table_path.read_text().splitlines()[1:]
            cells = [cell for row in rows for cell in row.split(",")[1:]]
        if c.require(len(cells) == 2 * len(BENCH_ALGORITHMS)
                     and all(cell not in ("", "-", "nan") for cell in cells),
                     f"table.csv has missing cells: {cells}"):
            for cell in cells:
                c.acc(float(cell), "best-alpha table cell")
        if trace is not None:
            c.require(trace.counters["solver.iterate.iterations"]
                      == sum(r["iterations"] for r in records.values()
                             if r["algorithm"] == "umklmf"),
                      "traced iterations disagree with the records")
        op_failed = bool(c.failures)
        bad_cells = {key for key in expected
                     if key not in records
                     or not all(math.isfinite(v)
                                for v in records[key]["metrics"].values())
                     or (key[1] == "umklmf"
                         and records[key]["iterations"] < 1)}
        extra = len(records.keys() - expected)
        c.require(not bad_cells and not extra,
                  f"{len(bad_cells)} of {units} cells missing or invalid, "
                  f"{extra} unexpected records")
        # a check that fails for the op as a whole fails every cell of it
        failed = units if op_failed else min(units, len(bad_cells) + extra)
        accs = [r["metrics"]["acc"] for r in records.values()]
        return OpResult(units=units, failed=failed,
                        acc=float(np.mean(accs)) if accs else math.nan,
                        failures=c.failures)


WORKLOADS = {w.name: w for w in (FitN2000, BenchGridN300)}
