"""Batch command line front end.

Subcommands cover the full experiment loop: build kernels from a dataset
manifest, fit one model, sweep a benchmark grid, run rank statistics on a
results table, render similarity heatmaps from stored state, trace metric
evolution per iteration, and generate synthetic datasets.

Exit codes: 0 success, 2 usage or validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
# read only by benchmarks/tracing.py (Tracer.install); ROADMAP item 5 drops both
import concurrent.futures
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as mio
from . import metrics as mmetrics
from . import stats as mstats
from .errors import BadParamError, MvkmfError, NonFiniteError
from .kernels import KernelSet, KernelSpec, validate_kernel_set
from .kmeans import KMeansConfig, kmeans
from .solver import (
    SolverConfig,
    fit,
    fit_kkm,
    fit_mkkm,
    init_point,
    init_state,
    iterate,
)

ALGORITHMS = ("umklmf", "kkm", "mkkm")
DEFAULT_ALPHAS = tuple(float(2 ** i) for i in range(10))


@dataclass(frozen=True)
class ExperimentPlan:
    manifests: tuple[Path, ...]
    algorithms: tuple[str, ...]
    alphas: tuple[float, ...]
    seeds: tuple[int, ...]
    restarts: int
    out_dir: Path
    select_metric: str = "acc"
    max_iters: int = 100
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not self.manifests:
            raise BadParamError("need at least one --manifest")
        if not self.algorithms:
            raise BadParamError("need at least one algorithm")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise BadParamError(f"unknown algorithm {a!r}")
        if not self.alphas or not all(math.isfinite(a) and a > 0
                                      for a in self.alphas):
            raise BadParamError("alpha grid values must be finite and > 0")
        if not self.seeds:
            raise BadParamError("need at least one seed")
        for what, values in (("algorithms", self.algorithms),
                             ("alphas", self.alphas), ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise BadParamError(f"duplicate {what} in {values}")
        if self.select_metric not in ("acc", "nmi", "purity", "ari"):
            raise BadParamError(f"unknown metric {self.select_metric!r}")


def _say(args, text: str) -> None:
    if not getattr(args, "quiet", False):
        print(text)


def _fname(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _g(x: float) -> str:
    return f"{x:.10g}"


def _mean_kernel(ks: KernelSet) -> np.ndarray:
    stack = [k.data for k in ks.kernels]
    return sum(stack) / len(stack)


def _cluster_h(h: np.ndarray, clusters: int, restarts: int, seed: int):
    return kmeans(h, KMeansConfig(k=clusters, restarts=restarts, seed=seed))


def _shared_part(ks: KernelSet, clusters: int, algorithm: str,
                 max_iters: int, rel_tol: float):
    """The part of a run that depends on neither alpha nor the k-means seed,
    so ``bench`` computes it once per (dataset, algorithm): the umklmf
    ``InitPoint``, the kkm embedding H, or the mkkm pair (H, gamma).

    Returns (part, seconds it took).
    """
    t0 = time.perf_counter()
    if algorithm == "umklmf":
        part = init_point(ks, clusters)
    elif algorithm == "kkm":
        part = fit_kkm(_mean_kernel(ks), clusters)
    elif algorithm == "mkkm":
        part = fit_mkkm(ks, clusters, max_iters=max_iters, rel_tol=rel_tol)
    else:
        raise BadParamError(f"unknown algorithm {algorithm!r}")
    return part, time.perf_counter() - t0


def _run_fit(manifest, ks: KernelSet, truth, algorithm: str,
             alpha: float | None, seed: int, restarts: int, max_iters: int,
             rel_tol: float, shared=None):
    """Fit one algorithm, cluster its embedding with k-means and score the
    labels: the run behind both ``fit`` and each ``bench`` cell.

    ``shared`` is the (part, seconds) pair of ``_shared_part`` for this
    dataset and algorithm; when None it is computed here, after the config
    is validated. The umklmf fit starts from the shared init point; the
    baselines' embedding is the shared part itself.

    Returns (RunRecord, (H, weights, trace, G, labels)); weights, trace and G
    are None where the algorithm has none. alpha is recorded as None for the
    baselines, which take none. The wall time is what the run costs alone:
    the shared part's seconds plus the fit and k-means.
    """
    clusters = manifest.clusters
    cfg = None
    if algorithm == "umklmf":
        if alpha is None:
            raise BadParamError("umklmf needs --alpha")
        cfg = SolverConfig(k=clusters, alpha=alpha, max_iters=max_iters,
                           rel_tol=rel_tol)
    else:
        alpha = None
    if shared is None:
        shared = _shared_part(ks, clusters, algorithm, max_iters, rel_tol)
    part, shared_seconds = shared
    weights = trace = g_list = None
    t0 = time.perf_counter()
    if cfg is not None:
        state = fit(ks, cfg, part)
        h, weights = state.H, state.omega
        trace, g_list = state.objective_trace, state.G
    elif algorithm == "mkkm":
        h, weights = part
    else:
        h = part
    labels = _cluster_h(h, clusters, restarts, seed).labels
    elapsed = shared_seconds + (time.perf_counter() - t0)
    record = mio.RunRecord(
        dataset=manifest.name,
        algorithm=algorithm,
        alpha=alpha,
        seed=seed,
        metrics=mmetrics.evaluate(truth, labels).as_dict(),
        iterations=0 if trace is None else len(trace) - 1,
        objective_final=None if trace is None else float(trace[-1]),
        wall_time_seconds=elapsed,
    )
    return record, (h, weights, trace, g_list, labels)


# ---------------------------------------------------------------------------
# kernels


def cmd_kernels(args) -> int:
    manifest = mio.load_manifest(args.manifest)
    ks, _ = mio.load_dataset(manifest)
    report = validate_kernel_set(ks)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for view, kr in zip(ks.kernels, report.views):
        mio.write_matrix(out / f"K_{_fname(view.view_name)}.mvk1", view.data)
        summary.append({
            "view": view.view_name,
            "n": view.n,
            "min_eigenvalue_estimate": kr.min_eig_estimate,
            "indefinite": kr.indefinite,
        })
        flag = " (indefinite)" if kr.indefinite else ""
        _say(args, f"view {view.view_name}: n={view.n} "
                   f"min_eig~{_g(kr.min_eig_estimate)}{flag}")
    (out / "report.json").write_text(json.dumps(
        {"dataset": manifest.name, "views": summary}, indent=2) + "\n")
    _say(args, f"wrote {len(ks.kernels)} kernel file(s) to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _write_fit_artifacts(out: Path, artifacts, view_names) -> None:
    h, weights, trace, g_list, labels = artifacts
    out.mkdir(parents=True, exist_ok=True)
    mio.write_matrix(out / "H.mvk1", h)
    mio.write_labels(out / "labels.csv", labels)
    if weights is not None:
        mio.write_matrix_csv(out / "omega.csv", np.asarray(weights)[None, :])
    if trace is not None:
        mio.write_matrix_csv(out / "objective_trace.csv",
                             np.asarray(trace)[:, None])
    if g_list is not None:
        for name, g in zip(view_names, g_list):
            mio.write_matrix(out / f"G_{_fname(name)}.mvk1", g)


def cmd_fit(args) -> int:
    manifest = mio.load_manifest(args.manifest)
    ks, truth = mio.load_dataset(manifest)
    record, artifacts = _run_fit(
        manifest, ks, truth, args.algorithm, args.alpha, args.seed,
        args.restarts, args.max_iters, args.rel_tol)

    out = Path(args.out)
    _write_fit_artifacts(out, artifacts, ks.view_names)
    mio.append_record(out / "records.jsonl", record)
    _say(args, f"{manifest.name} {record.algorithm}"
               + (f" alpha={_g(record.alpha)}" if record.alpha is not None else "")
               + f" iters={record.iterations}"
               + (f" objective={_g(record.objective_final)}"
                  if record.objective_final is not None else ""))
    _say(args, "  " + " ".join(f"{k}={_g(v)}"
                               for k, v in record.metrics.items()))
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    plan = ExperimentPlan(
        manifests=tuple(Path(m) for m in args.manifest),
        algorithms=tuple(args.algorithms.split(",")),
        alphas=tuple(float(a) for a in args.alphas.split(",")),
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        restarts=args.restarts,
        out_dir=Path(args.out),
        select_metric=args.select_metric,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
    )
    datasets = []
    for mp in plan.manifests:
        manifest = mio.load_manifest(mp)
        datasets.append((manifest, *mio.load_dataset(manifest)))
    dataset_names = [manifest.name for manifest, _, _ in datasets]
    if len(set(dataset_names)) != len(dataset_names):
        raise BadParamError("duplicate dataset names across manifests")
    # the config validators reject bad restarts, iteration caps and
    # tolerances here, before any cell runs
    for manifest, _, _ in datasets:
        KMeansConfig(k=manifest.clusters, restarts=plan.restarts)
        SolverConfig(k=manifest.clusters, alpha=plan.alphas[0],
                     max_iters=plan.max_iters, rel_tol=plan.rel_tol)

    # cells run in (dataset, algorithm, alpha, seed) order; a table entry is
    # the mean select-metric across seeds at the best alpha (by that mean)
    records = []
    n_cells = 0
    table = np.full((len(plan.manifests), len(plan.algorithms)), np.nan)
    for i, (manifest, ks, truth) in enumerate(datasets):
        for j, alg in enumerate(plan.algorithms):
            # the seed- and alpha-free part, once; one that fails fails
            # every cell that uses it, with the same error
            try:
                shared = _shared_part(ks, manifest.clusters, alg,
                                      plan.max_iters, plan.rel_tol)
            except MvkmfError as exc:
                shared = exc
            means = []
            for alpha in plan.alphas if alg == "umklmf" else (None,):
                vals = []
                for seed in plan.seeds:
                    n_cells += 1
                    try:
                        if isinstance(shared, MvkmfError):
                            raise shared
                        record, _ = _run_fit(
                            manifest, ks, truth, alg, alpha, seed,
                            plan.restarts, plan.max_iters, plan.rel_tol,
                            shared)
                    except MvkmfError as exc:
                        _say(args, f"cell failed: {manifest.name} {alg} "
                                   f"alpha={alpha} seed={seed}: {exc}")
                        continue
                    records.append(record)
                    vals.append(record.metrics[plan.select_metric])
                if vals:
                    means.append(float(np.mean(vals)))
            if means:
                table[i, j] = max(means)

    plan.out_dir.mkdir(parents=True, exist_ok=True)
    records_path = plan.out_dir / "records.jsonl"
    for record in records:
        mio.append_record(records_path, record)
    rt = mstats.ResultsTable(scores=table,
                             dataset_names=tuple(dataset_names),
                             algorithm_names=plan.algorithms)
    mstats.write_results_table(plan.out_dir / "table.csv", rt)
    _say(args, f"{len(records)}/{n_cells} cells succeeded; wrote "
               f"{plan.out_dir / 'table.csv'}")
    return 0 if records else 3


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    table = mstats.read_results_table(args.table)
    summary = mstats.friedman(table, higher_is_better=not args.lower_is_better,
                              q_alpha=args.q_alpha)
    print(f"datasets used: {summary.n_used} (dropped {summary.n_dropped} "
          f"incomplete)")
    print("mean ranks:")
    for name, rank in zip(summary.algorithm_names, summary.mean_ranks):
        print(f"  {name}: {_g(rank)}")
    print(f"chi2: {_g(summary.chi2)}")
    f_text = "inf" if summary.f_stat == float("inf") else _g(summary.f_stat)
    print(f"F: {f_text} (df1={summary.df1}, df2={summary.df2})")
    if summary.degenerate:
        print("ranks are fully degenerate; reporting p = 0")
    print(f"p: {_g(summary.p_value)}")
    print(f"CD (q_alpha={_g(args.q_alpha)}): {_g(summary.critical_difference)}")
    sig = mstats.pairwise_significance(summary)
    print("significant pairs (mean-rank gap >= CD):")
    any_pair = False
    for i in range(len(summary.algorithm_names)):
        for j in range(i + 1, len(summary.algorithm_names)):
            if sig[i, j]:
                any_pair = True
                a, b = summary.algorithm_names[i], summary.algorithm_names[j]
                gap = abs(summary.mean_ranks[i] - summary.mean_ranks[j])
                print(f"  {a} vs {b}: gap {_g(gap)}")
    if not any_pair:
        print("  none")
    return 0


# ---------------------------------------------------------------------------
# heatmap


def _emit_gram(out: Path, name: str, gram: np.ndarray, order: np.ndarray) -> None:
    ordered = gram[np.ix_(order, order)]
    mio.write_matrix_csv(out / f"{name}.csv", ordered)
    mio.write_pgm(out / f"{name}.pgm", ordered)


def cmd_heatmap(args) -> int:
    state = Path(args.state)
    h = mio.read_matrix(state / "H.mvk1")
    labels = mio.read_labels(state / "labels.csv")
    if labels.shape[0] != h.shape[1]:
        raise BadParamError("labels length disagrees with stored H columns")
    order = np.argsort(labels, kind="stable")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # similarity between samples i, j is the inner product of embedding
    # columns i and j; cluster-sorted it renders as one block per cluster
    _emit_gram(out, "H_gram", h.T @ h, order)
    for g_path in sorted(state.glob("G_*.mvk1")):
        g = mio.read_matrix(g_path)
        if g.shape[0] != labels.shape[0]:
            raise BadParamError(f"{g_path.name} row count disagrees with labels")
        _emit_gram(out, f"{g_path.stem}_gram", g @ g.T, order)
    _say(args, f"wrote heatmaps to {out}")
    return 0


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    manifest = mio.load_manifest(args.manifest)
    ks, truth = mio.load_dataset(manifest)
    if args.alpha is None:
        raise BadParamError("umklmf needs --alpha")
    cfg = SolverConfig(k=manifest.clusters, alpha=args.alpha,
                       max_iters=args.max_iters, rel_tol=args.rel_tol)

    def row(iteration: int, state) -> list:
        labeling = _cluster_h(state.H, manifest.clusters, args.restarts,
                              args.seed)
        report = mmetrics.evaluate(truth, labeling.labels)
        return [iteration, float(state.objective_trace[-1]), report.acc,
                report.nmi, report.purity, report.ari]

    state = init_state(ks, cfg)
    rows = [row(0, state)]
    for iteration, state in enumerate(iterate(ks, cfg, state), start=1):
        rows.append(row(iteration, state))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "evolve.csv"
    with path.open("w") as fh:
        fh.write("iteration,objective,acc,nmi,purity,ari\n")
        for r in rows:
            fh.write(",".join([str(r[0])] + [repr(float(v)) for v in r[1:]])
                     + "\n")
    _say(args, f"wrote {len(rows)} iteration rows to {path}")
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    feats, labels = mio.make_synthetic(
        n_per_cluster=args.per_cluster, clusters=args.clusters,
        views=args.views, separation=args.separation, noise=args.noise,
        seed=args.seed)
    spec = KernelSpec(kind=args.kernel) if args.kernel != "linear" else None
    manifest_path = mio.save_synthetic_dataset(
        Path(args.out), feats, labels, clusters=args.clusters,
        name=args.name, kernel_spec=spec, normalization=args.normalization)
    _say(args, f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", default="mvkmf-out", help="output directory")
    p.add_argument("--quiet", action="store_true",
                   help="suppress informational output")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None,
                   help="regularization weight (iterative algorithms)")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=50,
                   help="k-means restarts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvkmf",
        description="Multi-view kernel clustering via unified matrix "
                    "factorization, with baselines, metrics, and rank "
                    "statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernels", help="build and validate view kernels")
    p.add_argument("--manifest", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("fit", help="fit one algorithm on one dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="umklmf")
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bench", help="run a grid of fits and tabulate")
    p.add_argument("--manifest", action="append", required=True,
                   help="dataset manifest (repeatable)")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help="comma-separated algorithm subset")
    p.add_argument("--alphas",
                   default=",".join(str(a) for a in DEFAULT_ALPHAS),
                   help="comma-separated alpha grid")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--select-metric", default="acc",
                   choices=("acc", "nmi", "purity", "ari"),
                   help="metric used to pick the best alpha per cell")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="Friedman/Nemenyi analysis of a table")
    p.add_argument("--table", required=True, help="results CSV")
    p.add_argument("--q-alpha", type=float, default=1.96)
    p.add_argument("--lower-is-better", action="store_true",
                   help="rank smaller scores as better")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("heatmap", help="render cluster-sorted similarity maps")
    p.add_argument("--state", required=True,
                   help="directory holding H.mvk1, labels.csv, G_*.mvk1")
    _add_common(p)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("evolve", help="per-iteration metric trace of one fit")
    p.add_argument("--manifest", required=True)
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--per-cluster", type=int, default=50)
    p.add_argument("--views", type=int, default=3)
    p.add_argument("--separation", type=float, default=100.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--kernel", choices=("linear", "rbf", "polynomial"),
                   default="rbf")
    p.add_argument("--normalization", choices=("none", "cosine", "center"),
                   default="none")
    p.add_argument("--name", default="synthetic")
    _add_common(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MvkmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
