"""Batch command line front end.

Subcommands cover the full experiment loop: build kernels from a dataset
manifest, fit one model, sweep a benchmark grid, run rank statistics on a
results table, render similarity heatmaps from stored state, trace metric
evolution per iteration, and generate synthetic datasets.

Exit codes: 0 success, 2 usage or validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
# read only by benchmarks/tracing.py (Tracer.install); ROADMAP item 1 drops both
import concurrent.futures
import json
import re
import sys
import time
from dataclasses import fields, replace
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
    fit_mkkm,
    init_point,
    iterate,
)

ALGORITHMS = ("umklmf", "kkm", "mkkm")
DEFAULT_ALPHAS = tuple(float(2 ** i) for i in range(10))
METRICS = tuple(f.name for f in fields(mmetrics.MetricReport))


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _view_files(prefix: str, view_names) -> list[str]:
    """One file name per view: ``<prefix>_<name>.mvk1``, where each run of
    characters outside ``[A-Za-z0-9._-]`` in the name becomes ``_``. Raises
    ``BadParamError`` when two views map to the same file, so that neither
    overwrites the other."""
    owner: dict[str, str] = {}
    for name in view_names:
        path = f"{prefix}_{re.sub(r'[^A-Za-z0-9._-]+', '_', name)}.mvk1"
        if path in owner:
            raise BadParamError(f"views {owner[path]!r} and {name!r} would "
                                f"both be written to {path}; rename one")
        owner[path] = name
    return list(owner)


def _g(x: float) -> str:
    return f"{x:.10g}"


def _configs(args, algorithm: str, clusters: int, alpha: float | None,
             seed: int) -> tuple[SolverConfig, KMeansConfig]:
    """The validated (solver, k-means) configs of one run, from ``args``'
    ``--max-iters``, ``--rel-tol`` and ``--restarts``: the one place the
    CLI builds either config, so ``fit``, ``evolve`` and every ``bench``
    cell run under the same checks, mkkm's iterations included. Only
    umklmf takes alpha; a baseline ignores the one it is given."""
    if algorithm != "umklmf":
        alpha = SolverConfig.alpha
    elif alpha is None:
        raise BadParamError("umklmf needs --alpha")
    return (SolverConfig(k=clusters, alpha=alpha, max_iters=args.max_iters,
                         rel_tol=args.rel_tol),
            KMeansConfig(k=clusters, restarts=args.restarts, seed=seed))


def _start(ks: KernelSet, cfg: SolverConfig):
    """The start H of ``init_point``, which every algorithm shares, and the
    seconds it took: (H, seconds). So ``bench`` computes it once per
    dataset."""
    t0 = time.perf_counter()
    return init_point(ks, cfg.k), time.perf_counter() - t0


def _shared_part(ks: KernelSet, algorithm: str, cfg: SolverConfig, start):
    """The part of a run that depends on neither alpha nor the k-means
    seed, from the dataset's ``start`` pair of ``_start``, as a triple
    (H, weights, trace): for umklmf and kkm the start H, which umklmf starts
    from and kkm returns as its embedding, with weights and trace None; for
    mkkm its fit (H, gamma, trace) from that H. So ``bench`` computes it
    once per dataset for umklmf and kkm together, and once per dataset for
    mkkm.

    Returns (part, seconds it took with the start's).
    """
    H, seconds = start
    if algorithm != "mkkm":
        return (H, None, None), seconds
    t0 = time.perf_counter()
    part = fit_mkkm(ks, cfg, H)
    return part, seconds + time.perf_counter() - t0


def _run_fit(manifest, ks: KernelSet, truth, algorithm: str, configs,
             shared):
    """Fit one algorithm, cluster its embedding with k-means and score the
    labels: the run behind both ``fit`` and each ``bench`` cell.

    ``configs`` is the run's pair from ``_configs`` and ``shared`` the
    (part, seconds) pair of ``_shared_part`` for this dataset and
    algorithm. The umklmf fit starts from the part's H; a baseline's
    (H, weights, trace) is the part itself.

    Returns (RunRecord, (H, weights, trace, G, labels)); weights, trace and G
    are None where the algorithm has none. alpha is recorded as None for the
    baselines, which take none. The wall time is what the run costs alone:
    the shared part's seconds plus the fit and k-means.
    """
    cfg, km_cfg = configs
    part, shared_seconds = shared
    h, weights, trace = part
    g_list = None
    t0 = time.perf_counter()
    if algorithm == "umklmf":
        state = fit(ks, cfg, h)
        h, weights = state.H, state.omega
        trace, g_list = state.objective_trace, state.G
    labels = kmeans(h, km_cfg).labels
    elapsed = shared_seconds + (time.perf_counter() - t0)
    record = mio.RunRecord(
        dataset=manifest.name,
        algorithm=algorithm,
        alpha=cfg.alpha if algorithm == "umklmf" else None,
        seed=km_cfg.seed,
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
    files = _view_files("K", ks.view_names)
    verdicts = validate_kernel_set(ks)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for view, indefinite, file in zip(ks.kernels, verdicts, files):
        mio.write_matrix(out / file, view.data)
        summary.append({
            "view": view.view_name,
            "n": view.n,
            "indefinite": indefinite,
        })
        verdict = "(indefinite)" if indefinite else "psd"
        _say(args, f"view {view.view_name}: n={view.n} {verdict}")
    (out / "report.json").write_text(json.dumps(
        {"dataset": manifest.name, "views": summary}, indent=2) + "\n")
    _say(args, f"wrote {len(ks.kernels)} kernel file(s) to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _write_fit_artifacts(out: Path, artifacts, g_files) -> None:
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
        for file, g in zip(g_files, g_list):
            mio.write_matrix(out / file, g)


def cmd_fit(args) -> int:
    manifest = mio.load_manifest(args.manifest)
    configs = _configs(args, args.algorithm, manifest.clusters, args.alpha,
                       args.seed)
    ks, truth = mio.load_dataset(manifest)
    g_files = _view_files("G", ks.view_names)
    record, artifacts = _run_fit(
        manifest, ks, truth, args.algorithm, configs,
        _shared_part(ks, args.algorithm, configs[0], _start(ks, configs[0])))

    out = Path(args.out)
    _write_fit_artifacts(out, artifacts, g_files)
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


def _grid(flag: str, text: str, parse) -> tuple:
    """The comma-separated values of grid flag ``flag``, each read by
    ``parse``; a value it cannot read, or one that repeats, is a usage error
    naming both."""
    values = []
    for value in text.split(","):
        try:
            parsed = parse(value)
        except ValueError:
            raise BadParamError(f"{flag}: cannot read {value!r} in "
                                f"{text!r}") from None
        if parsed in values:
            raise BadParamError(f"{flag}: {value!r} repeats in {text!r}")
        values.append(parsed)
    return tuple(values)


def _algorithm(name: str) -> str:
    if name not in ALGORITHMS:
        raise ValueError(name)
    return name


def cmd_bench(args) -> int:
    algorithms = _grid("--algorithms", args.algorithms, _algorithm)
    alphas = _grid("--alphas", args.alphas, float)
    seeds = _grid("--seeds", args.seeds, int)
    manifests = [mio.load_manifest(mp) for mp in args.manifest]
    dataset_names = [manifest.name for manifest in manifests]
    if len(set(dataset_names)) != len(dataset_names):
        raise BadParamError("duplicate dataset names across manifests")
    # every cell's configs, before any data is read, in (dataset, algorithm,
    # alpha, seed) order; only umklmf cells take an alpha, so only they
    # check the alpha grid
    cells = [(i, j, alpha, seed,
              _configs(args, alg, manifest.clusters, alpha, seed))
             for i, manifest in enumerate(manifests)
             for j, alg in enumerate(algorithms)
             for alpha in (alphas if alg == "umklmf" else (None,))
             for seed in seeds]
    datasets = [(manifest, *mio.load_dataset(manifest))
                for manifest in manifests]

    # a table entry is the mean select-metric across seeds at the best alpha
    # (by that mean)
    records = []
    scores: dict[tuple, list[float]] = {}
    parts: dict[object, object] = {}

    def once(key, compute):
        # one that fails fails every cell that uses it, with the same error
        if key not in parts:
            try:
                parts[key] = compute()
            except MvkmfError as exc:
                parts[key] = exc
        if isinstance(parts[key], MvkmfError):
            raise parts[key]
        return parts[key]

    for i, j, alpha, seed, configs in cells:
        (manifest, ks, truth), alg = datasets[i], algorithms[j]
        # the seed- and alpha-free parts: one start per dataset, and from it
        # one part for umklmf and kkm together and one for mkkm
        try:
            shared = once((i, alg == "mkkm"), lambda: _shared_part(
                ks, alg, configs[0], once(i, lambda: _start(ks, configs[0]))))
            record, _ = _run_fit(manifest, ks, truth, alg, configs, shared)
        except MvkmfError as exc:
            # on stderr, so that --quiet does not hide it
            print(f"cell failed: {manifest.name} {alg} alpha={alpha} "
                  f"seed={seed}: {exc}", file=sys.stderr)
            continue
        records.append(record)
        scores.setdefault((i, j, alpha), []).append(
            record.metrics[args.select_metric])
    table = np.full((len(manifests), len(algorithms)), np.nan)
    for (i, j, _), vals in scores.items():
        table[i, j] = np.fmax(table[i, j], np.mean(vals))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.jsonl"
    for record in records:
        mio.append_record(records_path, record)
    rt = mstats.ResultsTable(scores=table,
                             dataset_names=tuple(dataset_names),
                             algorithm_names=algorithms)
    mstats.write_results_table(out / "table.csv", rt)
    _say(args, f"{len(records)}/{len(cells)} cells succeeded; wrote "
               f"{out / 'table.csv'}")
    return 0 if records else 3


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    table = mstats.read_results_table(args.table)
    q_alpha = args.q_alpha
    if q_alpha is None:
        q_alpha = mstats.nemenyi_q(len(table.algorithm_names))
    summary = mstats.friedman(table, higher_is_better=not args.lower_is_better,
                              q_alpha=q_alpha)
    print(f"datasets used: {summary.n_used} (dropped {summary.n_dropped} "
          f"incomplete)")
    print("mean ranks:")
    for name, rank in zip(summary.algorithm_names, summary.mean_ranks):
        print(f"  {name}: {_g(rank)}")
    print(f"chi2: {_g(summary.chi2)}")
    f_text = "inf" if summary.f_stat == float("inf") else _g(summary.f_stat)
    print(f"F: {f_text} (df1={summary.df1}, df2={summary.df2})")
    if summary.degenerate:
        print("every dataset ranks the algorithms the same way; p is exact")
    print(f"p: {_g(summary.p_value)}")
    print(f"CD (q_alpha={_g(q_alpha)}): {_g(summary.critical_difference)}")
    n, k = summary.n_used, len(summary.algorithm_names)
    floor = mstats.smallest_p(n, k)
    if floor > 0.05:
        print(f"too few datasets: the smallest p that {n} datasets and {k} "
              f"algorithms can reach is {_g(floor)} > 0.05")
    if k - 1 < summary.critical_difference:
        print(f"too few datasets: the largest possible mean-rank gap, {k - 1}, "
              "is below the CD")
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
    # the PGM first: it refuses a non-finite map before either file exists
    mio.write_pgm(out / f"{name}.pgm", ordered)
    mio.write_matrix_csv(out / f"{name}.csv", ordered)


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
    # both configs are validated before the data is read and the fit starts
    cfg, km_cfg = _configs(args, "umklmf", manifest.clusters, args.alpha,
                           args.seed)
    ks, truth = mio.load_dataset(manifest)

    # the start (a fit of 0 iterations) and then each iteration's state,
    # all from one start
    point = init_point(ks, cfg.k)
    states = [fit(ks, replace(cfg, max_iters=0), point),
              *iterate(ks, cfg, point)]
    rows = []
    for iteration, state in enumerate(states):
        report = mmetrics.evaluate(truth, kmeans(state.H, km_cfg).labels)
        rows.append([iteration, float(state.objective_trace[-1]),
                     *report.as_dict().values()])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "evolve.csv"
    with path.open("w") as fh:
        fh.write(",".join(("iteration", "objective", *METRICS)) + "\n")
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


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="mvkmf-out", help="output directory")
    p.add_argument("--quiet", action="store_true",
                   help="suppress informational output")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags ``_configs`` reads, shared by fit, evolve and bench, with
    the configs' own defaults."""
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                   help="solver iteration cap (umklmf and mkkm)")
    p.add_argument("--rel-tol", type=float, default=SolverConfig.rel_tol,
                   help="stopping tolerance on the relative eigen-residual "
                        "(umklmf and mkkm)")
    p.add_argument("--restarts", type=int, default=KMeansConfig.restarts,
                   help="k-means restarts")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None,
                   help="regularization weight (umklmf only)")
    p.add_argument("--seed", type=int, default=0, help="k-means seed")
    _add_run_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvkmf",
        description="Multi-view kernel clustering via unified matrix "
                    "factorization, with baselines, metrics, and rank "
                    "statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernels", help="build and validate view kernels")
    p.add_argument("--manifest", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("fit", help="fit one algorithm on one dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="umklmf")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_fit)

    # no abbreviated flags, so that a stray --seed is an error rather than
    # a silent --seeds
    p = sub.add_parser("bench", help="run a grid of fits and tabulate",
                       allow_abbrev=False)
    p.add_argument("--manifest", action="append", required=True,
                   help="dataset manifest (repeatable)")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help="comma-separated algorithm subset")
    p.add_argument("--alphas",
                   default=",".join(str(a) for a in DEFAULT_ALPHAS),
                   help="comma-separated alpha grid")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--select-metric", default="acc", choices=METRICS,
                   help="metric used to pick the best alpha per cell")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="Friedman/Nemenyi analysis of a table")
    p.add_argument("--table", required=True, help="results CSV")
    p.add_argument("--q-alpha", type=float, default=None,
                   help="Nemenyi q (default: the alpha = 0.05 value for the "
                        "table's number of algorithms)")
    p.add_argument("--lower-is-better", action="store_true",
                   help="rank smaller scores as better")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("heatmap", help="render cluster-sorted similarity maps")
    p.add_argument("--state", required=True,
                   help="directory holding H.mvk1, labels.csv, G_*.mvk1")
    _add_output_flags(p)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("evolve", help="per-iteration metric trace of one fit")
    p.add_argument("--manifest", required=True)
    _add_solver_flags(p)
    _add_output_flags(p)
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
    p.add_argument("--seed", type=int, default=0, help="data RNG seed")
    _add_output_flags(p)
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
