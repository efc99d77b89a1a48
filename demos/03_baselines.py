"""
The unified solver against its two spectral baselines.

kkm clusters a single (uniformly averaged) kernel; mkkm learns a weighted
kernel combination but no factorization. On overlapping blobs the shared
embedding usually wins; run a few seeds and see.
"""

import numpy as np

from mvkmf import (
    KernelSpec,
    KMeansConfig,
    SolverConfig,
    build_kernel,
    evaluate,
    fit,
    fit_kkm,
    fit_mkkm,
    kmeans,
    make_synthetic,
)


def cluster(h, k, seed):
    return kmeans(h, KMeansConfig(k=k, restarts=50, seed=seed)).labels


k = 4
print(f"{'seed':>4}  {'umklmf':>8}  {'kkm':>8}  {'mkkm':>8}   (ACC)")
for seed in range(5):
    # separation 3 is deliberately hard: the blobs overlap
    feats, truth = make_synthetic(25, k, 3, separation=3.0, seed=seed)
    kernels = [build_kernel(f, KernelSpec(kind="rbf")) for f in feats]

    state = fit(kernels, SolverConfig(k=k, alpha=16.0))
    acc_u = evaluate(truth, cluster(state.H, k, seed)).acc

    mean_kernel = sum(kv.data for kv in kernels) / len(kernels)
    acc_k = evaluate(truth, cluster(fit_kkm(mean_kernel, k), k, seed)).acc

    h_m, gamma, _ = fit_mkkm(kernels, SolverConfig(k=k))
    acc_m = evaluate(truth, cluster(h_m, k, seed)).acc

    print(f"{seed:>4}  {acc_u:>8.4f}  {acc_k:>8.4f}  {acc_m:>8.4f}")
