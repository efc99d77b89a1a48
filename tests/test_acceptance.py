"""Release gate: ten numbered checks printed one line each.

Every check pins a contract the rest of the package is allowed to rely on:
closed-form statistics anchors, solver monotonicity/convergence/invariants,
optimality of each block update, end-to-end recovery, metric oracles,
baseline sanity, and per-iteration scaling. Tolerances are fixed here on
purpose; loosening them is a behavior change, not a test fix.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mvkmf.io import make_synthetic
from mvkmf.kernels import KernelMatrix, KernelSpec, build_kernel
from mvkmf.kmeans import KMeansConfig, kmeans
from mvkmf.metrics import accuracy, ari, evaluate
from mvkmf.solver import (
    SolverConfig,
    fit_kkm,
    fit_mkkm,
    iterate,
    per_view_loss,
    update_g,
    update_h,
    update_weights,
)
from mvkmf.stats import f_survival, friedman, nemenyi_cd
from mvkmf.stats import ResultsTable

from conftest import blob_kernels, random_orthonormal_rows, random_psd_kernel


@pytest.fixture
def announce(capsys):
    """One durable line per criterion, printed outside pytest's capture."""

    def _announce(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[acceptance {num:02d}] {verdict} {detail}", flush=True)

    return _announce


# ---------------------------------------------------------------------------
# shared solver runs: 20 seeded instances x alpha in {1, 2^4, 2^7}
# (n = 60 samples, V = 3 views, k = 4 clusters)


@pytest.fixture(scope="module")
def instance_runs():
    t0 = time.perf_counter()
    runs = []
    worst_orth = 0.0
    worst_simplex = 0.0
    for seed in range(20):
        ks, _ = blob_kernels(seed, n_per=15, clusters=4, views=3,
                             separation=6.0, kind="linear")
        for alpha in (1.0, 2.0 ** 4, 2.0 ** 7):
            cfg = SolverConfig(k=4, alpha=alpha, max_iters=100)
            iterations = 0
            for state in iterate(ks, cfg):
                iterations += 1
                h_err = float(np.max(np.abs(state.H @ state.H.T - np.eye(4))))
                s_err = abs(float(state.omega.sum()) - 1.0)
                worst_orth = max(worst_orth, h_err)
                worst_simplex = max(worst_simplex, s_err)
            runs.append({
                "seed": seed,
                "alpha": alpha,
                "trace": state.objective_trace,
                "iterations": iterations,
            })
    return {
        "runs": runs,
        "worst_orth": worst_orth,
        "worst_simplex": worst_simplex,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# 1. critical difference anchor


def test_criterion_01_nemenyi_cd(announce):
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        value = nemenyi_cd(9, 10, 1.96)
        best = min(best, time.perf_counter() - t0)
    ok = abs(value - 2.4004) <= 1e-4 and best < 1e-3
    announce(1, ok, f"nemenyi_cd(9,10,1.96) = {value:.10g} "
                    f"(target 2.4004 +/- 1e-4, {best * 1e6:.0f} us)")
    assert abs(value - 2.4004) <= 1e-4
    assert best < 1e-3


# ---------------------------------------------------------------------------
# 2. Friedman degrees of freedom and F tail anchor


def test_criterion_02_friedman_df_and_p(announce):
    rng = np.random.default_rng(0)
    table = ResultsTable(
        scores=rng.random((10, 9)),
        dataset_names=tuple(f"d{i}" for i in range(10)),
        algorithm_names=tuple(f"a{j}" for j in range(9)),
    )
    summary = friedman(table)
    t0 = time.perf_counter()
    p = f_survival(5.4540, 8, 72)
    elapsed = time.perf_counter() - t0
    ok = (summary.df1 == 8 and summary.df2 == 72
          and abs(p - 2.2051e-5) <= 2e-6 and elapsed < 1.0)
    announce(2, ok, f"df=({summary.df1},{summary.df2}) want (8,72); "
                    f"sf(5.4540;8,72) = {p:.6g} (target 2.2051e-5 +/- 2e-6)")
    assert summary.df1 == 8
    assert summary.df2 == 72
    assert abs(p - 2.2051e-5) <= 2e-6
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. objective monotonicity on the shared instances


def test_criterion_03_objective_monotone(instance_runs, announce):
    worst_step = max(float(np.max(np.diff(r["trace"])))
                     for r in instance_runs["runs"])
    elapsed = instance_runs["elapsed"]
    ok = worst_step <= 1e-9 and elapsed < 10.0
    announce(3, ok, f"60 runs: worst trace step {worst_step:.3e} "
                    f"(slack 1e-9), wall {elapsed:.2f} s (< 10 s)")
    assert worst_step <= 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4. convergence speed on the shared instances


def test_criterion_04_convergence_within_30(instance_runs, announce):
    worst_iters = 0
    worst_rel = 0.0
    for r in instance_runs["runs"]:
        tr = r["trace"]
        rel = abs(float(tr[-2] - tr[-1])) / max(abs(float(tr[-2])), 1e-12)
        worst_iters = max(worst_iters, r["iterations"])
        worst_rel = max(worst_rel, rel)
    ok = worst_iters <= 30 and worst_rel < 1e-6
    announce(4, ok, f"worst {worst_iters} iterations to rel change < 1e-6 "
                    f"(max final rel {worst_rel:.2e}, limit 30)")
    assert worst_iters <= 30
    assert worst_rel < 1e-6


# ---------------------------------------------------------------------------
# 5. closed-form block updates are the subproblem optima


def test_criterion_05_update_optimality(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240917)

    # (a) coefficient update zeroes the finite-difference gradient
    K = random_psd_kernel(rng, 12).data
    H = random_orthonormal_rows(rng, 4, 12)
    alpha = 2.5
    G = update_g(K, H, alpha)
    step = 1e-6
    grad_max = 0.0
    for i in range(12):
        for t in range(4):
            up = G.copy()
            up[i, t] += step
            dn = G.copy()
            dn[i, t] -= step
            grad = (per_view_loss(K, up, H, alpha)
                    - per_view_loss(K, dn, H, alpha)) / (2.0 * step)
            grad_max = max(grad_max, abs(grad))
    ok_g = grad_max < 1e-5

    # (b) embedding update wins against 1000 random row-orthonormal
    # candidates and attains the singular-value bound
    kernels = [random_psd_kernel(rng, 60, name=f"v{i}") for i in range(3)]
    G_list = [rng.standard_normal((60, 4)) for _ in range(3)]
    omega = update_weights(rng.random(3) + 0.1)
    A = sum((w * w) * (g.T @ k.data + alpha * g.T)
            for k, g, w in zip(kernels, G_list, omega))
    H_opt = update_h(kernels, G_list, omega, alpha)
    attained = float(np.sum(H_opt * A))
    bound = float(np.sum(np.linalg.svd(A, compute_uv=False)))
    beaten = all(attained >= float(np.sum(
        random_orthonormal_rows(rng, 4, 60) * A))
        for _ in range(1000))
    ok_h = beaten and abs(attained - bound) <= 1e-8

    # (c) weight update matches an exhaustive 1e-4 simplex sweep
    ok_w = True
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
    for d in ([1.0, 3.0], [0.8, 2.3], [0.05, 0.9], [5.0, 5.0]):
        d = np.asarray(d)
        vals = grid * grid * d[0] + (1.0 - grid) ** 2 * d[1]
        best_t = grid[np.argmin(vals)]
        w = update_weights(d)
        ok_w = ok_w and abs(w[0] - best_t) <= 1e-4

    elapsed = time.perf_counter() - t0
    ok = ok_g and ok_h and ok_w and elapsed < 30.0
    announce(5, ok, f"grad_max {grad_max:.2e} (< 1e-5); "
                    f"tr gap {abs(attained - bound):.2e} (<= 1e-8), "
                    f"1000 candidates beaten: {beaten}; "
                    f"weights on 1e-4 grid: {ok_w}")
    assert ok_g
    assert ok_h
    assert ok_w
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 6. invariants hold after every iteration of every shared run


def test_criterion_06_invariants(instance_runs, announce):
    orth = instance_runs["worst_orth"]
    simplex = instance_runs["worst_simplex"]
    ok = orth < 1e-8 and simplex < 1e-12
    announce(6, ok, f"max |HH^T - I| = {orth:.2e} (< 1e-8); "
                    f"max |sum(omega) - 1| = {simplex:.2e} (< 1e-12)")
    assert orth < 1e-8
    assert simplex < 1e-12


# ---------------------------------------------------------------------------
# 7. end-to-end recovery on a separable 3-view dataset


def test_criterion_07_end_to_end_recovery(announce):
    t0 = time.perf_counter()
    feats, truth = make_synthetic(50, 4, 3, separation=100.0, noise=1.0,
                                  seed=0)
    ks = [build_kernel(f, KernelSpec(kind="rbf")) for f in feats]
    cfg = SolverConfig(k=4, alpha=2.0 ** 7)
    for state in iterate(ks, cfg):
        assert float(np.max(np.abs(state.H @ state.H.T - np.eye(4)))) < 1e-8
        assert abs(float(state.omega.sum()) - 1.0) < 1e-12
    labeling = kmeans(state.H, KMeansConfig(k=4, restarts=50, seed=0))
    report = evaluate(truth, labeling.labels)
    elapsed = time.perf_counter() - t0
    scores = report.as_dict()
    ok = all(v == 1.0 for v in scores.values()) and elapsed < 20.0
    announce(7, ok, "200 samples, 3 views, 4 clusters, alpha=2^7: "
                    + " ".join(f"{k}={v:g}" for k, v in scores.items())
                    + f" ({elapsed:.2f} s < 20 s)")
    for name, value in scores.items():
        assert value == 1.0, name
    assert elapsed < 20.0


# ---------------------------------------------------------------------------
# 8. metric implementations equal brute-force oracles


def brute_accuracy(true_labels, pred_labels):
    tu = sorted(set(true_labels))
    pu = sorted(set(pred_labels))
    m = max(len(tu), len(pu))
    counts = np.zeros((m, m), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        counts[tu.index(t), pu.index(p)] += 1
    best = max(sum(int(counts[perm[j], j]) for j in range(m))
               for perm in itertools.permutations(range(m)))
    return best / len(true_labels)


def brute_ari(true_labels, pred_labels):
    n = len(true_labels)
    both = same_true = same_pred = 0
    for i in range(n):
        for j in range(i + 1, n):
            st = true_labels[i] == true_labels[j]
            sp = pred_labels[i] == pred_labels[j]
            both += st and sp
            same_true += st
            same_pred += sp
    total = n * (n - 1) // 2
    expected = same_true * same_pred / total
    maximum = 0.5 * (same_true + same_pred)
    if maximum == expected:
        # identical partitions agree on every pair
        return 1.0 if both == same_true == same_pred else 0.0
    return float((both - expected) / (maximum - expected))


def test_criterion_08_metric_oracles(announce):
    rng = np.random.default_rng(8)
    acc_ok = 0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(8, 31))
        t = rng.integers(0, k, size=n).tolist()
        p = rng.integers(0, k, size=n).tolist()
        acc_ok += accuracy(t, p) == brute_accuracy(t, p)
    ari_ok = 0
    for _ in range(200):
        n = int(rng.integers(10, 51))
        k = int(rng.integers(2, 6))
        t = rng.integers(0, k, size=n).tolist()
        p = rng.integers(0, k, size=n).tolist()
        ari_ok += ari(t, p) == brute_ari(t, p)
    ok = acc_ok == 200 and ari_ok == 200
    announce(8, ok, f"accuracy == permutation brute force {acc_ok}/200; "
                    f"ari == pair-count brute force {ari_ok}/200")
    assert acc_ok == 200
    assert ari_ok == 200


# ---------------------------------------------------------------------------
# 9. baseline behavior


def test_criterion_09_baselines(announce):
    rng = np.random.default_rng(9)
    K = random_psd_kernel(rng, 40)
    _, gamma, _ = fit_mkkm([K, K], SolverConfig(k=4))
    gamma_err = float(np.max(np.abs(gamma - 0.5)))

    sizes = (15, 15, 15, 15)
    n = sum(sizes)
    blocks = np.zeros((n, n))
    start = 0
    truth = []
    for label, s in enumerate(sizes):
        blocks[start:start + s, start:start + s] = 1.0
        truth += [label] * s
        start += s
    h = fit_kkm(blocks, 4)
    labeling = kmeans(h, KMeansConfig(k=4, restarts=50, seed=0))
    acc = accuracy(truth, labeling.labels.tolist())

    ok = gamma_err <= 1e-10 and acc == 1.0
    announce(9, ok, f"mkkm identical views |gamma - 0.5| = {gamma_err:.2e} "
                    f"(<= 1e-10); kkm block kernel acc = {acc:g}")
    assert gamma_err <= 1e-10
    assert acc == 1.0


# ---------------------------------------------------------------------------
# 10. per-iteration cost scales like the n^2 kernel products


def one_update_loop(kernels, H, omega, alpha):
    G = [update_g(K, H, alpha) for K in kernels]
    H_next = update_h(kernels, G, omega, alpha)
    d = np.array([per_view_loss(K, g, H_next, alpha)
                  for K, g in zip(kernels, G)])
    return update_weights(d)


def timed_iteration(n, rng, reps=5, k=4, views=3, alpha=16.0):
    # ingested before the clock starts, so only the update loop is timed
    kernels = []
    for v in range(views):
        a = rng.standard_normal((n, n)) / math.sqrt(n)
        kernels.append(KernelMatrix(a @ a.T, f"view{v}"))
    H = random_orthonormal_rows(rng, k, n)
    omega = np.full(views, 1.0 / views)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        one_update_loop(kernels, H, omega, alpha)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_10_iteration_scaling(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    t500 = timed_iteration(500, rng)
    t1000 = timed_iteration(1000, rng)
    ratio = t1000 / t500
    elapsed = time.perf_counter() - t0
    ok = ratio <= 5.0 and elapsed < 120.0
    announce(10, ok, f"update loop t(1000)/t(500) = {ratio:.2f} (<= 5.0; "
                     f"{t500 * 1e3:.1f} ms -> {t1000 * 1e3:.1f} ms)")
    assert ratio <= 5.0
    assert elapsed < 120.0
