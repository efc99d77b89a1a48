import importlib
import itertools

import numpy as np
import pytest

from mvkmf.errors import BadParamError, TooFewPointsError
from mvkmf.io import make_synthetic
from mvkmf.kernels import KernelSet, KernelSpec, build_kernel
from mvkmf.kmeans import (
    KMeansConfig,
    _assign_with_repair,
    kmeans,
)
from mvkmf.solver import SolverConfig, fit, fit_kkm

# the package re-exports the function under the module's name
kmeans_module = importlib.import_module("mvkmf.kmeans")


# ---------------------------------------------------------------------------
# reference: one restart at a time, as k-means ran before its restarts were
# batched; frozen here so the batched code is checked bit for bit


def ref_sq_dists(X, centers):
    d = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * X @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def ref_kmeanspp_centers(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def ref_assign_with_repair(X, centers):
    k = centers.shape[0]
    for _ in range(k):
        labels = np.argmin(ref_sq_dists(X, centers), axis=1)
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return labels
        own = np.sum((X - centers[labels]) ** 2, axis=1)
        for e in empty:
            far = int(np.argmax(own))
            centers[e] = X[far]
            own[far] = -1.0
    return np.argmin(ref_sq_dists(X, centers), axis=1)


def ref_cluster_means(X, labels, k):
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, labels, X)
    return sums / np.maximum(counts, 1.0)[:, None]


def ref_wcss(X, labels, centers):
    return float(np.sum((X - centers[labels]) ** 2))


def ref_lloyd(X, k, rng, max_iters, tol):
    centers = ref_kmeanspp_centers(X, k, rng)
    labels = ref_assign_with_repair(X, centers)
    for _ in range(max_iters):
        new_centers = ref_cluster_means(X, labels, k)
        shift = float(np.sqrt(np.max(np.sum((new_centers - centers) ** 2,
                                            axis=1))))
        centers = new_centers
        new_labels = ref_assign_with_repair(X, centers)
        if np.array_equal(new_labels, labels) or shift <= tol:
            labels = new_labels
            break
        labels = new_labels
    centers = ref_cluster_means(X, labels, k)
    return labels, centers, ref_wcss(X, labels, centers)


def ref_kmeans(points, cfg):
    X = np.asarray(points, dtype=np.float64).T
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        labels, centers, inertia = ref_lloyd(X, cfg.k, rng, cfg.max_iters,
                                             cfg.tol)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def assert_matches_reference(points, cfg, where=""):
    out = kmeans(points, cfg)
    labels, centers, inertia = ref_kmeans(points, cfg)
    assert np.array_equal(out.labels, labels), where
    assert np.array_equal(out.centers, centers), where
    assert out.inertia == inertia, where


def three_blobs(seed=0, per=20, spread=1.0, gap=100.0):
    """2-D points (dim x n) in three far-apart groups plus true labels."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [gap, 0.0], [0.0, gap]])
    pts = np.vstack([c + spread * rng.standard_normal((per, 2))
                     for c in centers])
    labels = np.repeat(np.arange(3), per)
    return pts.T, labels


def brute_match_fraction(found, truth, k):
    best = 0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[f] for f in found])
        best = max(best, int(np.sum(mapped == truth)))
    return best / len(truth)


def test_config_validation():
    with pytest.raises(BadParamError):
        KMeansConfig(k=1)
    with pytest.raises(BadParamError):
        KMeansConfig(k=2, restarts=0)
    with pytest.raises(BadParamError):
        KMeansConfig(k=2, max_iters=0)
    with pytest.raises(BadParamError):
        KMeansConfig(k=2, tol=-1.0)


def test_two_locations_zero_inertia():
    # six points stacked on two distinct spots
    pts = np.array([[0.0, 0.0, 0.0, 5.0, 5.0, 5.0],
                    [1.0, 1.0, 1.0, -2.0, -2.0, -2.0]])
    out = kmeans(pts, KMeansConfig(k=2, restarts=5))
    assert out.inertia == pytest.approx(0.0, abs=1e-24)
    assert len(set(out.labels[:3])) == 1
    assert len(set(out.labels[3:])) == 1
    assert out.labels[0] != out.labels[3]


def test_k_equals_n_zero_inertia():
    pts = np.array([[0.0, 1.0, 2.0, 3.0]])
    out = kmeans(pts, KMeansConfig(k=4, restarts=3))
    assert out.inertia == pytest.approx(0.0, abs=1e-24)
    assert sorted(out.labels) == [0, 1, 2, 3]


def test_well_separated_blobs_recovered():
    pts, truth = three_blobs()
    out = kmeans(pts, KMeansConfig(k=3, restarts=10))
    assert brute_match_fraction(out.labels, truth, 3) == 1.0


def test_fixed_point_centers_are_cluster_means():
    pts, _ = three_blobs(seed=7)
    out = kmeans(pts, KMeansConfig(k=3, restarts=10))
    X = pts.T
    for c in range(3):
        members = X[out.labels == c]
        assert len(members) > 0
        assert np.max(np.abs(members.mean(axis=0) - out.centers[c])) < 1e-10


def test_fixed_point_every_point_nearest_own_center():
    pts, _ = three_blobs(seed=11)
    out = kmeans(pts, KMeansConfig(k=3, restarts=10))
    X = pts.T
    d = ((X[:, None, :] - out.centers[None, :, :]) ** 2).sum(axis=2)
    own = d[np.arange(len(X)), out.labels]
    assert np.all(own <= d.min(axis=1) + 1e-12)


def test_inertia_matches_definition():
    pts, _ = three_blobs(seed=3, per=10)
    out = kmeans(pts, KMeansConfig(k=3, restarts=5))
    X = pts.T
    manual = sum(np.sum((X[out.labels == c] - out.centers[c]) ** 2)
                 for c in range(3))
    assert out.inertia == pytest.approx(manual, rel=1e-12)


def test_deterministic_bitwise():
    pts, _ = three_blobs(seed=5, gap=3.0)   # overlapping, harder instance
    cfg = KMeansConfig(k=3, restarts=20, seed=42)
    a = kmeans(pts, cfg)
    b = kmeans(pts, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)
    assert a.inertia == b.inertia


def test_seed_changes_are_contained():
    # different seeds may pick different restarts but the data is easy
    # enough that the partition agrees
    pts, truth = three_blobs(seed=2)
    a = kmeans(pts, KMeansConfig(k=3, restarts=5, seed=0))
    b = kmeans(pts, KMeansConfig(k=3, restarts=5, seed=99))
    assert brute_match_fraction(a.labels, truth, 3) == 1.0
    assert brute_match_fraction(b.labels, truth, 3) == 1.0


def test_too_few_points():
    with pytest.raises(TooFewPointsError):
        kmeans(np.zeros((2, 3)), KMeansConfig(k=4))


def test_assignment_ties_go_to_lowest_index():
    X = np.array([[1.0]])            # single point equidistant to both
    centers = np.array([[0.0], [2.0]])
    labels = _assign_with_repair(X, centers)
    assert labels[0] == 0


def test_empty_cluster_repair_fills_all_clusters():
    # duplicate centers force empties; repair reseeds them at far points
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
    centers = np.zeros((3, 1))
    labels = _assign_with_repair(X, centers)
    assert set(labels) == {0, 1, 2}


def test_inertia_non_increasing_in_lloyd_steps():
    # one restart stopped after t steps reports the inertia of its labels
    # after step t, recomputed at their means, for t = 1 .. T
    pts, _ = three_blobs(seed=9, gap=2.5)    # overlapping blobs iterate a bit
    inertia = [kmeans(pts, KMeansConfig(k=3, restarts=1, max_iters=t,
                                        tol=0.0)).inertia
               for t in range(1, 16)]
    assert len(set(inertia)) > 1              # the steps do move
    assert all(b <= a + 1e-9 for a, b in zip(inertia, inertia[1:]))


def test_distinct_points_yield_k_nonempty_clusters():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((2, 30))
    out = kmeans(pts, KMeansConfig(k=5, restarts=10))
    assert set(out.labels) == set(range(5))
    assert out.centers.shape == (5, 2)


# ---------------------------------------------------------------------------
# lockstep restarts against the one-restart-at-a-time reference


def adversarial_case(rng):
    """Small points (dim x n) with duplicates and rounded coordinates that
    force distance ties, plus a config from the edges of its ranges."""
    n = int(rng.integers(4, 41))
    d = int(rng.integers(1, 5))
    distinct = rng.standard_normal((int(rng.integers(1, n + 1)), d))
    X = distinct[rng.integers(distinct.shape[0], size=n)]
    # dividing by a power of two keeps the ties; the small scale puts center
    # shifts near tol = 1e-2
    X = np.round(X * rng.choice([1.0, 2.0, 10.0])) / rng.choice([1.0, 64.0])
    cfg = KMeansConfig(k=int(rng.integers(2, min(n, 8) + 1)),
                       restarts=int(rng.integers(1, 21)),
                       max_iters=int(rng.integers(1, 51)),
                       tol=float(rng.choice([0.0, 1e-9, 1e-2])),
                       seed=int(rng.integers(1000)))
    return X.T, cfg


def test_lockstep_matches_reference_adversarial(monkeypatch):
    repairs = []
    repair = kmeans_module._assign_with_repair

    def counted(X, centers):
        repairs.append(1)
        return repair(X, centers)

    monkeypatch.setattr(kmeans_module, "_assign_with_repair", counted)
    rng = np.random.default_rng(2024)
    for case in range(200):
        pts, cfg = adversarial_case(rng)
        assert_matches_reference(pts, cfg, f"case {case}: {cfg}")
    assert repairs                            # empty clusters were repaired


def test_lockstep_matches_reference_empty_cluster():
    # four centers on three distinct spots: every restart starts with an
    # empty cluster and must be repaired
    pts = np.array([[0.0, 0.0, 0.0, 0.0, 5.0, 9.0]])
    assert_matches_reference(pts, KMeansConfig(k=4, restarts=20, seed=1))


def test_lockstep_matches_reference_shift_exit():
    # a tol this large stops some restarts on the center shift while their
    # labels are still changing
    pts, _ = three_blobs(seed=1, gap=2.5)
    assert_matches_reference(pts, KMeansConfig(k=3, restarts=10, tol=0.3))


def test_assign_repairs_each_restart_in_place():
    # the shift test of the next step reads the repaired centers
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
    centers = np.array([[[0.0], [0.0], [0.0]],
                        [[0.0], [2.0], [11.0]]])
    repaired = centers[0].copy()
    expected = ref_assign_with_repair(X, repaired)
    untouched = centers[1].copy()
    labels = kmeans_module._assign(X, centers)
    assert np.array_equal(labels[0], expected)
    assert np.array_equal(centers[0], repaired)
    assert np.array_equal(centers[1], untouched)
    assert np.array_equal(labels[1], [0, 0, 1, 2, 2])


def fitted_embedding(n, algorithm, alpha=None):
    feats, _ = make_synthetic(n // 4, 4, 3, separation=2.5, seed=n)
    ks = KernelSet(kernels=tuple(build_kernel(f, KernelSpec(kind="rbf"))
                                 for f in feats))
    if algorithm == "kkm":
        return fit_kkm(sum(k.data for k in ks.kernels) / 3.0, 4)
    return fit(ks, SolverConfig(k=4, alpha=alpha)).H


@pytest.mark.parametrize("n,algorithm,alpha", [
    (300, "umklmf", 1.0),
    (300, "umklmf", 256.0),
    (300, "kkm", None),
    (2000, "umklmf", 16.0),
])
def test_lockstep_matches_reference_on_fits(n, algorithm, alpha):
    H = fitted_embedding(n, algorithm, alpha)
    for seed in (0, 1):
        assert_matches_reference(H, KMeansConfig(k=4, seed=seed), f"seed {seed}")
