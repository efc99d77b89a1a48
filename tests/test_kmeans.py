import dataclasses
import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mvkmf import _blas
from mvkmf.errors import BadParamError, NonFiniteError, TooFewPointsError
from mvkmf.io import make_synthetic
from mvkmf.kernels import KernelSet, KernelSpec, build_kernel
from mvkmf.kmeans import (
    KMeansConfig,
    _assign_with_repair,
    kmeans,
)
from mvkmf.solver import SolverConfig, fit, fit_kkm

from conftest import record_threads

# the package re-exports the function under the module's name
kmeans_module = importlib.import_module("mvkmf.kmeans")


# ---------------------------------------------------------------------------
# reference: one restart at a time, as k-means ran before its restarts were
# batched; frozen here so the batched code is checked bit for bit. ref_kmeans
# runs numpy's BLAS on one thread, as kmeans does, and stops each restart
# where kmeans' step cap and shift tolerance (module constants) say


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


@_blas.one_thread()
def ref_kmeans(points, cfg):
    X = np.asarray(points, dtype=np.float64).T
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        labels, centers, inertia = ref_lloyd(X, cfg.k, rng,
                                             kmeans_module._MAX_ITERS,
                                             kmeans_module._TOL)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def set_limits(monkeypatch, max_iters, tol):
    """Run kmeans and the reference with this step cap and shift tolerance."""
    monkeypatch.setattr(kmeans_module, "_MAX_ITERS", max_iters)
    monkeypatch.setattr(kmeans_module, "_TOL", tol)


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
        KMeansConfig(k=2, seed=-1)
    # integer fields take integers only, numpy's too
    for field, value in [("k", 3.0), ("restarts", 2.5), ("seed", 1.5),
                         ("k", "3"), ("seed", None)]:
        with pytest.raises(BadParamError, match=field):
            KMeansConfig(**{"k": 3, field: value})
    KMeansConfig(k=np.int64(3), restarts=np.int32(2), seed=np.uint8(1))


def test_config_sets_clusters_restarts_and_seed_only():
    # the stopping rule is fixed: 300 Lloyd steps, or a center shift <= 1e-9
    assert [f.name for f in dataclasses.fields(KMeansConfig)] == [
        "k", "restarts", "seed"]
    assert (kmeans_module._MAX_ITERS, kmeans_module._TOL) == (300, 1e-9)


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


def test_numpy_blas_on_one_thread_inside_and_restored(caller_threads,
                                                      monkeypatch):
    seen = record_threads(monkeypatch, kmeans_module, "_sq_dists",
                          caller_threads)
    pts, _ = three_blobs()
    kmeans(pts, KMeansConfig(k=3, restarts=5))
    assert seen and set(seen) == {1}
    assert caller_threads.get() == 2
    with pytest.raises(TooFewPointsError):
        kmeans(np.zeros((2, 3)), KMeansConfig(k=4))
    assert caller_threads.get() == 2


def test_bits_do_not_depend_on_the_callers_thread_count(caller_threads):
    # at n = 2000 the (R*k x n) distance products are large enough that
    # numpy's BLAS splits them over its threads
    pts = np.random.default_rng(8).standard_normal((4, 2000))
    cfg = KMeansConfig(k=4, restarts=50)
    at_two = kmeans(pts, cfg)
    caller_threads.set(1)
    at_one = kmeans(pts, cfg)
    assert np.array_equal(at_one.labels, at_two.labels)
    assert at_one.centers.tobytes() == at_two.centers.tobytes()
    assert at_one.inertia == at_two.inertia


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


def test_inertia_non_increasing_in_lloyd_steps(monkeypatch):
    # one restart stopped after t steps reports the inertia of its labels
    # after step t, recomputed at their means, for t = 1 .. T
    pts, _ = three_blobs(seed=9, gap=2.5)    # overlapping blobs iterate a bit
    inertia = []
    for t in range(1, 16):
        set_limits(monkeypatch, t, 0.0)
        inertia.append(kmeans(pts, KMeansConfig(k=3, restarts=1)).inertia)
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
    force distance ties, plus a config and (step cap, shift tolerance) from
    the edges of their ranges."""
    n = int(rng.integers(4, 41))
    d = int(rng.integers(1, 5))
    distinct = rng.standard_normal((int(rng.integers(1, n + 1)), d))
    X = distinct[rng.integers(distinct.shape[0], size=n)]
    # dividing by a power of two keeps the ties; the small scale puts center
    # shifts near tol = 1e-2
    X = np.round(X * rng.choice([1.0, 2.0, 10.0])) / rng.choice([1.0, 64.0])
    k = int(rng.integers(2, min(n, 8) + 1))
    restarts = int(rng.integers(1, 21))
    limits = int(rng.integers(1, 51)), float(rng.choice([0.0, 1e-9, 1e-2]))
    cfg = KMeansConfig(k=k, restarts=restarts, seed=int(rng.integers(1000)))
    return X.T, cfg, limits


def test_lockstep_matches_reference_adversarial(monkeypatch):
    repairs = []
    repair = kmeans_module._assign_with_repair

    def counted(X, centers):
        repairs.append(1)
        return repair(X, centers)

    monkeypatch.setattr(kmeans_module, "_assign_with_repair", counted)
    rng = np.random.default_rng(2024)
    for case in range(200):
        pts, cfg, limits = adversarial_case(rng)
        set_limits(monkeypatch, *limits)
        assert_matches_reference(pts, cfg, f"case {case}: {cfg}, {limits}")
    assert repairs                            # empty clusters were repaired


def test_lockstep_matches_reference_empty_cluster():
    # four centers on three distinct spots: every restart starts with an
    # empty cluster and must be repaired. Its seeding reaches a zero D^2
    # total, where each restart draws integers(n) instead of choice's
    # random(); with k = n distinct points the last center is the one point
    # left. The repair overwrites the centers drawn at a zero total, so only
    # the seeded centers themselves show that draw
    for pts, k, restarts in [
        ([[0.0, 0.0, 0.0, 0.0, 5.0, 9.0]], 4, 20),
        ([[0.0, 0.0, 5.0, 9.0]], 4, 7),                       # k = n
        ([[0.0, 3.0, 5.0, 9.0, 4.0], [1.0, 0.0, 2.0, 2.0, 7.0]], 5, 9),
    ]:
        pts = np.array(pts)
        assert_matches_reference(pts, KMeansConfig(
            k=k, restarts=restarts, seed=1), f"k {k}")
        seeded = kmeans_module._seed_centers(pts.T, k, 1, restarts)
        for r in range(restarts):
            expected = ref_kmeanspp_centers(pts.T, k,
                                            np.random.default_rng([1, r]))
            assert np.array_equal(seeded[r], expected), (k, r)


def subnormal_case(rng):
    """Points (dim x n) on 1 to k distinct spots near 1e-160, the spots
    apart by a relative 1e-3, plus a config and a step cap from the edges
    of their ranges.
    Every squared coordinate difference (about 1e-326) underflows to 0, so
    k-means++ reaches a zero D^2 total while the points still differ, and
    the index drawn there reaches the output."""
    n = int(rng.integers(4, 41))
    d = int(rng.integers(1, 5))
    k = int(rng.integers(2, min(n, 8) + 1))
    spots = 1e-160 * (1.0 + 1e-3 * rng.standard_normal(
        (int(rng.integers(1, k + 1)), d)))
    X = spots[rng.integers(spots.shape[0], size=n)]
    restarts = int(rng.integers(1, 21))
    max_iters = int(rng.integers(1, 51))
    cfg = KMeansConfig(k=k, restarts=restarts, seed=int(rng.integers(1000)))
    return X.T, cfg, max_iters


def test_lockstep_matches_reference_zero_total_on_distinct_points(monkeypatch):
    # unlike test_lockstep_matches_reference_empty_cluster, the points at a
    # zero total differ, so the repair does not overwrite the drawn centers:
    # drawing random() there, or nothing, changes labels or centers here.
    # Underflow is ignored by numpy's default errstate, so no RuntimeWarning
    rng = np.random.default_rng(160)
    distinct = 0
    for case in range(200):
        pts, cfg, max_iters = subnormal_case(rng)
        set_limits(monkeypatch, max_iters, 1e-9)
        X = pts.T
        assert not np.any((X[:, None] - X[None]) ** 2)
        distinct += np.unique(X, axis=0).shape[0] > 1
        assert_matches_reference(pts, cfg,
                                 f"case {case}: {cfg}, max_iters {max_iters}")
    assert distinct > 100


@pytest.mark.parametrize("d", [8, 9, 16])
def test_lockstep_matches_reference_wide_points(d):
    # numpy sums a row of 8 or more elements pairwise, so this checks that
    # the batched (R, n, d) reductions add each point's coordinates in the
    # order of the serial (n, d) ones
    rng = np.random.default_rng(d)
    for case in range(12):
        n = int(rng.integers(10, 201))
        pts = rng.standard_normal((d, n)) * rng.choice([1e-3, 1.0, 1e3])
        cfg = KMeansConfig(k=int(rng.integers(2, 9)),
                           restarts=int(rng.integers(1, 51)), seed=case)
        assert_matches_reference(pts, cfg, f"case {case}: n {n}, {cfg}")


def squares_summing_to(m, terms=10):
    """Integers whose squares add up to m < 2**53; greedy, so that every
    partial sum is an exact float."""
    parts = []
    for _ in range(terms):
        parts.append(math.isqrt(m))
        m -= parts[-1] ** 2
    assert m == 0
    return parts


def first_draws(seed, n):
    rng = np.random.default_rng([seed, 0])
    return int(rng.integers(n)), rng.random()


def second_center(seed, d2):
    """Seed two centers of restart 0 on points at squared distances d2 (exact
    integers below 2**53, in sample order) from its first center; returns
    the position in d2 of the second center, checked against the reference."""
    n = len(d2) + 1
    first, _ = first_draws(seed, n)
    others = [i for i in range(n) if i != first]
    X = np.zeros((n, 10))
    for i, m in zip(others, d2):
        X[i] = squares_summing_to(m)
    expected = ref_kmeanspp_centers(X, 2, np.random.default_rng([seed, 0]))
    assert np.array_equal(kmeans_module._seed_centers(X, 2, seed, 1)[0],
                          expected)
    return others.index(int(np.flatnonzero((X == expected[1]).all(axis=1))[0]))


def test_seeding_draw_on_a_cdf_step_goes_right():
    # choice's searchsorted(side="right") passes a step of the cdf that the
    # uniform draw u hits exactly; D^2 of m and 2**53 - m puts the step at
    # m / 2**53 = u
    m = int(first_draws(5, 3)[1] * 2**53)
    assert second_center(5, [m, 2**53 - m]) == 1


def test_seeding_normalizes_the_cdf():
    # these D^2 put the first cdf step exactly on u before choice divides the
    # cdf by its last entry, which rounds to just below 1, and just above u
    # after it, so only the normalized cdf picks the first point
    d2 = [225967059896157, 147857766761657, 26034883124268,
          276412150897911, 161304818851875]
    cdf = np.cumsum(np.array(d2, dtype=float) / sum(d2))
    assert cdf[0] == first_draws(0, 6)[1] and cdf[-1] < 1.0
    assert second_center(0, d2) == 0


def test_lockstep_matches_reference_shift_exit(monkeypatch):
    # a tol this large stops some restarts on the center shift while their
    # labels are still changing
    set_limits(monkeypatch, 300, 0.3)
    pts, _ = three_blobs(seed=1, gap=2.5)
    assert_matches_reference(pts, KMeansConfig(k=3, restarts=10))


@pytest.mark.parametrize("k", [39, 40])
@pytest.mark.parametrize("spots", [40, 25])
def test_lockstep_matches_reference_k_close_to_n(monkeypatch, k, spots):
    # n = 40 points on 40 (distinct) or 25 spots, each spot taken: k-means++
    # runs out of points to draw, and on 25 spots every restart needs repairs
    # at every step; the step cap keeps such restarts short
    set_limits(monkeypatch, 60, 1e-9)
    rng = np.random.default_rng(k + spots)
    where = np.concatenate([np.arange(spots),
                            rng.integers(spots, size=40 - spots)])
    X = rng.standard_normal((spots, 3))[rng.permutation(where)]
    cfg = KMeansConfig(k=k, restarts=4, seed=spots)
    assert_matches_reference(X.T, cfg, f"k {k}, spots {spots}")


@pytest.mark.parametrize("k", [200, 260])
def test_lockstep_matches_reference_large_k(k):
    # k - 1 comparison passes per step; past k = 256 the labels the pass
    # holds take two bytes
    pts = np.random.default_rng(k).standard_normal((3, 300))
    cfg = KMeansConfig(k=k, restarts=3, seed=2)
    assert_matches_reference(pts, cfg)
    assert kmeans(pts, cfg).labels.dtype == np.intp


def near_duplicates(seed, n=60):
    """2 x n points at 1e8 plus perturbations of about 1e-4. The distance
    expansion |x|^2 - 2 x.c + |c|^2 loses the perturbations to rounding: it
    comes out as a small multiple of 4, often below 0, so after the clamp
    at 0 several centers tie for many points."""
    rng = np.random.default_rng(seed)
    return 1e8 + 1e-4 * rng.standard_normal((2, n))


def clamped_ties(X, centers):
    """Points whose least distance to ``centers`` (k, d) is a clamped 0 that
    more than one center attains."""
    d = ref_sq_dists(X, centers)
    least = d.min(axis=1, keepdims=True)
    return ((d == least).sum(axis=1) > 1) & (least[:, 0] == 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_lockstep_matches_reference_on_ties_after_the_clamp(seed):
    pts = near_duplicates(seed)
    cfg = KMeansConfig(k=4, restarts=10, seed=seed)
    seeded = kmeans_module._seed_centers(pts.T, 4, seed, 10)
    assert all(clamped_ties(pts.T, c).any() for c in seeded)
    assert_matches_reference(pts, cfg, f"seed {seed}")


def test_assignment_ties_after_the_clamp_go_to_lowest_index():
    X = near_duplicates(7).T
    centers = X[[3, 17, 29, 41]]
    ties = clamped_ties(X, centers)
    assert ties.sum() > 10
    # the labels of the pass are argmin's, which takes the lowest index
    xx = np.sum(X * X, axis=1)
    labels = kmeans_module._nearest(
        kmeans_module._sq_dists(2.0 * X.T, xx, centers), 4)[0]
    assert np.array_equal(labels, np.argmin(ref_sq_dists(X, centers), axis=1))
    # with a cluster left empty, the repair path matches its reference too
    assert np.bincount(labels, minlength=4).min() == 0
    repaired = centers.copy()
    expected = ref_assign_with_repair(X, centers.copy())
    assert np.array_equal(_assign_with_repair(X, repaired), expected)
    # and the lockstep pass, with each restart's rows interleaved by center
    both = np.stack([centers, centers[::-1]])
    lockstep, _, _ = kmeans_module._assign(X, 2.0 * X.T, xx, both)
    assert np.array_equal(lockstep[0], expected)
    assert np.array_equal(lockstep[1],
                          ref_assign_with_repair(X, centers[::-1].copy()))


def test_assign_repairs_each_restart_in_place():
    # the shift test of the next step reads the repaired centers
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
    centers = np.array([[[0.0], [0.0], [0.0]],
                        [[0.0], [2.0], [11.0]]])
    repaired = centers[0].copy()
    expected = ref_assign_with_repair(X, repaired)
    untouched = centers[1].copy()
    labels, counts, bins = kmeans_module._assign(
        X, 2.0 * X.T, np.sum(X * X, axis=1), centers)
    assert np.array_equal(labels[0], expected)
    assert np.array_equal(centers[0], repaired)
    assert np.array_equal(centers[1], untouched)
    assert np.array_equal(labels[1], [0, 0, 1, 2, 2])
    # the counts and bins handed to the next step's means are those of the
    # repair
    assert np.array_equal(counts, [np.bincount(row, minlength=3)
                                   for row in labels])
    assert np.array_equal(bins, kmeans_module._bins(labels, 3))


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


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_cold_and_warm_calls_match_reference(order):
    # the cached seeding draws give the reference's bits whether this call
    # made them or an earlier one did. make_synthetic orders the samples by
    # cluster, so consecutive points of a restart share a means bin; shuffled,
    # they do not. Each bin still adds its points in sample order
    H = fitted_embedding(300, "umklmf", 16.0)
    if order == "shuffled":
        H = H[:, np.random.default_rng(1).permutation(H.shape[1])]
    cfg = KMeansConfig(k=4, restarts=50, seed=5)
    kmeans_module._draws.cache_clear()
    assert_matches_reference(H, cfg, "cold")
    assert kmeans_module._draws.cache_info().misses == 1
    assert_matches_reference(H, cfg, "warm")
    assert kmeans_module._draws.cache_info().hits == 1


@pytest.mark.parametrize("spots", [1, 3, 5])
def test_zero_total_after_a_warm_call_matches_reference(spots):
    # n = 30 points on this many distinct spots and k one or two above it:
    # each restart's D^2 total is 0 from its (spots + 1)-th center on, so a
    # warm call rebuilds its generator there, past the draws the cache holds.
    # The repair overwrites the centers drawn at a zero total, so the seeded
    # centers are checked as well
    rng = np.random.default_rng(spots)
    where = np.concatenate([np.arange(spots),
                            rng.integers(spots, size=30 - spots)])
    X = rng.standard_normal((spots, 2))[rng.permutation(where)]
    for k in (spots + 1, spots + 2):
        cfg = KMeansConfig(k=k, restarts=12, seed=spots)
        kmeans_module._draws.cache_clear()
        kmeans(X.T, cfg)
        assert_matches_reference(X.T, cfg, f"k {k}")
        assert kmeans_module._draws.cache_info().hits == 1
        seeded = kmeans_module._seed_centers(X, k, spots, 12)
        for r in range(12):
            expected = ref_kmeanspp_centers(
                X, k, np.random.default_rng([spots, r]))
            assert np.array_equal(seeded[r], expected), (k, r)


def test_zero_total_on_distinct_points_after_a_warm_call(monkeypatch):
    # as in test_lockstep_matches_reference_zero_total_on_distinct_points,
    # the index drawn at a zero total reaches the output here
    rng = np.random.default_rng(161)
    for case in range(20):
        pts, cfg, max_iters = subnormal_case(rng)
        set_limits(monkeypatch, max_iters, 1e-9)
        kmeans(pts, cfg)
        assert_matches_reference(pts, cfg, f"case {case}: {cfg}")


def test_draws_are_the_serial_draws_and_read_only():
    first, u = kmeans_module._draws(4, 6, 30, 5)
    for r in range(6):
        rng = np.random.default_rng([4, r])
        assert first[r] == rng.integers(30)
        assert u[:, r].tolist() == [rng.random() for _ in range(4)]
    for a in (first, u):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("size", [0, 1, 3, 259])
def test_random_of_a_size_gives_successive_random_draws(size):
    # the cache takes a restart's k - 1 uniform draws as one random(k - 1),
    # and a restart rebuilt at a zero total skips past them the same way;
    # both rest on numpy giving the doubles, and leaving the state, of k - 1
    # random() calls, as the seeding rests on choice's internals
    for seed in range(5):
        together, apart = (np.random.default_rng([seed, size])
                           for _ in range(2))
        assert together.integers(300) == apart.integers(300)
        drawn = together.random(size)
        assert drawn.tolist() == [apart.random() for _ in range(size)]
        assert (together.integers(300, size=4).tolist()
                == apart.integers(300, size=4).tolist())


def test_fifty_restarts_at_n2000_hold_one_distance_array():
    # the distance expansion and the final residuals are each formed in one
    # (R*k) x n buffer, the label passes overwrite the distances, each
    # restart's labels are held once, and the means' bins (a quarter of such
    # an array at k = 4) are not held through a distance product, so a call
    # peaks near one such array
    H = fitted_embedding(2000, "umklmf", 16.0)
    cfg = KMeansConfig(k=4, restarts=50, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kmeans(H, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 2000 * 50 * 4 * 8


class CountingGenerator:
    """Delegates to the generator ``default_rng(seed)`` would return and
    records each ``choice`` call."""

    def __init__(self, seed, calls):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._calls = calls

    def choice(self, *args, **kwargs):
        self._calls.append(1)
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_production_call_makes_no_choice_call(monkeypatch):
    # a cold call builds each restart's generator once for the cached draws;
    # a warm one builds none for restarts whose D^2 total stays positive,
    # and one per restart that reaches a zero total, the first time it does
    H = fitted_embedding(300, "umklmf", 16.0)
    made, calls = [], []

    def default_rng(seed):
        made.append(seed)
        return CountingGenerator(seed, calls)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    kmeans_module._draws.cache_clear()
    cfg = KMeansConfig(k=4, restarts=50, seed=3)
    kmeans(H, cfg)
    assert len(made) == 50 and calls == []
    made.clear()
    kmeans(H, cfg)
    assert made == [] and calls == []
    # three distinct spots and k = 4: every restart's total is 0 at its
    # fourth center
    pts, cfg = np.array([[0.0, 0.0, 5.0, 9.0]]), KMeansConfig(k=4, restarts=2)
    kmeans(pts, cfg)
    made.clear()
    kmeans(pts, cfg)
    assert made == [[0, 0], [0, 1]] and calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200,
                                 "1e160", "8e153"])
def test_non_finite_points_raise(bad):
    # 1e200 is finite, but its squared distance to the other points is not.
    # A string is the center of 2 x 40 points spread by 1e-10 of it: their
    # squared distances are finite, but the expansion |x|^2 - 2 x.c + |c|^2
    # of the Lloyd steps overflows (at 8e153, only the sum of the terms)
    if isinstance(bad, str):
        rng = np.random.default_rng(0)
        pts = float(bad) * (1.0 + 1e-10 * rng.standard_normal((2, 40)))
        k = 3
    else:
        pts, k = np.array([[0.0, 1.0, bad, 2.0, 3.0],
                           [0.0, 1.0, 1.0, 0.0, 2.0]]), 2
    with pytest.raises(NonFiniteError):
        kmeans(pts, KMeansConfig(k=k, restarts=3))


def test_overflowing_seeding_total_raises():
    # 4 |x|^2 is finite for each point, but the D^2 total of 50 points at
    # the opposite corner is not
    pts = np.repeat([[1.5e153, -1.5e153], [1.5e153, -1.5e153]], 50, axis=1)
    with pytest.raises(NonFiniteError, match="squared distances"):
        kmeans(pts, KMeansConfig(k=2, restarts=3))
