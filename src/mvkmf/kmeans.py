"""Multi-restart Lloyd k-means over the columns of a consensus embedding.

The embedding H is k x n; its columns are the points to cluster, passed to
k-means unscaled, and they must all be finite. Restarts use k-means++
seeding (Arthur and Vassilvitskii, SODA 2007), each restart drawing from its
own generator derived from (seed, restart index). ``KMeansConfig`` sets k,
the restart count and the seed; the stopping rule below is fixed.

Seeding runs all restarts as (R, n) arrays, and each restart draws from its
own generator exactly what a serial loop over the restarts draws. That loop
draws one ``integers(n)``, then one ``Generator.choice(n, p=d2 / total)``
per further center; inside numpy, ``choice`` is one ``random()`` draw ``u``,
a normalized cumsum (``cdf = cumsum(p); cdf /= cdf[-1]``) and
``searchsorted(cdf, u, side="right")``. So each step draws one ``random()``
per restart, runs the same division, cumsum and normalization on every row
and takes the index as the count of ``cdf <= u``, which is what
``searchsorted(side="right")`` returns on a sorted row. If a numpy release
changes these internals of ``choice``, the frozen serial reference in
``tests/test_kmeans.py`` stops matching bit for bit. A restart whose D^2
total is 0 (every point on an existing center) draws ``integers(n)``
instead, as the serial loop does, and takes that integer as the index.

A restart's draws depend only on (seed, restarts, n, k), which ``bench``
repeats for every cell of a dataset, so they are made once per such key
and kept (``_draws``, a small LRU cache): the first center's
``integers(n)`` and the ``random()`` draws of the k - 1 further centers,
taken as one ``random(k - 1)``, which gives the doubles of k - 1 scalar
calls. The arrays are read-only, since every call with the key shares
them. D^2 only falls, so a total that reaches 0 stays 0, and a restart
draws ``random()`` until its first zero total. There it builds its
generator, skips the ``integers(n)`` and the ``random()`` draws already
used, and draws ``integers(n)`` from then on; no other restart builds one.
Points so large that the Lloyd steps' distance expansion could overflow
(4 |x|^2 is not finite), and D^2 totals that overflow to inf, raise
:class:`NonFiniteError`; ``choice`` would raise a bare ``ValueError``.

The restarts then advance in lockstep. Each Lloyd step serves all restarts
still running with one (R*k x n) distance product, k - 1 comparison passes
for the labels and, for the cluster means, one ``bincount`` per coordinate
over R*k offset bins, so a call costs a few array passes per step rather
than a Python loop per restart. The product's rows are center-major: row
j*R + r holds the distances to center j of restart r, so each pass reads
one contiguous (R, n) block. A pass keeps the least distance so far in the
first block and moves a point's label to j where center j is strictly
closer, so ties go to the lowest index, as ``argmin`` gives them. The
points' terms |x|^2 and 2 X^T are formed once per call, and the cluster
counts that the empty-cluster check takes from each step's labels are the
ones the next step's means divide by.

The means' bins are point-major: entry i*R + r is point i's bin
r*k + label under restart r, and a coordinate's weights are its values,
each repeated R times. ``bincount`` adds each bin's weights in index order,
so consecutive entries go to R different bins rather than, on points
ordered by cluster, to the same one, each add waiting on the last; each
bin still adds its points in sample order, so the sums keep their bits.
Each step forms the bins once, after its labels, for its counts and the
next step's means; a repair patches its restart's column of them, and
they are formed again only when restarts leave the active set.

Every restart still does its own arithmetic in its own order: each
distance is the dot product of d terms that the one-restart (n x k)
product forms, and each bincount sums a cluster's points in sample order,
as a per-restart loop does. The two products give the same bits as long as
OpenBLAS's gemm kernel adds a dot product's terms in the same order for
both shapes; the CI workflow checks this under several of its kernels. A
restart leaves the active set when its labels stop changing, when its
centers move by at most 1e-9, or after 300 steps; one that leaves a
cluster empty is repaired on its own, by ``argmin`` over its distances.
The inertia of every restart comes from one reduction over its n x d
squared residuals, summed in the order a per-restart sum uses. Seeding and
|x|^2 add a point's squared coordinates in coordinate order, which is the
order numpy's sum over a row of X takes: X (n x dim) is the transpose of
the points copied to C order, so its rows are not contiguous and numpy
adds them term by term rather than pairwise.

A call holds about one array of R*k x n floats at a time. The distance
expansion and the final residuals are each formed in one buffer by
in-place steps, which are the operations of the plain expressions in their
order, so they give the same bits. The passes overwrite the distances and
hold each restart's labels in the narrowest unsigned type that holds
k - 1, until the winner's are returned as ``intp``; each restart's labels
are held once, by the running set or by the list of restarts that have
stopped. The bins (R x n integers, a k-th of the distances) are dropped
once the means are formed, before the next distance product. A 50-restart
call at n = 2000, k = 4 peaks at 1.16 distance arrays (tracemalloc), as
before the bins were shared; held through the product, they made it 1.41.

A call runs numpy's BLAS on one thread (``mvkmf._blas``) and restores the
caller's count on return or raise: its distance products, R*k x d times
d x n, are too skinny to gain from a second thread, which only fights the
main thread. So, wherever numpy's count can be set, the bits do not depend
on the caller's count. The count is global to the process; mvkmf starts no
threads of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._blas import one_thread
from .errors import (
    BadParamError,
    NonFiniteError,
    TooFewPointsError,
    require_integers,
)

# A restart stops after this many Lloyd steps, or once no center moves by
# more than this distance.
_MAX_ITERS = 300
_TOL = 1e-9

# Keys (seed, restarts, n, k) whose seeding draws are kept. ``bench`` calls
# k-means with one key per seed and dataset size, and each entry holds
# restarts * k numbers, so a few dozen keys cost little memory.
_DRAWS_CACHED = 32


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "k", "restarts", "seed")
        if self.k < 2:
            raise BadParamError(f"k must be >= 2, got {self.k}")
        if self.restarts < 1:
            raise BadParamError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise BadParamError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Labeling:
    """Winning restart: integer labels in [0, k), its within-cluster sum of
    squares, and the centers (each the mean of its assigned points)."""

    labels: np.ndarray
    inertia: float
    centers: np.ndarray


def _sq_dists(P2: np.ndarray, xx: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(m, n) squared Euclidean distances of n points to m centers (m, d),
    never negative, from the points' terms ``P2`` = 2 X^T (d, n) and ``xx``
    = |x|^2 (n,): the expansion |x|^2 - 2 x.c + |c|^2, left to right,
    formed in the product's buffer, each center's distances one row."""
    d = centers @ P2
    np.subtract(xx, d, out=d)
    np.add(d, np.sum(centers * centers, axis=1)[:, None], out=d)
    return np.maximum(d, 0.0, out=d)


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """(R, n) nearest-center labels from the distances (k*R, n) of the
    points to R restarts' k centers, center j of restart r in row j*R + r,
    in the narrowest unsigned type that holds k - 1; ties go to the lowest
    index, as ``argmin`` gives them. Overwrites ``dist``: its first R rows
    keep the least distances so far, and center j takes the points it is
    strictly closer to than every center before it."""
    dist = dist.reshape(k, -1, dist.shape[1])
    best = dist[0]
    small = np.min_scalar_type(k - 1)
    labels = np.zeros(best.shape, dtype=small)
    for j in range(1, k):
        closer = np.less(dist[j], best)
        np.minimum(best, dist[j], out=best)
        np.maximum(labels, closer * small.type(j), out=labels)
    return labels


def _sq_dists_to(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(R, n) squared distances of the points X (n, d) to one center per
    restart, ``c`` (R, d): the squared differences added coordinate by
    coordinate, in order, as a sum over a row of ``kmeans``'s X adds them."""
    d2 = np.square(X[:, 0] - c[:, :1])
    step = np.empty_like(d2)
    for x, cx in zip(X.T[1:], c.T[1:]):
        np.subtract(x, cx[:, None], out=step)
        np.add(d2, np.square(step, out=step), out=d2)
    return d2


@functools.lru_cache(maxsize=_DRAWS_CACHED)
def _draws(seed: int, restarts: int, n: int,
           k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each restart's seeding draws while its D^2 total is positive: the
    first center's ``integers(n)`` (R,) and the next k - 1 centers'
    ``random()`` draws, center-major (k - 1, R), restart r drawing from
    ``default_rng([seed, r])``. Read-only, since every call with the same
    key shares them."""
    first = np.empty(restarts, dtype=np.intp)
    u = np.empty((k - 1, restarts))
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        first[r] = rng.integers(n)
        u[:, r] = rng.random(k - 1)  # the doubles of k - 1 random() calls
    first.flags.writeable = u.flags.writeable = False
    return first, u


def _seed_centers(X: np.ndarray, k: int, seed: int, restarts: int) -> np.ndarray:
    """(R, k, d) k-means++ centers of all restarts, restart r drawing what
    ``default_rng([seed, r])`` gives (see the module docstring)."""
    n = X.shape[0]
    first, u = _draws(seed, restarts, n, k)
    centers = np.empty((restarts, k, X.shape[1]))
    centers[:, 0] = X[first]
    zero = {}  # restart -> its generator, once its D^2 total is 0
    # overflow is reported as an infinite total; a zero total makes its row
    # NaN, and that row takes an integer from its generator instead
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _sq_dists_to(X, centers[:, 0])
        for j in range(1, k):
            total = d2.sum(axis=1)
            idx = _draw_next(d2, total, u[j - 1])
            for r in np.flatnonzero(total == 0).tolist():
                if r not in zero:
                    # past the integers(n) and the j - 1 random() draws used
                    zero[r] = np.random.default_rng([seed, r])
                    zero[r].integers(n)
                    zero[r].random(j - 1)
                idx[r] = zero[r].integers(n)
            centers[:, j] = X[idx]
            np.minimum(d2, _sq_dists_to(X, centers[:, j]), out=d2)
    return centers


def _draw_next(d2: np.ndarray, total: np.ndarray,
               u: np.ndarray) -> np.ndarray:
    """(R,) indices of each restart's next center, drawn with probability
    proportional to its row of D^2 (R, n), whose sums are ``total``, as
    ``choice`` draws it from the uniform draws ``u`` (R,); a row whose total
    is 0 gets index 0."""
    if np.isinf(total).any():
        raise NonFiniteError(
            "squared distances between points overflow; rescale the points")
    cdf = np.cumsum(d2 / total[:, None], axis=1)
    cdf /= cdf[:, -1:].copy()  # a view would make numpy copy all of cdf
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _assign_with_repair(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels (ties to the lowest index). Empty clusters are
    reseeded at the point farthest from its currently assigned center, one
    repair pass per empty cluster, then reassigned. A reassignment, up to k
    of them, is one ``argmin`` over the k x n distances: for one restart
    that is cheaper than the k - 1 passes of :func:`_nearest`."""
    k = centers.shape[0]
    P2, xx = 2.0 * X.T, np.sum(X * X, axis=1)
    for _ in range(k):
        labels = np.argmin(_sq_dists(P2, xx, centers), axis=0)
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return labels
        own = np.sum((X - centers[labels]) ** 2, axis=1)
        for e in empty:
            far = int(np.argmax(own))
            centers[e] = X[far]
            own[far] = -1.0
    return np.argmin(_sq_dists(P2, xx, centers), axis=0)


def _bins(labels: np.ndarray, k: int) -> np.ndarray:
    """(n, R) bins of R restarts' labels (R, n), point-major: row i holds
    bin r*k + labels[r, i] of each restart r, so that a flattened pass meets
    the points in sample order and each point's restarts in turn."""
    R, n = labels.shape
    bins = np.empty((n, R), dtype=np.intp)
    np.add(labels.T, k * np.arange(R), out=bins)
    return bins


def _counts(bins: np.ndarray, k: int) -> np.ndarray:
    """(R, k) number of points each restart assigns to each cluster, from
    their bins (n, R) of :func:`_bins`."""
    R = bins.shape[1]
    return np.bincount(bins.ravel(), minlength=R * k).reshape(R, k)


def _assign(X: np.ndarray, P2: np.ndarray, xx: np.ndarray, centers: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, n) nearest-center labels for R restarts' centers (R, k, d), ties
    to the lowest index, their (R, k) cluster counts and their (n, R) bins of
    :func:`_bins`; ``P2`` and ``xx`` are the points' terms of
    :func:`_sq_dists`. A restart that leaves a cluster empty is reassigned by
    :func:`_assign_with_repair`, which moves its centers in place."""
    R, k, d = centers.shape
    by_center = centers.transpose(1, 0, 2).reshape(k * R, d)
    labels = _nearest(_sq_dists(P2, xx, by_center), k)
    bins = _bins(labels, k)
    counts = _counts(bins, k)
    for r in np.flatnonzero(np.any(counts == 0, axis=1)):
        labels[r] = _assign_with_repair(X, centers[r])
        bins[:, r] = labels[r] + np.intp(k * r)
        counts[r] = np.bincount(labels[r], minlength=k)
    return labels, counts, bins


def _cluster_means(X: np.ndarray, bins: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """(R, k, d) means of the points each restart assigns to each cluster,
    given their bins (n, R) of :func:`_bins` and their counts (R, k); an
    empty cluster's mean is 0. Every sum adds its points in sample order."""
    R, k = counts.shape
    flat = bins.ravel()
    sums = np.stack([np.bincount(flat, weights=np.repeat(x, R), minlength=R * k)
                     for x in X.T], axis=1)
    return sums.reshape(R, k, -1) / np.maximum(counts, 1.0)[:, :, None]


@one_thread()
def kmeans(points: np.ndarray, cfg: KMeansConfig) -> Labeling:
    """Cluster the columns of ``points`` (dim x n) into cfg.k groups.

    Runs cfg.restarts independent Lloyd passes with k-means++ seeding, all
    advancing together, and returns the labeling with minimum inertia; ties
    go to the lowest restart index. Deterministic for fixed (points, cfg).
    Raises :class:`NonFiniteError` when a point is not finite, or so large
    that squared norms or distances overflow.
    """
    # in C order, whatever the caller's, so a point's squared coordinates are
    # added in coordinate order (see the module docstring)
    X = np.ascontiguousarray(points, dtype=np.float64).T
    n = X.shape[0]
    if n < cfg.k:
        raise TooFewPointsError(f"{n} points cannot form {cfg.k} clusters")
    # the Lloyd steps expand a squared distance as |x|^2 - 2 x.c + |c|^2,
    # where each center c is a mean of points: all finite while 4 |x|^2 is
    with np.errstate(over="ignore"):
        xx = np.sum(X * X, axis=1)
        if not np.isfinite(4.0 * xx).all():
            raise NonFiniteError("points contain NaN or Inf, or their squared "
                                 "norms overflow; rescale the points")
    P2 = 2.0 * X.T
    k = cfg.k
    centers = _seed_centers(X, k, cfg.seed, cfg.restarts)
    labels, counts, bins = _assign(X, P2, xx, centers)
    active = np.arange(cfg.restarts)
    stopped = []  # (restart indices, their labels), as restarts stop
    for _ in range(_MAX_ITERS):
        new_centers = _cluster_means(X, bins, counts)
        del bins  # not held through the next distance product
        shift = np.sqrt(np.max(np.sum((new_centers - centers) ** 2, axis=2),
                               axis=1))
        centers = new_centers
        new_labels, counts, bins = _assign(X, P2, xx, centers)
        done = np.all(new_labels == labels, axis=1) | (shift <= _TOL)
        stopped.append((active[done], new_labels[done]))
        active, centers, labels, counts = (
            active[~done], centers[~done], new_labels[~done], counts[~done])
        del new_labels  # so each restart's labels are held once
        if active.size == 0:
            break
        if done.any():
            bins = _bins(labels, k)
    stopped.append((active, labels))
    final = np.empty((cfg.restarts, n), dtype=labels.dtype)
    for idx, rows in stopped:
        final[idx] = rows
    del stopped, labels  # final holds every restart's labels now
    bins = _bins(final, k)
    means = _cluster_means(X, bins, _counts(bins, k))
    del bins
    # the (R, n, d) squared residuals, formed in the gathered means' buffer
    residuals = means[np.arange(cfg.restarts)[:, None], final]
    np.subtract(X, residuals, out=residuals)
    np.square(residuals, out=residuals)
    inertia = np.sum(residuals.reshape(cfg.restarts, -1), axis=1)
    best = int(np.argmin(inertia))
    return Labeling(labels=final[best].astype(np.intp),
                    inertia=float(inertia[best]),
                    centers=means[best].copy())
