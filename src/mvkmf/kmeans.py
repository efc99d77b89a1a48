"""Multi-restart Lloyd k-means over the columns of a consensus embedding.

The embedding H is k x n; its columns are the points to cluster, passed to
k-means unscaled, and they must all be finite. Restarts use k-means++
seeding (Arthur and Vassilvitskii, SODA 2007), each restart drawing from its
own generator derived from (seed, restart index).

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
Points so large that the Lloyd steps' distance expansion could overflow
(4 |x|^2 is not finite), and D^2 totals that overflow to inf, raise
:class:`NonFiniteError`; ``choice`` would raise a bare ``ValueError``.

The restarts then advance in lockstep. Each Lloyd step serves all restarts
still running with one (n x R*k) distance product, one argmin and, for the
cluster means, one ``bincount`` per coordinate over R*k offset bins, so a
call costs a few array passes per step rather than a Python loop per
restart. Every restart still does its own arithmetic in its own order:
distances are the columns the one-restart product would give, and each
bincount sums a cluster's points in sample order, as a per-restart loop
does. A restart leaves the active set when its labels stop changing or its
centers move by at most ``tol``; one that leaves a cluster empty is repaired
on its own. The inertia of every restart comes from one reduction over its
n x d squared residuals, summed in the order a per-restart sum uses.

A call holds about one array of n x R*k floats at a time. The distance
expansion, each seeding step's differences and the final residuals are each
formed in one buffer by in-place steps, which are the operations of the
plain expressions in their order, so they give the same bits; and each
restart's labels are held once, by the running set or by the list of
restarts that have stopped.

A call runs numpy's BLAS on one thread (``mvkmf._blas``) and restores the
caller's count on return or raise: its distance products, n x d times
d x R*k, are too skinny to gain from a second thread, which only fights the
main thread. So, wherever numpy's count can be set, the bits do not depend
on the caller's count. The count is global to the process; mvkmf starts no
threads of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_thread
from .errors import BadParamError, NonFiniteError, TooFewPointsError

# Samples per block where labels are read off the distances; a block's
# (rows, restarts) indices are the only temporary that step forms.
_ROWS = 256


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    restarts: int = 50
    max_iters: int = 300
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise BadParamError(f"k must be >= 2, got {self.k}")
        if self.restarts < 1:
            raise BadParamError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise BadParamError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol < 0:
            raise BadParamError(f"tol must be >= 0, got {self.tol}")
        if self.seed < 0:
            raise BadParamError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Labeling:
    """Winning restart: integer labels in [0, k), its within-cluster sum of
    squares, and the centers (each the mean of its assigned points)."""

    labels: np.ndarray
    inertia: float
    centers: np.ndarray


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, never negative: the expansion
    |x|^2 - 2 x.c + |c|^2, left to right, formed in the product's buffer."""
    d = 2.0 * X @ centers.T
    np.subtract(np.sum(X * X, axis=1)[:, None], d, out=d)
    np.add(d, np.sum(centers * centers, axis=1)[None, :], out=d)
    return np.maximum(d, 0.0, out=d)


def _sq_dists_to(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(R, n) squared distances of the points to one center per restart,
    ``c`` (R, d): sum((X - c)**2) over coordinates, squared in place."""
    diff = X - c[:, None]
    return np.sum(np.square(diff, out=diff), axis=2)


def _seed_centers(X: np.ndarray, k: int, seed: int, restarts: int) -> np.ndarray:
    """(R, k, d) k-means++ centers of all restarts, restart r drawing from
    ``default_rng([seed, r])`` (see the module docstring)."""
    n = X.shape[0]
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    centers = np.empty((restarts, k, X.shape[1]))
    centers[:, 0] = X[[rng.integers(n) for rng in rngs]]
    # overflow is reported as an infinite total; a zero total makes its row
    # NaN, and that row takes its drawn integer instead
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _sq_dists_to(X, centers[:, 0])
        for j in range(1, k):
            centers[:, j] = X[_draw_next(d2, rngs)]
            np.minimum(d2, _sq_dists_to(X, centers[:, j]), out=d2)
    return centers


def _draw_next(d2: np.ndarray, rngs: list) -> np.ndarray:
    """(R,) indices of each restart's next center, drawn with probability
    proportional to its row of D^2 (R, n) as ``choice`` draws it."""
    total = d2.sum(axis=1)
    if np.isinf(total).any():
        raise NonFiniteError(
            "squared distances between points overflow; rescale the points")
    positive = total > 0
    draw = np.array([rng.random() if p else rng.integers(d2.shape[1])
                     for rng, p in zip(rngs, positive)])
    cdf = np.cumsum(d2 / total[:, None], axis=1)
    cdf /= cdf[:, -1:].copy()  # a view would make numpy copy all of cdf
    return np.where(positive, np.count_nonzero(cdf <= draw[:, None], axis=1),
                    draw.astype(np.intp))


def _assign_with_repair(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels (ties to the lowest index). Empty clusters are
    reseeded at the point farthest from its currently assigned center, one
    repair pass per empty cluster, then reassigned."""
    k = centers.shape[0]
    for _ in range(k):
        labels = np.argmin(_sq_dists(X, centers), axis=1)
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return labels
        own = np.sum((X - centers[labels]) ** 2, axis=1)
        for e in empty:
            far = int(np.argmax(own))
            centers[e] = X[far]
            own[far] = -1.0
    return np.argmin(_sq_dists(X, centers), axis=1)


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(R, n) nearest-center labels for R restarts' centers (R, k, d), ties
    to the lowest index. A restart that leaves a cluster empty is reassigned
    by :func:`_assign_with_repair`, which moves its centers in place."""
    R, k, d = centers.shape
    n = X.shape[0]
    dist = _sq_dists(X, centers.reshape(R * k, d)).reshape(n, R, k)
    labels = np.empty((R, n), dtype=np.intp)
    for i in range(0, n, _ROWS):  # argmin's (rows, R) result a block at a time
        labels[:, i:i + _ROWS] = np.argmin(dist[i:i + _ROWS], axis=2).T
    del dist
    counts = np.bincount((labels + k * np.arange(R)[:, None]).ravel(),
                         minlength=R * k).reshape(R, k)
    for r in np.flatnonzero(np.any(counts == 0, axis=1)):
        labels[r] = _assign_with_repair(X, centers[r])
    return labels


def _cluster_means(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(R, k, d) means of the points each restart assigns to each cluster; an
    empty cluster's mean is 0. Every sum adds its points in sample order."""
    R = labels.shape[0]
    bins = (labels + k * np.arange(R)[:, None]).ravel()
    counts = np.bincount(bins, minlength=R * k).astype(float)
    sums = np.stack([np.bincount(bins, weights=np.tile(x, R), minlength=R * k)
                     for x in X.T], axis=1)
    return sums.reshape(R, k, -1) / np.maximum(counts, 1.0).reshape(R, k, 1)


@one_thread()
def kmeans(points: np.ndarray, cfg: KMeansConfig) -> Labeling:
    """Cluster the columns of ``points`` (dim x n) into cfg.k groups.

    Runs cfg.restarts independent Lloyd passes with k-means++ seeding, all
    advancing together, and returns the labeling with minimum inertia; ties
    go to the lowest restart index. Deterministic for fixed (points, cfg).
    Raises :class:`NonFiniteError` when a point is not finite, or so large
    that squared norms or distances overflow.
    """
    X = np.asarray(points, dtype=np.float64).T
    n = X.shape[0]
    if n < cfg.k:
        raise TooFewPointsError(f"{n} points cannot form {cfg.k} clusters")
    # the Lloyd steps expand a squared distance as |x|^2 - 2 x.c + |c|^2,
    # where each center c is a mean of points: all finite while 4 |x|^2 is
    with np.errstate(over="ignore"):
        if not np.isfinite(4.0 * np.sum(X * X, axis=1)).all():
            raise NonFiniteError("points contain NaN or Inf, or their squared "
                                 "norms overflow; rescale the points")
    k = cfg.k
    centers = _seed_centers(X, k, cfg.seed, cfg.restarts)
    labels = _assign(X, centers)
    active = np.arange(cfg.restarts)
    stopped = []  # (restart indices, their labels), as restarts stop
    for _ in range(cfg.max_iters):
        new_centers = _cluster_means(X, labels, k)
        shift = np.sqrt(np.max(np.sum((new_centers - centers) ** 2, axis=2),
                               axis=1))
        centers = new_centers
        new_labels = _assign(X, centers)
        done = np.all(new_labels == labels, axis=1) | (shift <= cfg.tol)
        stopped.append((active[done], new_labels[done]))
        active, centers, labels = (active[~done], centers[~done],
                                   new_labels[~done])
        del new_labels  # so each restart's labels are held once
        if active.size == 0:
            break
    stopped.append((active, labels))
    final = np.empty((cfg.restarts, n), dtype=np.intp)
    for idx, rows in stopped:
        final[idx] = rows
    del stopped, labels  # final holds every restart's labels now
    means = _cluster_means(X, final, k)
    # the (R, n, d) squared residuals, formed in the gathered means' buffer
    residuals = means[np.arange(cfg.restarts)[:, None], final]
    np.subtract(X, residuals, out=residuals)
    np.square(residuals, out=residuals)
    inertia = np.sum(residuals.reshape(cfg.restarts, -1), axis=1)
    best = int(np.argmin(inertia))
    return Labeling(labels=final[best].copy(), inertia=float(inertia[best]),
                    centers=means[best].copy())
