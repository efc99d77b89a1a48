"""Multi-restart Lloyd k-means over the columns of a consensus embedding.

The embedding H is k x n; its columns are the points to cluster, passed to
k-means unscaled. Restarts use k-means++ seeding, each restart drawing from
its own generator derived from (seed, restart index). Seeding is the only
random step and a restart's draws depend on nothing but that generator, so
seeding every restart up front draws exactly what one restart at a time
would.

The restarts then advance in lockstep. Each Lloyd step serves all restarts
still running with one (n x R*k) distance product, one argmin and one
``bincount`` over R*k offset bins for the cluster means, so a call costs a
few array passes per step rather than a Python loop per restart. Every
restart still does its own arithmetic in its own order: distances are the
columns the one-restart product would give, and the bincount sums each
cluster's points in sample order, as a per-restart loop does. A restart
leaves the active set when its labels stop changing or its centers move by
at most ``tol``; one that leaves a cluster empty is repaired on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParamError, TooFewPointsError


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


@dataclass(frozen=True)
class Labeling:
    """Winning restart: integer labels in [0, k), its within-cluster sum of
    squares, and the centers (each the mean of its assigned points)."""

    labels: np.ndarray
    inertia: float
    centers: np.ndarray


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, never negative."""
    d = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * X @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def _kmeanspp_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # every point coincides with an existing center
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


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
    dist = _sq_dists(X, centers.reshape(R * k, d)).reshape(-1, R, k)
    labels = np.ascontiguousarray(np.argmin(dist, axis=2).T)
    counts = np.bincount((labels + k * np.arange(R)[:, None]).ravel(),
                         minlength=R * k).reshape(R, k)
    for r in np.flatnonzero(np.any(counts == 0, axis=1)):
        labels[r] = _assign_with_repair(X, centers[r])
    return labels


def _cluster_means(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(R, k, d) means of the points each restart assigns to each cluster; an
    empty cluster's mean is 0. Every sum adds its points in sample order."""
    R, n = labels.shape
    d = X.shape[1]
    bins = labels + k * np.arange(R)[:, None]
    counts = np.bincount(bins.ravel(), minlength=R * k).astype(float)
    sums = np.bincount((bins[:, :, None] * d + np.arange(d)).ravel(),
                       weights=np.broadcast_to(X, (R, n, d)).ravel(),
                       minlength=R * k * d)
    return sums.reshape(R, k, d) / np.maximum(counts, 1.0).reshape(R, k, 1)


def _wcss(X: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    return float(np.sum((X - centers[labels]) ** 2))


def kmeans(points: np.ndarray, cfg: KMeansConfig) -> Labeling:
    """Cluster the columns of ``points`` (dim x n) into cfg.k groups.

    Runs cfg.restarts independent Lloyd passes with k-means++ seeding, all
    advancing together, and returns the labeling with minimum inertia; ties
    go to the lowest restart index. Deterministic for fixed (points, cfg).
    """
    X = np.asarray(points, dtype=np.float64).T
    n = X.shape[0]
    if n < cfg.k:
        raise TooFewPointsError(f"{n} points cannot form {cfg.k} clusters")
    k = cfg.k
    centers = np.stack([
        _kmeanspp_centers(X, k, np.random.default_rng([cfg.seed, r]))
        for r in range(cfg.restarts)])
    labels = _assign(X, centers)
    final = np.empty_like(labels)
    active = np.arange(cfg.restarts)
    for _ in range(cfg.max_iters):
        new_centers = _cluster_means(X, labels, k)
        shift = np.sqrt(np.max(np.sum((new_centers - centers) ** 2, axis=2),
                               axis=1))
        centers = new_centers
        new_labels = _assign(X, centers)
        done = np.all(new_labels == labels, axis=1) | (shift <= cfg.tol)
        final[active[done]] = new_labels[done]
        active, centers, labels = (active[~done], centers[~done],
                                   new_labels[~done])
        if active.size == 0:
            break
    final[active] = labels
    means = _cluster_means(X, final, k)
    inertia = [_wcss(X, final[r], means[r]) for r in range(cfg.restarts)]
    best = int(np.argmin(inertia))
    return Labeling(labels=final[best].copy(), inertia=inertia[best],
                    centers=means[best].copy())
