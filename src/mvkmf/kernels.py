"""Per-view kernel construction, normalization, and validation.

A "view" is one feature representation of a common sample set. Each view
enters the solver as a symmetric n x n kernel matrix; this module builds
those matrices from raw features (columns = samples), normalizes them, and
sanity-checks a whole multi-view collection before fitting.

An rbf kernel costs one squared-distance pass: ``pdist(..., "sqeuclidean")``
gives the condensed vector of the n(n-1)/2 pairwise squared distances, the
median heuristic reads sigma from it by one selection, and ``exp`` runs on
the condensed vector before ``squareform`` expands it, so the build holds
about 1.5 n^2 floats at its peak. The sqrt of the selected squared distance
is exactly the median of the Euclidean distances: sqrt is monotone, so it
maps order statistics onto order statistics, and ``pdist``'s euclidean
element is the sqrt of its sqeuclidean element. The symmetry check and the
eigenvalue bound of :func:`validate_kernel_set` work in tiles of rows, so
neither forms an n x n temporary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import (
    AsymmetricKernelError,
    BadParamError,
    DimensionMismatchError,
    NonFiniteError,
    ZeroDiagonalError,
)

# Asymmetry up to this magnitude is treated as file rounding noise and
# repaired by (K + K^T)/2; anything larger is rejected.
SYMMETRY_TOL = 1e-8

# Rows per tile in the blockwise passes over a kernel (the symmetry check and
# the row sums of |K|); a tile of n rows is the largest temporary they form.
_TILE = 256


@dataclass(frozen=True)
class FeatureMatrix:
    """Raw features for one view, d features x n samples."""

    data: np.ndarray
    view_name: str

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DimensionMismatchError(
                f"view {self.view_name!r}: features must be 2-D, got {data.ndim}-D"
            )
        if not np.all(np.isfinite(data)):
            raise NonFiniteError(f"view {self.view_name!r}: features contain NaN/Inf")
        if data.shape[1] < 2:
            raise BadParamError(f"view {self.view_name!r}: need at least 2 samples")
        if data.shape[0] < 1:
            raise BadParamError(f"view {self.view_name!r}: need at least 1 feature")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class KernelMatrix:
    """One view's n x n kernel. Symmetrized on ingest within SYMMETRY_TOL.

    ``ingest_asymmetry`` records max |K_ij - K_ji| seen before the repair so
    validation reports can surface how dirty the source file was.
    """

    data: np.ndarray
    view_name: str
    ingest_asymmetry: float = field(default=0.0, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise DimensionMismatchError(
                f"view {self.view_name!r}: kernel must be square, got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise NonFiniteError(f"view {self.view_name!r}: kernel contains NaN/Inf")
        asym = _max_asymmetry(data)
        if asym > SYMMETRY_TOL:
            raise AsymmetricKernelError(
                f"view {self.view_name!r}: asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}"
            )
        if asym > 0.0:
            data = (data + data.T) / 2.0
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ingest_asymmetry", asym)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def _max_asymmetry(a: np.ndarray) -> float:
    """max |A - A^T| over the tile pairs (I, J) with I <= J; 0.0 if empty.

    |A_IJ - A_JI^T| holds the same magnitudes as the mirrored pair, so the
    upper tiles see every entry of A - A^T and the max equals the full one.
    """
    n = a.shape[0]
    asym = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            d = a[i:i + _TILE, j:j + _TILE] - a[j:j + _TILE, i:i + _TILE].T
            asym = max(asym, float(np.max(np.abs(d, out=d))))
    return asym


@dataclass(frozen=True)
class KernelSet:
    """The per-view kernels of one dataset. Cross-view checks live in
    :func:`validate_kernel_set`, so a structurally inconsistent set can be
    constructed and then rejected with a useful report."""

    kernels: tuple[KernelMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.kernels) < 1:
            raise BadParamError("kernel set needs at least one view")

    @property
    def n(self) -> int:
        return self.kernels[0].n

    @property
    def V(self) -> int:
        return len(self.kernels)

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(k.view_name for k in self.kernels)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function descriptor: linear, rbf(sigma), or polynomial(c, degree).

    ``sigma=None`` selects the median heuristic: the median of the nonzero
    pairwise Euclidean distances, read exactly as the sqrt of the middle
    squared distances (sqrt is monotone).
    """

    kind: str = "rbf"
    sigma: float | None = None
    c: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "polynomial"):
            raise BadParamError(f"unknown kernel kind {self.kind!r}")
        if self.sigma is not None and not self.sigma > 0:
            raise BadParamError(f"rbf sigma must be > 0, got {self.sigma}")
        if self.degree < 1:
            raise BadParamError(f"polynomial degree must be >= 1, got {self.degree}")

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(
            kind=d.get("kind", "rbf"),
            sigma=d.get("sigma"),
            c=float(d.get("c", 1.0)),
            degree=int(d.get("degree", 2)),
        )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "rbf":
            out["sigma"] = self.sigma
        elif self.kind == "polynomial":
            out["c"] = self.c
            out["degree"] = self.degree
        return out


def median_heuristic_sigma(features: FeatureMatrix) -> float:
    """Median of nonzero pairwise Euclidean distances; 1.0 if all coincide.

    Computed from the squared distances: sqrt is monotone, so the sqrt of
    the middle squared distance is the middle distance, bit for bit.
    """
    return _median_sigma(pdist(features.data.T, "sqeuclidean"))


def _median_sigma(sq: np.ndarray) -> float:
    """Median heuristic from condensed squared distances ``sq``.

    One selection places the upper middle of the nonzero entries at index
    ``hi``; for an even count the lower middle is the largest entry below
    it (the zeros sit anywhere below ``hi``, all smaller). The two middles
    are averaged as ``np.median`` averages them.
    """
    zeros = int(np.count_nonzero(sq == 0.0))
    m = sq.size - zeros
    if m == 0:
        return 1.0
    hi = zeros + m // 2
    part = np.partition(sq, hi)
    upper = np.sqrt(part[hi])
    if m % 2:
        return float(upper)
    return float((np.sqrt(part[:hi].max()) + upper) / 2.0)


def build_kernel(features: FeatureMatrix, spec: KernelSpec) -> KernelMatrix:
    """Compute one view's kernel matrix from its feature matrix.

    linear:     K = X^T X
    rbf:        K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2))
    polynomial: K_ij = (x_i^T x_j + c)^degree

    The result is exactly symmetric (rbf by construction, the inner-product
    kernels are symmetrized against rounding).
    """
    X = features.data
    if spec.kind == "linear":
        K = X.T @ X
        K = (K + K.T) / 2.0
    elif spec.kind == "rbf":
        c = pdist(X.T, "sqeuclidean")
        sigma = spec.sigma if spec.sigma is not None else _median_sigma(c)
        if not sigma > 0:
            raise BadParamError(f"rbf sigma must be > 0, got {sigma}")
        # in place, the same elementwise steps in the same order as
        # exp(-sq / (2 sigma^2)), so the bits match the n x n expression
        np.negative(c, out=c)
        np.divide(c, 2.0 * sigma * sigma, out=c)
        np.exp(c, out=c)
        K = squareform(c)
        del c  # freed before KernelMatrix's checks allocate
        np.fill_diagonal(K, 1.0)
    else:  # polynomial
        K = (X.T @ X + spec.c) ** spec.degree
        K = (K + K.T) / 2.0
    return KernelMatrix(K, features.view_name)


def normalize_kernel(kernel: KernelMatrix, mode: str = "none") -> KernelMatrix:
    """Rescale a kernel: ``none``, ``cosine`` (unit diagonal), or ``center``.

    cosine: K_ij <- K_ij / sqrt(K_ii K_jj); requires a strictly positive
    diagonal. center: double-centering, K <- K - 1K/n - K1/n + 1K1/n^2, which
    zeroes every row and column sum.
    """
    K = kernel.data
    if mode == "none":
        return kernel
    if mode == "cosine":
        diag = np.diag(K)
        if np.any(diag <= 0):
            raise ZeroDiagonalError(
                f"view {kernel.view_name!r}: cosine normalization needs K_ii > 0"
            )
        inv = 1.0 / np.sqrt(diag)
        out = K * np.outer(inv, inv)
        np.fill_diagonal(out, 1.0)
        return KernelMatrix(out, kernel.view_name)
    if mode == "center":
        row_mean = K.mean(axis=1, keepdims=True)
        col_mean = K.mean(axis=0, keepdims=True)
        out = K - row_mean - col_mean + K.mean()
        out = (out + out.T) / 2.0
        return KernelMatrix(out, kernel.view_name)
    raise BadParamError(f"unknown normalization mode {mode!r}")


@dataclass(frozen=True)
class KernelReport:
    """Per-view health summary produced by :func:`validate_kernel_set`."""

    view_name: str
    min_eig_estimate: float
    indefinite: bool


@dataclass(frozen=True)
class KernelSetReport:
    views: tuple[KernelReport, ...]

    @property
    def warnings(self) -> list[str]:
        return [
            f"view {v.view_name!r}: indefinite kernel (min eig ~ {v.min_eig_estimate:.3e})"
            for v in self.views
            if v.indefinite
        ]


def _estimate_min_eigenvalue(K: np.ndarray, iters: int = 60) -> float:
    """Power-iteration estimate of the smallest eigenvalue.

    Power iteration alone converges to the eigenvalue of largest magnitude,
    so the matrix is shifted first: with mu >= lambda_max (infinity-norm
    bound), all eigenvalues of mu*I - K are nonnegative and its dominant one
    is mu - lambda_min.
    """
    n = K.shape[0]
    if n == 1:
        return float(K[0, 0])
    # the row sums of |K|, a tile of rows at a time
    mu = max(float(np.max(np.sum(np.abs(K[i:i + _TILE]), axis=1)))
             for i in range(0, n, _TILE))
    if mu == 0.0:
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mu * v - K @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            # mu*I - K annihilates v: v is an eigenvector with eigenvalue mu
            return float(v @ (K @ v))
        v = w / norm
    return float(mu - v @ (mu * v - K @ v))


def _check_views(ks: KernelSet) -> None:
    """Raise ``DimensionMismatchError`` when views disagree on the sample
    count or reuse a view name."""
    n = ks.kernels[0].n
    for k in ks.kernels[1:]:
        if k.n != n:
            raise DimensionMismatchError(
                f"views disagree on sample count: {n} vs {k.n} ({k.view_name!r})"
            )
    names = ks.view_names
    if len(set(names)) != len(names):
        raise DimensionMismatchError(f"duplicate view names in {names}")


def validate_kernel_set(ks: KernelSet) -> KernelSetReport:
    """Check a kernel set for cross-view consistency and per-view health.

    Raises ``DimensionMismatchError`` when views disagree on the sample count
    or reuse a view name. Small asymmetries were already repaired at ingest
    (see ``KernelMatrix.ingest_asymmetry``); indefinite kernels are flagged
    but accepted, since the solver's closed-form updates never need positive
    semidefiniteness.
    """
    _check_views(ks)
    reports = []
    for k in ks.kernels:
        min_eig = _estimate_min_eigenvalue(k.data)
        reports.append(
            KernelReport(
                view_name=k.view_name,
                min_eig_estimate=min_eig,
                indefinite=min_eig < -1e-10 * max(1.0, abs(float(np.trace(k.data)))),
            )
        )
    return KernelSetReport(views=tuple(reports))
