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
element is the sqrt of its sqeuclidean element.

A ``KernelMatrix`` made from an array from outside (a kernel file, or an
array a caller passes) gets the asymmetry scan, which works in tiles of
rows. The kernels built and normalized here are exactly symmetric by
construction and skip it; they keep the shape and finiteness checks. Where a
kernel is symmetrized (a repaired file, the inner-product kernels, the
centered one), it is K/2 + K^T/2, which no finite K can overflow, formed in
place a tile at a time, so it allocates no n x n temporary.
:func:`validate_kernel_set` factors each kernel in place, so neither the
scan nor the validation forms an n x n temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import pdist, squareform

from .errors import (
    AsymmetricKernelError,
    BadParamError,
    DimensionMismatchError,
    NonFiniteError,
    ZeroDiagonalError,
)

# Asymmetry up to this magnitude is treated as file rounding noise and
# repaired by K/2 + K^T/2; anything larger is rejected.
SYMMETRY_TOL = 1e-8

# Rows per tile in the blockwise symmetry check and symmetrization; a tile of
# n rows is the largest temporary either forms.
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

    Kernels that ``build_kernel`` and ``normalize_kernel`` make are exactly
    symmetric, so they skip the asymmetry scan.
    """

    data: np.ndarray
    view_name: str

    def __post_init__(self):
        data = _square_finite(self.data, self.view_name)
        asym = _max_asymmetry(data)
        if asym > SYMMETRY_TOL:
            raise AsymmetricKernelError(
                f"view {self.view_name!r}: asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}"
            )
        if asym > 0.0:
            data = _symmetrize(data.copy())  # data may be the caller's
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def _square_finite(data, view_name: str) -> np.ndarray:
    """``data`` as a float64 array, checked to be square and finite."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise DimensionMismatchError(
            f"view {view_name!r}: kernel must be square, got {data.shape}"
        )
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"view {view_name!r}: kernel contains NaN/Inf")
    return data


def _symmetric_kernel(data, view_name: str) -> KernelMatrix:
    """A ``KernelMatrix`` of ``data`` that is exactly symmetric by
    construction (built or normalized here). It gets the shape and
    finiteness checks, since a build can overflow, but not the asymmetry
    scan, whose answer is known: 0.0."""
    kernel = object.__new__(KernelMatrix)
    object.__setattr__(kernel, "data", _square_finite(data, view_name))
    object.__setattr__(kernel, "view_name", view_name)
    return kernel


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


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Overwrite ``a`` with A/2 + A^T/2, over the tile pairs (I, J) with
    I <= J, and return it.

    Halving first means no finite A overflows, and halving is exact in the
    normal range, so there it has the bits of (A + A^T) / 2. Each entry is
    one sum of the two halves, the same either way round, so the result is
    exactly symmetric. Tile pair (I, J) reads only tiles IJ and JI, which it
    then overwrites, so a tile is the only temporary.
    """
    a *= 0.5
    n = a.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            t = a[i:i + _TILE, j:j + _TILE] + a[j:j + _TILE, i:i + _TILE].T
            a[i:i + _TILE, j:j + _TILE] = t
            a[j:j + _TILE, i:i + _TILE] = t.T
    return a


@dataclass(frozen=True)
class KernelSet:
    """The per-view kernels of one dataset: at least one view, all with one
    sample count and distinct view names. An inconsistent set raises on
    construction (``BadParamError`` when empty or when a view is not a
    ``KernelMatrix``, ``DimensionMismatchError`` otherwise), so every
    ``KernelSet`` is consistent; per-view health is
    :func:`validate_kernel_set`'s job."""

    kernels: tuple[KernelMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.kernels) < 1:
            raise BadParamError("kernel set needs at least one view")
        for i, k in enumerate(self.kernels):
            if not isinstance(k, KernelMatrix):
                raise BadParamError(f"view {i} is a {type(k).__name__}, "
                                    "not a KernelMatrix")
        n = self.kernels[0].n
        for k in self.kernels[1:]:
            if k.n != n:
                raise DimensionMismatchError(
                    f"views disagree on sample count: {n} vs {k.n} "
                    f"({k.view_name!r})")
        names = self.view_names
        if len(set(names)) != len(names):
            raise DimensionMismatchError(f"duplicate view names in {names}")

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
    kernels are symmetrized against rounding), so it skips the ingest
    asymmetry scan. Features whose distances or inner products overflow
    give ``NonFiniteError``, with no ``RuntimeWarning`` before it.
    """
    X = features.data
    # an overflow or the NaN it leads to is caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.kind == "linear":
            K = _symmetrize(X.T @ X)
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
            del c  # freed before the finiteness check allocates
            np.fill_diagonal(K, 1.0)
        else:  # polynomial
            K = _symmetrize((X.T @ X + spec.c) ** spec.degree)
    return _symmetric_kernel(K, features.view_name)


def normalize_kernel(kernel: KernelMatrix, mode: str = "none") -> KernelMatrix:
    """Rescale a kernel: ``none``, ``cosine`` (unit diagonal), or ``center``.

    cosine: K_ij <- K_ij / sqrt(K_ii K_jj); requires a strictly positive
    diagonal. center: double-centering, K <- K - 1K/n - K1/n + 1K1/n^2, which
    zeroes every row and column sum. Both results are exactly symmetric by
    construction and skip the ingest asymmetry scan.
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
        return _symmetric_kernel(out, kernel.view_name)
    if mode == "center":
        row_mean = K.mean(axis=1, keepdims=True)
        col_mean = K.mean(axis=0, keepdims=True)
        out = _symmetrize(K - row_mean - col_mean + K.mean())
        return _symmetric_kernel(out, kernel.view_name)
    raise BadParamError(f"unknown normalization mode {mode!r}")


@dataclass(frozen=True)
class KernelReport:
    """Per-view health summary produced by :func:`validate_kernel_set`."""

    view_name: str
    indefinite: bool


def _cholesky_succeeds(K: np.ndarray) -> bool:
    """Whether K + tau*I has a Cholesky factor, tau = 1e-10 * max(1, |tr K|).

    LAPACK's dpotrf factors the Fortran-ordered view F of K in place and
    reads and writes only F's lower triangle (``clean=0`` leaves the other
    one alone). The untouched triangle holds the same numbers, so the
    factored one is copied back from it and the saved diagonal is put back:
    K comes back bit for bit. F is copied once when it is read-only (f2py
    would write through it) or not Fortran-contiguous (f2py would copy it
    in silence).
    """
    F = K if K.flags.f_contiguous else K.T
    if not (F.flags.f_contiguous and F.flags.writeable):
        F = np.array(F, order="F")
    A = F.T  # C-ordered: dpotrf writes A's upper triangle
    diag = A.diagonal().copy()
    np.fill_diagonal(A, diag + 1e-10 * max(1.0, abs(float(diag.sum()))))
    try:
        info = dpotrf(F, lower=1, clean=0, overwrite_a=1)[1]
    finally:
        for i in range(A.shape[0] - 1):
            A[i, i + 1:] = A[i + 1:, i]
        np.fill_diagonal(A, diag)
    return info == 0


def validate_kernel_set(ks: KernelSet) -> tuple[KernelReport, ...]:
    """Per-view health of a kernel set: one report per view, in view order.

    The set is consistent by construction (see :class:`KernelSet`), and
    small asymmetries were already repaired at ingest (see
    :class:`KernelMatrix`). A view is ``indefinite`` exactly when
    K + tau*I, tau = 1e-10 * max(1, |tr K|), has no Cholesky factor, i.e.
    when K has an eigenvalue below -tau up to the factorization's rounding.
    Indefinite kernels are flagged but accepted, since the solver's
    closed-form updates never need positive semidefiniteness.

    Each kernel is factored in its own storage and restored bit for bit
    before the next one, so no other thread may read the kernels while this
    runs; a read-only or non-contiguous kernel is copied once instead.
    """
    return tuple(KernelReport(view_name=k.view_name,
                              indefinite=not _cholesky_succeeds(k.data))
                 for k in ks.kernels)
