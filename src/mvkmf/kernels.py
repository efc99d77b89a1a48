"""Per-view kernel construction, normalization, and validation.

A "view" is one feature representation of a common sample set. Each view
enters the solver as a symmetric n x n kernel matrix; this module builds
those matrices from raw features (columns = samples), normalizes them, and
sanity-checks a whole multi-view collection before fitting.

An rbf kernel costs one squared-distance pass, and the build runs inside
the kernel's own n x n buffer. ``pdist(..., "sqeuclidean")`` writes the
condensed vector of the n(n-1)/2 pairwise squared distances into the tail of
that buffer; the median heuristic copies it to the free head and reads sigma
there by one selection; ``exp`` runs in place on the tail; each row then
moves to its place in the upper triangle, which is mirrored onto the lower
one. So the build holds the kernel and a count of the zero distances (n^2/2
bytes), about 1.06 n^2 floats at its peak. The sqrt of the selected squared
distance is exactly the median of the Euclidean distances: sqrt is
monotone, so it maps order statistics onto order statistics, and
``pdist``'s euclidean element is the sqrt of its sqeuclidean element.

A ``KernelMatrix`` made from an array from outside (a kernel file, or an
array a caller passes) gets the asymmetry scan, which works in tiles of
rows. The kernels built and normalized here are exactly symmetric by
construction and skip it; they keep the shape and finiteness checks. Where a
kernel is symmetrized (a repaired file, the inner-product kernels, the
centered one), it is K/2 + K^T/2, which no finite K can overflow, formed in
place a tile at a time, so it allocates no n x n temporary. The finiteness
check and the cosine normalization work a tile of rows at a time too.

Every kernel ``build_kernel`` makes is also positive semidefinite by
construction: rbf kernels are Gaussian, linear ones are Gram matrices, and
polynomial ones are sums of elementwise products of Gram matrices, since
``KernelSpec`` admits only c >= 0 and an integer degree. Cosine (D K D) and
centering (P K P) keep a kernel PSD, so ``normalize_kernel`` passes that on.
Such a kernel carries a private mark and a read-only array, so no in-place
edit can make the mark stale, and :func:`validate_kernel_set` answers from
the mark. Kernel files, arrays from callers, and normalized versions of
either pay the exact O(n^3) Cholesky check, which factors each kernel in
place, so neither the scan nor the validation forms an n x n temporary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import pdist

from ._blas import released
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

# Rows per tile in the blockwise checks, symmetrization and mirroring; a
# tile of n rows is the largest temporary any of them forms.
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


@dataclass(frozen=True)
class KernelMatrix:
    """One view's n x n kernel: square, finite, symmetric and C-ordered.
    The solver's entry points ingest a raw array through it too.

    An array from outside gets the asymmetry scan: above SYMMETRY_TOL it
    raises ``AsymmetricKernelError``, below it is repaired in a copy. A
    Fortran-ordered array is kept as its transpose, the same symmetric
    matrix in the same memory, and any other non-contiguous one is copied
    once, so every layout gives the same bits. Kernels that ``build_kernel``
    and ``normalize_kernel`` make are exactly symmetric and C-ordered, so
    they skip the scan. Those that are also PSD by construction (see the
    module docstring) hold a read-only array and a mark that only this
    module sets.
    """

    data: np.ndarray
    view_name: str

    # not a field: no caller can claim definiteness for an array from outside
    _psd_by_construction = False

    def __setstate__(self, state):
        # a deep copy or an unpickled kernel gets a new, writable array; a
        # marked one is made read-only again, so the mark cannot go stale
        if state.get("_psd_by_construction"):
            state["data"].flags.writeable = False
        self.__dict__.update(state)

    def __post_init__(self):
        data = _square_finite(self.data, self.view_name)
        asym = _max_asymmetry(data)
        if asym > SYMMETRY_TOL:
            raise AsymmetricKernelError(
                f"view {self.view_name!r}: asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}"
            )
        if asym > 0.0:
            data = _symmetrize(data.copy())  # data may be the caller's
        elif data.flags.f_contiguous:
            data = data.T  # the same matrix, C-ordered
        object.__setattr__(self, "data", np.ascontiguousarray(data))

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
    for i in range(0, data.shape[0], _TILE):
        if not np.isfinite(data[i:i + _TILE]).all():
            raise NonFiniteError(f"view {view_name!r}: kernel contains NaN/Inf")
    return data


def _symmetric_kernel(data, view_name: str, psd: bool) -> KernelMatrix:
    """A ``KernelMatrix`` of ``data`` that is exactly symmetric by
    construction (built or normalized here). It gets the shape and
    finiteness checks, since a build can overflow, but not the asymmetry
    scan, whose answer is known: 0.0. With ``psd`` the kernel is also PSD by
    construction: it is marked so, and its array is made read-only."""
    kernel = object.__new__(KernelMatrix)
    data = _square_finite(data, view_name)
    if psd:
        data.flags.writeable = False
        object.__setattr__(kernel, "_psd_by_construction", True)
    object.__setattr__(kernel, "data", data)
    object.__setattr__(kernel, "view_name", view_name)
    return kernel


def _max_asymmetry(a: np.ndarray) -> float:
    """max |A - A^T| over the tile pairs (I, J) with I <= J; 0.0 if empty.

    |A_IJ - A_JI^T| holds the same magnitudes as the mirrored pair, so the
    upper tiles see every entry of A - A^T and the max equals the full one.
    """
    n = a.shape[0]
    asym = 0.0
    buf = np.empty((min(n, _TILE), min(n, _TILE)))  # the one tile temporary
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = a[i:i + _TILE, j:j + _TILE]
            d = buf[:upper.shape[0], :upper.shape[1]]
            np.subtract(upper, a[j:j + _TILE, i:i + _TILE].T, out=d)
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


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of square ``a`` onto its strict lower
    one, a[j, i] = a[i, j] for i < j, a tile pair at a time, so a tile is
    the only temporary. Pass ``a.T`` to copy the lower triangle onto the
    upper one."""
    n = a.shape[0]
    for i in range(0, n, _TILE):
        d = a[i:i + _TILE, i:i + _TILE]
        lower = np.tri(d.shape[0], k=-1, dtype=bool)
        d[lower] = d.T[lower]
        for j in range(i + _TILE, n, _TILE):
            a[j:j + _TILE, i:i + _TILE] = a[i:i + _TILE, j:j + _TILE].T


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
    def view_names(self) -> tuple[str, ...]:
        return tuple(k.view_name for k in self.kernels)


def _reject_bools(**values) -> None:
    """Raise ``BadParamError``, naming the field, for a value that is a
    bool, which Python's and numpy's numeric checks would pass as 0 or 1."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)):
            raise BadParamError(f"{name} must not be a bool, got {value!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function descriptor: linear, rbf(sigma), or polynomial(c, degree).

    ``sigma=None`` selects the median heuristic: the median of the nonzero
    pairwise Euclidean distances, read exactly as the sqrt of the middle
    squared distances (sqrt is monotone).

    Only specs whose kernels are PSD for every input are accepted: c < 0
    (or NaN) and a degree that is not an integer >= 1 raise
    ``BadParamError``, since (x^T y + c)^degree is indefinite for some
    inputs with either. An integral float degree is stored as an int. A
    bool, Python's or numpy's, is refused for sigma, c and degree alike.
    """

    kind: str = "rbf"
    sigma: float | None = None
    c: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "polynomial"):
            raise BadParamError(f"unknown kernel kind {self.kind!r}")
        _reject_bools(sigma=self.sigma, c=self.c, degree=self.degree)
        if self.sigma is not None and not self.sigma > 0:
            raise BadParamError(f"rbf sigma must be > 0, got {self.sigma}")
        if not self.c >= 0:
            raise BadParamError(f"polynomial c must be >= 0, got {self.c}")
        if not (isinstance(self.degree, numbers.Real)
                and float(self.degree).is_integer()):
            raise BadParamError(
                f"polynomial degree must be an integer, got {self.degree!r}")
        object.__setattr__(self, "degree", int(self.degree))
        if self.degree < 1:
            raise BadParamError(f"polynomial degree must be >= 1, got {self.degree}")

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        c = d.get("c", 1.0)
        _reject_bools(c=c)  # before float() turns a true into 1.0
        return cls(
            kind=d.get("kind", "rbf"),
            sigma=d.get("sigma"),
            c=float(c),
            degree=d.get("degree", 2),
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
    """Median heuristic from condensed squared distances ``sq``, which it
    reorders in place.

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
    sq.partition(hi)
    upper = np.sqrt(sq[hi])
    if m % 2:
        return float(upper)
    return float((np.sqrt(sq[:hi].max()) + upper) / 2.0)


def build_kernel(features: FeatureMatrix, spec: KernelSpec) -> KernelMatrix:
    """Compute one view's kernel matrix from its feature matrix.

    linear:     K = X^T X
    rbf:        K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2))
    polynomial: K_ij = (x_i^T x_j + c)^degree

    The result is exactly symmetric (rbf by construction, the inner-product
    kernels are symmetrized against rounding), so it skips the ingest
    asymmetry scan. It is PSD by construction, so it is marked as such and
    its array is read-only. Features whose distances or inner products
    overflow give ``NonFiniteError``, with no ``RuntimeWarning`` before it.
    """
    X = features.data
    # an overflow or the NaN it leads to is caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.kind == "linear":
            K = _symmetrize(X.T @ X)
        elif spec.kind == "rbf":
            K = _rbf(X, spec.sigma)
        else:  # polynomial
            K = _symmetrize((X.T @ X + spec.c) ** spec.degree)
    return _symmetric_kernel(K, features.view_name, psd=True)


def _rbf(X: np.ndarray, sigma: float | None) -> np.ndarray:
    """The rbf kernel of the columns of ``X``, formed inside its own n x n
    buffer (see the module docstring).

    The n(n-1)/2 condensed squared distances fill the tail of the flat
    buffer; the median heuristic selects on a copy in the head, which the
    tail does not reach since n(n-1) <= n^2. The elementwise steps are
    those of exp(-sq / (2 sigma^2)) in the same order, so the bits match
    the n x n expression. Row i of the condensed vector starts at least as
    far into the buffer as its destination K[i, i+1:], and destinations
    end before the next row's source, so moving the rows in increasing i
    never overwrites a source not yet read (numpy's assignment copies
    through a temporary where a row overlaps its own destination).
    """
    n = X.shape[1]
    m = n * (n - 1) // 2
    K = np.empty((n, n))
    flat = K.reshape(-1)
    start = n * n - m
    c = flat[start:]
    pdist(X.T, "sqeuclidean", out=c)
    if sigma is None:
        head = flat[:m]
        head[...] = c
        sigma = _median_sigma(head)
    np.negative(c, out=c)
    np.divide(c, 2.0 * sigma * sigma, out=c)
    np.exp(c, out=c)
    for i in range(n - 1):
        K[i, i + 1:] = flat[start:start + n - 1 - i]
        start += n - 1 - i
    _mirror_upper(K)
    np.fill_diagonal(K, 1.0)
    return K


def normalize_kernel(kernel: KernelMatrix, mode: str = "none") -> KernelMatrix:
    """Rescale a kernel: ``none``, ``cosine`` (unit diagonal), or ``center``.

    cosine: K_ij <- K_ij / sqrt(K_ii K_jj); requires a strictly positive
    diagonal. center: double-centering, K <- K - 1K/n - K1/n + 1K1/n^2, which
    zeroes every row and column sum. Both results are exactly symmetric by
    construction and skip the ingest asymmetry scan. Both keep a PSD kernel
    PSD, so they carry the input's mark of definiteness by construction.
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
        # K * outer(inv, inv) a tile of rows at a time, with the factors
        # formed in the output (a product has the same bits either way round)
        out = np.empty(K.shape)
        for i in range(0, K.shape[0], _TILE):
            rows = slice(i, i + _TILE)
            np.multiply(inv[rows, None], inv[None, :], out=out[rows])
            out[rows] *= K[rows]
        np.fill_diagonal(out, 1.0)
        return _symmetric_kernel(out, kernel.view_name,
                                 kernel._psd_by_construction)
    if mode == "center":
        row_mean = K.mean(axis=1, keepdims=True)
        col_mean = K.mean(axis=0, keepdims=True)
        out = _symmetrize(K - row_mean - col_mean + K.mean())
        return _symmetric_kernel(out, kernel.view_name,
                                 kernel._psd_by_construction)
    raise BadParamError(f"unknown normalization mode {mode!r}")


@released()
def _cholesky_succeeds(K: np.ndarray) -> bool:
    """Whether K + tau*I has a Cholesky factor, tau = 1e-10 * max(1, |tr K|).

    LAPACK's dpotrf factors F = K^T, Fortran-ordered since K is a
    ``KernelMatrix``'s array, in place and reads and writes only F's lower
    triangle (``clean=0`` leaves the other one alone). The untouched
    triangle holds the same numbers, so the factored one is copied back from
    it and the saved diagonal is put back: K comes back bit for bit. A
    read-only K is copied once (f2py would write through it). dpotrf runs
    in scipy's BLAS pool, whose workers are released when it returns or
    raises (``mvkmf._blas.released``).
    """
    F = K.T if K.flags.writeable else np.array(K.T, order="F")
    A = F.T  # C-ordered: dpotrf writes A's upper triangle
    diag = A.diagonal().copy()
    np.fill_diagonal(A, diag + 1e-10 * max(1.0, abs(float(diag.sum()))))
    try:
        info = dpotrf(F, lower=1, clean=0, overwrite_a=1)[1]
    finally:
        _mirror_upper(F)  # A's lower triangle onto its upper one
        np.fill_diagonal(A, diag)
    return info == 0


def validate_kernel_set(ks: KernelSet) -> tuple[bool, ...]:
    """Per-view definiteness of a kernel set: one verdict per view, in view
    order, True where the view's kernel is indefinite.

    The set is consistent by construction (see :class:`KernelSet`), and
    small asymmetries were already repaired at ingest (see
    :class:`KernelMatrix`). A view is indefinite exactly when
    K + tau*I, tau = 1e-10 * max(1, |tr K|), has no Cholesky factor, i.e.
    when K has an eigenvalue below -tau up to the factorization's rounding.
    Indefinite kernels are flagged but accepted, since the solver's
    closed-form updates never need positive semidefiniteness.

    Kernels that ``build_kernel`` made, normalized or not, are PSD by
    construction (see the module docstring) and are reported definite with
    no factorization. Every other kernel is factored in its own storage and
    restored bit for bit before the next one, so no other thread may read
    the kernels while this runs; a read-only kernel is copied once instead.
    """
    return tuple(not (k._psd_by_construction or _cholesky_succeeds(k.data))
                 for k in ks.kernels)
