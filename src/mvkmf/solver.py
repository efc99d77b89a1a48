"""Alternating optimization for the unified multi-kernel factorization model.

The model couples every view's kernel K_v to one consensus embedding H
(k x n, orthonormal rows) through a per-view coefficient matrix G_v (n x k)
and squared view weights omega:

    minimize  sum_v omega_v^2 [ ||K_v - G_v H||_F^2 + alpha ||G_v - H^T||_F^2 ]
    s.t.      H H^T = I_k,  sum_v omega_v = 1

Each of the three blocks has a closed-form minimizer, so one iteration is
three exact updates and the objective never increases. Clustering labels come
from running k-means on the columns of the fitted H (see ``mvkmf.kmeans``).

Cost. A fit does no O(n^3) work and allocates no n x n matrix beyond the
kernels themselves:

- Initialization needs only the k leading eigenvectors of one n x n matrix
  per view. A Lanczos solve (ARPACK through ``scipy.sparse.linalg.eigsh``)
  finds them from a small multiple of k matrix-vector products, O(n^2 k) per
  view. The row-sum coupling matrix of ``init_g`` is applied in O(n) per
  vector and never formed. Each product with K_v is BLAS ``dsymv`` from
  scipy's bundled OpenBLAS (``scipy.linalg.blas``), which reads one triangle
  of K_v, so a kernel passed as a raw array must be symmetric.
- Because H H^T = I, the reconstruction term expands with P_v = K_v H^T as

      ||K_v - G_v H||_F^2 = ||K_v||_F^2 - ||P_v||_F^2 + ||P_v - G_v||_F^2,

  so one iteration needs two n x k products per view: K_v H^T for the new
  H, which gives both the loss and the next G step, and K_v P_v for the
  next H step. That is O(n^2 k) per view. At this size the sweep is bound
  by reading the kernels, not by flops, so both products come from one
  pass over K_v in row blocks of at most 1 MiB: each block gives its rows
  of P_v = K_v H^T and then, still in cache, its share of K_v P_v
  (``_kernel_products``). A kernel of at most 1 MiB (n <= 362) is one
  block and takes the two plain products. ||K_v||_F^2 is computed once per
  fit, with the start's P_v and K_v P_v, which serve both the start
  objective and the first sweep.
- The start G and H (``init_point``) do not depend on alpha, so fits over an
  alpha grid can share one and pay the eigensolves once.
- ``init_point``, ``fit``, ``fit_kkm``, ``fit_mkkm`` and each step of
  ``iterate`` run numpy's BLAS on one thread (``mvkmf._blas``) and restore
  the caller's count on return, on a raise and between ``iterate``'s
  yields. Their numpy products are skinny n x n times n x k products bound
  by memory traffic, and a second numpy thread only fights the main thread
  and scipy's BLAS pool, which numpy's does not share. Scipy's pool, which
  runs the seed eigensolve's ``dsymv`` and gains from its threads, is left
  as the process set it. The count is global to the process; mvkmf starts
  no threads of its own.

The public ``update_g``, ``update_h``, ``per_view_loss`` and ``objective``
evaluate the definitions directly; they are the reference the fused sweep is
tested against.

Also here: the single-kernel and multi-kernel k-means baselines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from ._blas import one_thread
from .errors import (
    BadParamError,
    DimensionMismatchError,
    NonFiniteError,
    RankDeficientWarning,
)
from .kernels import KernelMatrix, KernelSet

RANK_TOL = 1e-12
WEIGHT_CLAMP = 1e-12
# seeds the Lanczos start vector and any restart vector ARPACK draws, so
# eigensolves repeat bit for bit
LANCZOS_SEED = 0
# largest row block of a kernel that ``_kernel_products`` multiplies twice
# while it stays in cache
_BLOCK_BYTES = 2 ** 20


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for one fit.

    ``alpha`` trades kernel reconstruction against pulling each G_v toward
    H^T; the benchmark grid is 2^0 .. 2^9 and the default sits where that
    grid tends to peak.
    """

    k: int
    alpha: float = 128.0
    max_iters: int = 100
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.k < 2:
            raise BadParamError(f"cluster count must be >= 2, got {self.k}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise BadParamError(f"alpha must be finite and >= 0, got {self.alpha}")
        _check_limits(self.max_iters, self.rel_tol)


def _check_limits(max_iters: int, rel_tol: float) -> None:
    """The stopping rule's checks, shared by ``SolverConfig`` and
    ``fit_mkkm``: an iteration cap >= 0 and a tolerance > 0 (not NaN)."""
    if max_iters < 0:
        raise BadParamError(f"max_iters must be >= 0, got {max_iters}")
    if not rel_tol > 0:
        raise BadParamError(f"rel_tol must be > 0, got {rel_tol}")


@dataclass
class SolverState:
    """Solver variables after some number of iterations.

    H is k x n with orthonormal rows, G holds one n x k matrix per view,
    omega is the simplex weight vector, and objective_trace[t] is the
    objective after iteration t (entry 0 is the value at initialization).
    """

    H: np.ndarray
    G: tuple[np.ndarray, ...]
    omega: np.ndarray
    objective_trace: np.ndarray


def _as_matrix(kernel) -> np.ndarray:
    """The kernel as a float64 array, checked to be square by its shape
    alone (no pass over the entries)."""
    if isinstance(kernel, KernelMatrix):
        return kernel.data
    K = np.asarray(kernel, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatchError(
            f"kernel must be a square 2-D array, got shape {K.shape}")
    return K


def _kernel_list(ks) -> list[np.ndarray]:
    """The kernels of ``ks`` as arrays: at least one, all square with one
    common sample count. A ``KernelSet`` holds these by construction; any
    other sequence is checked by shape."""
    if isinstance(ks, KernelSet):
        return [k.data for k in ks.kernels]
    kernels = [_as_matrix(k) for k in ks]
    if not kernels:
        raise BadParamError("need at least one kernel")
    n = kernels[0].shape[0]
    for K in kernels[1:]:
        if K.shape[0] != n:
            raise DimensionMismatchError(
                f"kernels disagree on sample count: {n} vs {K.shape[0]}")
    return kernels


def _row_major(K: np.ndarray) -> np.ndarray:
    """Symmetric K as a C-contiguous array: a Fortran-ordered K as K^T, the
    same matrix in the same memory, and any other layout copied once."""
    return np.ascontiguousarray(K.T if K.flags.f_contiguous else K)


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so each one's largest-magnitude entry is
    positive (first occurrence wins on ties). Keeps decompositions
    reproducible across runs."""
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def _top_eigenvectors(M, k: int) -> np.ndarray:
    """Columns: the k eigenvectors of symmetric M with largest eigenvalues,
    in descending eigenvalue order, sign-fixed. Raises ``BadParamError``
    when k exceeds n: the one check of k against the sample count, which
    ``init_g``, ``init_point``, ``fit_kkm`` and ``fit_mkkm`` reach.

    M is an n x n array or a ``LinearOperator``. A Lanczos solve (ARPACK
    ``eigsh`` at machine-precision tolerance) computes only the k leading
    eigenpairs from matrix-vector products, O(n^2) each, instead of a full
    O(n^3) decomposition. The start vector is a fixed-seed Gaussian, not
    all-ones, which lies in the null space of the init matrix of a centered
    kernel. A dense ``eigh`` runs only where the Krylov basis of
    max(2k + 1, 20) vectors would span the whole space (this includes
    k >= n - 1, where ARPACK cannot run) and when ARPACK fails, as it does on
    the zero matrix.
    """
    n = M.shape[0]
    if k > n:
        raise BadParamError(f"k={k} exceeds sample count {n}")
    # an array M (fit_kkm, fit_mkkm) keeps numpy's gemv, on one thread under
    # their scope, because the kkm and mkkm outputs carry its bits. Through
    # scipy's dsymv these solves took about twice as long at n=300 while
    # numpy's pool ran two threads beside scipy's; with numpy's pool on one
    # thread dsymv is faster (n=300: 1.7 against 2.0 ms per solve, n=2000:
    # 18 against 58 ms), but it changes the bits
    if n > max(2 * k + 1, 20):
        rng = np.random.default_rng(LANCZOS_SEED)
        try:
            vals, vecs = eigsh(M, k, which="LA", v0=rng.standard_normal(n),
                               tol=0, rng=rng)
        except ArpackError:
            pass
        else:
            return _fix_column_signs(vecs[:, np.argsort(vals)[::-1]])
    dense = M if isinstance(M, np.ndarray) else M @ np.eye(n)
    _, vecs = np.linalg.eigh(dense)
    return _fix_column_signs(vecs[:, ::-1][:, :k])


def _polar(A: np.ndarray) -> np.ndarray:
    """Row-orthonormal maximizer of tr(H^T A): the polar factor U V^T of the
    thin SVD A = U S V^T. Warns when A is rank deficient, since the maximizer
    is then not unique."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] < RANK_TOL:
        warnings.warn(
            f"trailing singular value {s[-1]:.3e} below {RANK_TOL:.0e}; "
            "embedding subspace is not unique",
            RankDeficientWarning,
            stacklevel=3,
        )
    return U @ Vt


def _sq_norm(X: np.ndarray) -> float:
    """||X||_F^2 without an elementwise temporary."""
    return float(np.vdot(X, X))


# ---------------------------------------------------------------------------
# Closed-form block updates
# ---------------------------------------------------------------------------

def update_g(k_v, H: np.ndarray, alpha: float) -> np.ndarray:
    """Minimizer of one view's loss over G_v with H fixed:

        G_v = (K_v^T H^T + alpha H^T) / (alpha + 1)
    """
    K = _as_matrix(k_v)
    kdim, n = H.shape
    if K.shape != (n, n):
        raise DimensionMismatchError(f"kernel {K.shape} vs embedding n={n}")
    Ht = H.T
    return (K.T @ Ht + alpha * Ht) / (alpha + 1.0)


def update_h(ks, G, omega: np.ndarray, alpha: float) -> np.ndarray:
    """Minimizer over H with all G_v and omega fixed.

    The H-dependent part reduces to maximizing tr(H^T A) over row-orthonormal
    H, with A = sum_v omega_v^2 (G_v^T K_v + alpha G_v^T). The maximizer is
    the polar factor U V^T of the thin SVD A = U S V^T, which attains
    tr(H^T A) = sum of the singular values of A.
    """
    kernels = _kernel_list(ks)
    omega = np.asarray(omega, dtype=np.float64)
    kdim = G[0].shape[1]
    n = kernels[0].shape[0]
    A = np.zeros((kdim, n))
    for K, G_v, w in zip(kernels, G, omega):
        Gt = G_v.T
        A += (w * w) * (Gt @ K + alpha * Gt)
    return _polar(A)


def update_weights(d) -> np.ndarray:
    """Simplex minimizer of sum_v omega_v^2 d_v: omega_v proportional to
    1/d_v. Losses are clamped below at 1e-12 so a perfectly reconstructed
    view takes (almost) all the weight instead of dividing by zero."""
    d = np.maximum(np.asarray(d, dtype=np.float64), WEIGHT_CLAMP)
    inv = 1.0 / d
    return inv / inv.sum()


def per_view_loss(k_v, g_v: np.ndarray, H: np.ndarray, alpha: float) -> float:
    """One view's unweighted loss ||K_v - G_v H||_F^2 + alpha ||G_v - H^T||_F^2."""
    K = _as_matrix(k_v)
    kdim, n = H.shape
    if K.shape != (n, n) or g_v.shape != (n, kdim):
        raise DimensionMismatchError(
            f"kernel {K.shape}, coefficients {g_v.shape}, embedding {H.shape}"
        )
    r1 = K - g_v @ H
    r2 = g_v - H.T
    return float(np.sum(r1 * r1) + alpha * np.sum(r2 * r2))


# ---------------------------------------------------------------------------
# Fused sweep
# ---------------------------------------------------------------------------

def _fused_view_loss(k_sq: float, P_v: np.ndarray, g_v: np.ndarray,
                     H: np.ndarray, alpha: float) -> float:
    """``per_view_loss`` from k_sq = ||K_v||_F^2 and P_v = K_v H^T, for
    symmetric K_v and row-orthonormal H:

        ||K_v - G_v H||^2 = ||K_v||^2 - ||P_v||^2 + ||P_v - G_v||^2

    A near-exact reconstruction can round the difference slightly negative,
    so the reconstruction term is clamped at 0. O(nk) given P_v.
    """
    recon = k_sq - _sq_norm(P_v) + _sq_norm(P_v - g_v)
    return max(recon, 0.0) + alpha * _sq_norm(g_v - H.T)


def _kernel_products(K: np.ndarray, Ht: np.ndarray):
    """(K H^T, K K H^T) for symmetric, C-contiguous K in one pass over K.

    Row block J of K (at most ``_BLOCK_BYTES``) gives P[J] = K[J, :] H^T,
    then adds K[J, :]^T P[J] to K P while the block is still in cache. For
    symmetric K that sum is K P exactly in real arithmetic; in floating
    point it differs from the two-pass product at roundoff only. A kernel
    that fits one block takes the two plain products ``K @ H^T`` and
    ``K @ P``, so small fits keep their bits.
    """
    n = K.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * n))
    if rows >= n:
        P = K @ Ht
        return P, K @ P
    P = np.empty((n, Ht.shape[1]))
    KP = np.zeros_like(P)
    for i in range(0, n, rows):
        B = K[i:i + rows]
        np.matmul(B, Ht, out=P[i:i + rows])
        KP += B.T @ P[i:i + rows]
    return P, KP


def _sweep(kernels, k_sq, P, KP, H: np.ndarray, omega: np.ndarray,
           alpha: float):
    """One G / H / loss iteration with one pass over each kernel.

    Takes P_v = K_v H^T and KP_v = K_v P_v for the current H and returns
    (G, H, P, KP, d): the ``update_g`` coefficients, the ``update_h``
    embedding, P_v and KP_v for the new H (from ``_kernel_products``), and
    the ``per_view_loss`` values at (G, new H). With G_v = (P_v + alpha
    H^T) / (1 + alpha) and K_v symmetric, the H-step matrix is

        G_v^T K_v + alpha G_v^T
            = ((K_v P_v)^T + 2 alpha P_v^T + alpha^2 H) / (1 + alpha).
    """
    Ht = H.T
    G = tuple((P_v + alpha * Ht) / (alpha + 1.0) for P_v in P)
    A = np.zeros_like(H)
    for P_v, KP_v, w in zip(P, KP, omega):
        A += (w * w) * (KP_v.T + 2.0 * alpha * P_v.T + alpha * alpha * H)
    H = _polar(A / (alpha + 1.0))
    P, KP = zip(*(_kernel_products(K, H.T) for K in kernels))
    d = np.array([_fused_view_loss(s, P_v, G_v, H, alpha)
                  for s, P_v, G_v in zip(k_sq, P, G)])
    return G, H, P, KP, d


# ---------------------------------------------------------------------------
# Objective and initialization
# ---------------------------------------------------------------------------

def objective(ks, state: SolverState, cfg: SolverConfig) -> float:
    """Objective value at ``state``."""
    kernels = _kernel_list(ks)
    if len(kernels) != len(state.G) or len(kernels) != len(state.omega):
        raise DimensionMismatchError(
            f"{len(kernels)} kernels vs {len(state.G)} coefficient matrices "
            f"vs {len(state.omega)} weights"
        )
    total = 0.0
    for K, G_v, w in zip(kernels, state.G, state.omega):
        total += (w * w) * per_view_loss(K, G_v, state.H, cfg.alpha)
    return total


def global_similarity_matrix(k_v) -> np.ndarray:
    """Row-sum coupling matrix used to seed the per-view coefficients.

    With A_i the i-th row sum of the kernel (total similarity of sample i to
    everything), entry (i, j) is A_{max(i,j)}; the diagonal extends the same
    rule with A_i. Symmetric by construction. ``init_g`` applies it through
    ``_init_operator`` without forming it.
    """
    K = _as_matrix(k_v)
    A = K.sum(axis=1)
    idx = np.arange(K.shape[0])
    return A[np.maximum.outer(idx, idx)]


def _init_operator(K: np.ndarray) -> LinearOperator:
    """D + K as an operator, D = ``global_similarity_matrix(K)``.

    Since D_ij = A_max(i,j), (D x)_i = A_i sum_{j<=i} x_j + sum_{j>i} A_j x_j:
    two cumulative sums, O(n) per vector on top of the O(n^2) product K x.
    Raises ``NonFiniteError`` when a row sum is not finite (a NaN or Inf
    entry, or an overflow), since the eigensolve would otherwise fail on it
    without saying why.

    K must be symmetric. A single vector's K x is BLAS ``dsymv`` (scipy's
    bundled OpenBLAS, through ``scipy.linalg.blas``), which reads one
    triangle of K: half the memory traffic of a full product, and the
    eigensolve is bound by that traffic. ``dsymv`` wants a Fortran-ordered
    array and would copy any other on every call. So the operator holds K
    C-ordered, as K itself or as K^T of a Fortran-ordered K (the same
    matrix), and passes its Fortran-ordered transpose; only a non-contiguous
    K is copied, once. Every layout of K then gives the same bits. Blocks of
    vectors keep numpy's ``K @ X``.
    """
    n = K.shape[0]
    K = _row_major(K)
    with np.errstate(over="ignore"):
        A = K.sum(axis=1)
    if not np.isfinite(A).all():
        raise NonFiniteError("kernel row sums are not finite: the kernel "
                             "holds NaN or Inf, or its rows overflow")

    def apply(X):
        a = A.reshape((n,) + (1,) * (X.ndim - 1))
        ax = a * X
        tail = np.zeros_like(ax)
        tail[:-1] = np.cumsum(ax[:0:-1], axis=0)[::-1]
        KX = dsymv(1.0, K.T, X) if X.ndim == 1 else K @ X
        return KX + a * np.cumsum(X, axis=0) + tail

    return LinearOperator((n, n), matvec=apply, matmat=apply, dtype=np.float64)


def init_g(k_v, k: int) -> np.ndarray:
    """Initial G_v: the k leading eigenvectors of (D_v + K_v), where D_v is
    the row-sum coupling matrix. Columns are orthonormal and sign-fixed.

    The Lanczos steps multiply by K_v with BLAS ``dsymv`` from scipy's
    bundled OpenBLAS, which reads one triangle of K_v: a raw-array kernel
    must be symmetric. Any memory layout gives the same bits, and none is
    copied per step (see ``_init_operator``)."""
    return _top_eigenvectors(_init_operator(_as_matrix(k_v)), k)


@dataclass(frozen=True)
class InitPoint:
    """The alpha-free start of a fit: G_v from ``init_g`` per view and H,
    the polar factor of the averaged G^T. It depends on the kernels and k
    only, so one point serves every alpha of a grid. The arrays are
    read-only because every fit of the grid shares them."""

    G: tuple[np.ndarray, ...]
    H: np.ndarray


@one_thread()
def init_point(ks, k: int) -> InitPoint:
    """Compute the ``InitPoint`` of kernels ``ks`` for k clusters: one top-k
    eigensolve per view, O(n^2 k) each, and H the polar factor of the mean
    G_v^T (one k x n SVD). Warns with ``RankDeficientWarning`` when that
    mean is rank deficient, as at k = n, since H is then not unique."""
    G = tuple(init_g(K, k) for K in _kernel_list(ks))
    H = _polar((sum(G) / len(G)).T)
    for a in (*G, H):
        a.setflags(write=False)
    return InitPoint(G=G, H=H)


def _start(kernels, cfg: SolverConfig, init: InitPoint | None):
    """The start of a fit on the kernel arrays ``kernels``: G and H from
    ``init`` (computed by ``init_point`` when None) and uniform weights.

    Returns (state, k_sq, P, KP) with k_sq_v = ||K_v||_F^2, P_v = K_v H^T
    and KP_v = K_v P_v. k_sq and P give the start objective at
    ``cfg.alpha`` through the same expansion as the sweep, and all three
    are the sweep's first inputs. They are the only alpha-dependent part,
    O(n^2 k) per view. The kernels must be C-contiguous (``_row_major``).
    """
    if init is None:
        init = init_point(kernels, cfg.k)
    G, H = init.G, init.H
    n = kernels[0].shape[0]
    if len(G) != len(kernels) or H.shape != (cfg.k, n):
        raise DimensionMismatchError(
            f"init point with {len(G)} views and H {H.shape} vs "
            f"{len(kernels)} kernels, k={cfg.k}, n={n}")
    omega = np.full(len(kernels), 1.0 / len(kernels))
    k_sq = [_sq_norm(K) for K in kernels]
    P, KP = zip(*(_kernel_products(K, H.T) for K in kernels))
    d = np.array([_fused_view_loss(s, P_v, G_v, H, cfg.alpha)
                  for s, P_v, G_v in zip(k_sq, P, G)])
    j0 = float(np.sum(omega * omega * d))
    state = SolverState(H=H, G=G, omega=omega, objective_trace=np.array([j0]))
    return state, k_sq, P, KP


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------

def iterate(ks, cfg: SolverConfig, init: InitPoint | None = None):
    """Yield the state after each alternating iteration from the start at
    ``init`` (see ``fit``), stopping on relative objective change
    < cfg.rel_tol or after cfg.max_iters. The start itself is not yielded,
    but every yielded objective_trace begins with the start objective.

    Each iteration is one fused sweep (``_sweep``) and a weight update: the
    G, H and loss updates of ``update_g``, ``update_h`` and
    ``per_view_loss`` from one pass over each kernel, O(n^2 k), with no
    n x n temporary. A Fortran-ordered kernel is read as its transpose (the
    same symmetric matrix) and a non-contiguous one is copied once, so every
    layout gives the same bits.

    Deterministic: identical inputs replay the identical sequence.
    """
    kernels = [_row_major(K) for K in _kernel_list(ks)]
    with one_thread():
        state, k_sq, P, KP = _start(kernels, cfg, init)
    trace = list(state.objective_trace)
    j_prev = trace[-1]
    H, omega = state.H, state.omega
    for _ in range(cfg.max_iters):
        with one_thread():
            G, H, P, KP, d = _sweep(kernels, k_sq, P, KP, H, omega,
                                    cfg.alpha)
            omega = update_weights(d)
            j = float(np.sum(omega * omega * d))
        if not np.isfinite(j):
            raise NonFiniteError("objective became NaN/Inf; check the kernels")
        trace.append(j)
        state = SolverState(H=H, G=G, omega=omega,
                            objective_trace=np.array(trace))
        yield state
        if abs(j_prev - j) / max(abs(j_prev), 1e-12) < cfg.rel_tol:
            return
        j_prev = j


@one_thread()
def fit(ks, cfg: SolverConfig, init: InitPoint | None = None) -> SolverState:
    """Run initialization plus alternating updates to convergence.

    ``init`` is the start from ``init_point(ks, cfg.k)``; pass it to share
    one start across fits that differ only in alpha or the iteration limits.
    When None it is computed here. Either way the result is the same, bit
    for bit. The returned state's objective_trace has the initial value
    followed by one entry per iteration; it is non-increasing throughout.
    With ``cfg.max_iters == 0`` the result is the start: G and H of the
    init point, uniform weights and the start objective. Follow with
    k-means on the columns of ``state.H`` to obtain cluster labels.
    """
    if cfg.max_iters == 0:
        return _start([_row_major(K) for K in _kernel_list(ks)], cfg,
                      init)[0]
    for state in iterate(ks, cfg, init):
        pass
    return state


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

@one_thread()
def fit_kkm(kernel, clusters: int) -> np.ndarray:
    """Kernel k-means relaxation: rows of H are the ``clusters`` leading
    eigenvectors of K, maximizing tr(H K H^T) under H H^T = I."""
    return _top_eigenvectors(_as_matrix(kernel), clusters).T


def _combined_kernel(kernels, gamma: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Overwrite ``out`` with K_gamma = sum_v gamma_v^2 K_v and return it.

    Each row block (at most ``_BLOCK_BYTES``) starts from 0 and adds the
    views' terms in view order, the additions of
    ``sum((g * g) * K for g, K in zip(gamma, kernels))``, so the bits match
    that expression (0 + g^2 K_0 included, which turns -0.0 into 0.0)
    while one block of terms is the only temporary.
    """
    n = out.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * n))
    term = np.empty((min(rows, n), n))
    for i in range(0, n, rows):
        block = out[i:i + rows]
        t = term[:block.shape[0]]
        block.fill(0.0)
        for g, K in zip(gamma, kernels):
            np.multiply(g * g, K[i:i + rows], out=t)
            block += t
    return out


@one_thread()
def fit_mkkm(ks, clusters: int, max_iters: int = SolverConfig.max_iters,
             rel_tol: float = SolverConfig.rel_tol
             ) -> tuple[np.ndarray, np.ndarray]:
    """Multiple-kernel k-means baseline.

    Alternates (a) H = leading eigenvectors of the combined kernel
    K_gamma = sum_v gamma_v^2 K_v and (b) the simplex-optimal gamma with
    per-view cost c_v = tr(K_v (I - H^T H)), until the relative change of
    tr(K_gamma - H K_gamma H^T) falls below rel_tol. The limits are checked
    as ``SolverConfig`` checks them (``BadParamError``).

    K_gamma is rebuilt in place in one n x n buffer (``_combined_kernel``).

    Returns (H, gamma).
    """
    _check_limits(max_iters, rel_tol)
    kernels = _kernel_list(ks)
    V = len(kernels)
    traces = np.array([float(np.trace(K)) for K in kernels])
    gamma = np.full(V, 1.0 / V)
    combined = np.empty_like(kernels[0])  # sum(...)'s layout for one layout
    H = fit_kkm(_combined_kernel(kernels, gamma, combined), clusters)
    j_prev = None
    for _ in range(max_iters):
        c = np.array([traces[v] - float(np.sum((H @ kernels[v]) * H))
                      for v in range(V)])
        gamma = update_weights(c)
        j = float(np.sum(gamma * gamma * c))
        if not np.isfinite(j):
            raise NonFiniteError("combined-kernel objective became NaN/Inf")
        if j_prev is not None and abs(j_prev - j) / max(abs(j_prev), 1e-12) < rel_tol:
            break
        j_prev = j
        H = fit_kkm(_combined_kernel(kernels, gamma, combined), clusters)
    return H, gamma
