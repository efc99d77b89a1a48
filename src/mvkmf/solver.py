"""Fit of the unified multi-kernel factorization model.

The model couples every view's kernel K_v to one consensus embedding H
(k x n, orthonormal rows) through a per-view coefficient matrix G_v (n x k)
and squared view weights omega:

    minimize  sum_v omega_v^2 [ ||K_v - G_v H||_F^2 + alpha ||G_v - H^T||_F^2 ]
    s.t.      H H^T = I_k,  sum_v omega_v = 1

For fixed H the best G_v is G*(H) = (P_v + alpha H^T) / (1 + alpha), with
P_v = K_v H^T (``update_g``), which leaves the unified form

    J(H, omega) = sum_v omega_v^2 d_v,  M_v = K_v^2 + 2 alpha K_v,
    d_v = ||K_v||_F^2 + alpha k / (1 + alpha) - tr(H M_v H^T) / (1 + alpha).

For fixed omega the best H spans the top-k eigenvectors of
M_omega = sum_v omega_v^2 M_v; for fixed H the best omega_v is proportional
to 1 / d_v (``update_weights``). Labels come from k-means on the columns of
the fitted H (see ``mvkmf.kmeans``). A fit is one start, one step, one stop:

- Start (``init_point``): H holds the top-k eigenvectors of sum_v K_v, the
  kernel k-means embedding of the summed kernel; omega is uniform.
- Step: a Rayleigh-Ritz step on M_omega, then the weight update. H^T
  becomes the top-k Ritz vectors of M_omega on the block S = [H^T, Q, W]:
  Q is an orthonormal basis of the eigen-residual R = Y - H^T (H Y),
  Y = M_omega H^T, and W one of the last step's direction, the part of
  the last step's new H^T outside the H^T before it. This is the block of
  LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2), 2001). H^T lies in S, so
  tr(H M_omega H^T) cannot fall for any symmetric K_v and J never rises:
  no kernel needs to be PSD, and no shift is added. A direction of R or of
  the last step that holds almost nothing off the rest of S is left out of
  it, and S holds at most n - k directions besides H^T, so at k = n H does
  not move (``_new_directions``).
- Stop: once the relative eigen-residual r = ||R||_F / ||H Y||_F is below
  ``rel_tol``. A fit that reaches ``max_iters`` first warns with
  ``ConvergenceWarning``.

Cost. A fit does no O(n^3) work and allocates no n x n matrix beyond the
kernels themselves:

- The start is a Lanczos solve (ARPACK through ``scipy.sparse.linalg.eigsh``)
  from a small multiple of k products with sum_v K_v, each one BLAS
  ``dsymv`` per view (scipy's bundled OpenBLAS), which reads one triangle
  of K_v (``_sum_operator``). It does not depend on alpha, so fits over an
  alpha grid share one, and ``fit_kkm`` is the same solve on one view. It
  is the module's only eigensolve: ``fit_mkkm`` starts from it too.
- Because H H^T = I, d_v = ||K_v||^2 - ||P_v||^2 + alpha / (1 + alpha)
  ||P_v - H^T||^2, O(nk) given P_v = K_v H^T, and
  Y = sum_v omega_v^2 (K_v P_v + 2 alpha P_v). A step needs K_v Q and
  K_v K_v Q, O(n^2 k) per view. That is bound by reading the kernels, so
  both come from one pass over K_v in row blocks of at most 1 MiB
  (``_kernel_products``). Every other product of the step is a
  combination of ones already known: those of W combine those of the last
  step's block, and the new P_v and K_v P_v combine those of S. So a fit
  makes one pass over each kernel at its start and one per iteration. The
  rest of a step costs O(n k^2).
- ``init_point``, ``fit``, ``fit_kkm``, ``fit_mkkm`` and each step of
  ``iterate`` run numpy's BLAS on one thread (``mvkmf._blas``) and restore
  the caller's count on return, on a raise and between ``iterate``'s
  yields. Their numpy products are skinny and bound by memory traffic, and
  a second numpy thread only fights the main thread and scipy's BLAS pool,
  which numpy's does not share. Scipy's pool, which runs the start's
  ``dsymv`` and gains from its threads, keeps the count the process set:
  one thread would slow the solve. Its workers busy-wait on a core for
  about 0.1 s after a threaded call, so every eigensolve
  (``_top_eigenvectors``) stops them when it returns or raises, and
  OpenBLAS starts them again at the next solve. The release acts on the
  whole process, so a caller that runs scipy's BLAS on another thread at
  the same time must not rely on it. mvkmf starts no threads of its own.

The public ``update_g``, ``update_h``, ``per_view_loss`` and ``objective``
evaluate the paper's block updates and loss by their definitions. The fit
does not call them: they are the references it is tested against.

Every entry point ingests a kernel given as a raw array as a
``KernelMatrix`` (see its docstring).

Also here: the single-kernel and multi-kernel k-means baselines. The
latter, ``fit_mkkm``, runs the same start, step and stop (``_fit_loop``)
on sum_v gamma_v^2 K_v and costs c_v = tr K_v - tr(H K_v H^T).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from ._blas import one_thread, released
from .errors import (
    BadParamError,
    ConvergenceWarning,
    DimensionMismatchError,
    NonFiniteError,
    RankDeficientWarning,
    require_integers,
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
# the H step leaves out a direction that keeps less than this share of the
# size of the block it comes from once projected off the others
_DIRECTION_TOL = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for one fit, taken as (ks, cfg, init=None) by
    ``fit``, ``iterate`` and ``fit_mkkm``.

    ``alpha`` trades kernel reconstruction against pulling each G_v toward
    H^T; the benchmark grid is 2^0 .. 2^9 and the default sits where that
    grid tends to peak. ``fit_mkkm`` does not read it. A fit stops once its
    relative eigen-residual (see the module docstring) is below
    ``rel_tol``, or after ``max_iters`` iterations.
    """

    k: int
    alpha: float = 128.0
    max_iters: int = 100
    rel_tol: float = 1e-6

    def __post_init__(self):
        require_integers(self, "k", "max_iters")
        if self.k < 2:
            raise BadParamError(f"cluster count must be >= 2, got {self.k}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise BadParamError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.max_iters < 0:
            raise BadParamError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise BadParamError(f"rel_tol must be > 0, got {self.rel_tol}")


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


def _ingest(kernel) -> KernelMatrix:
    """``kernel`` as a ``KernelMatrix``: itself if it is one, else a raw
    array ingested as one."""
    if isinstance(kernel, KernelMatrix):
        return kernel
    return KernelMatrix(data=kernel, view_name="kernel")


def _kernel_list(ks) -> tuple[KernelMatrix, ...]:
    """The kernels of ``ks``: at least one, all with one common sample
    count. A ``KernelSet`` holds these by construction; any other sequence
    is ingested view by view and checked here. Passing the result on to
    another entry point ingests nothing again."""
    if isinstance(ks, KernelSet):
        return ks.kernels
    kernels = tuple(_ingest(k) for k in ks)
    if not kernels:
        raise BadParamError("need at least one kernel")
    n = kernels[0].n
    for K in kernels[1:]:
        if K.n != n:
            raise DimensionMismatchError(
                f"kernels disagree on sample count: {n} vs {K.n}")
    return kernels


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so each one's largest-magnitude entry is
    positive (first occurrence wins on ties). Keeps decompositions
    reproducible across runs."""
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


@released()
def _top_eigenvectors(M: LinearOperator, k: int) -> np.ndarray:
    """Columns: the k eigenvectors of the symmetric operator M with largest
    eigenvalues, in descending eigenvalue order, sign-fixed. Raises
    ``BadParamError`` when k exceeds n: the one check of k against the
    sample count, which every fit reaches through ``init_point`` unless it
    is given a start.

    A Lanczos solve (ARPACK ``eigsh`` at machine-precision tolerance)
    computes only the k leading eigenpairs from matrix-vector products,
    O(n^2) each, instead of a full O(n^3) decomposition. It starts from a
    fixed-seed Gaussian, not all-ones, which lies in the null space of a
    centered kernel. A dense ``eigh`` of M's n products with the identity
    runs only where the Krylov basis of max(2k + 1, 20) vectors would span
    the whole space (this includes
    k >= n - 1, where ARPACK cannot run) and when ARPACK fails, as it does
    on the zero matrix.

    scipy's BLAS workers, which run an operator's ``dsymv``, are released
    when it returns or raises (``released``), not between products, where
    their spinning is what makes the threaded ``dsymv`` pay.
    """
    n = M.shape[0]
    if k > n:
        raise BadParamError(f"k={k} exceeds sample count {n}")
    if n > max(2 * k + 1, 20):
        rng = np.random.default_rng(LANCZOS_SEED)
        try:
            vals, vecs = eigsh(M, k, which="LA", v0=rng.standard_normal(n),
                               tol=0, rng=rng)
        except ArpackError:
            pass
        else:
            return _fix_column_signs(vecs[:, np.argsort(vals)[::-1]])
    _, vecs = np.linalg.eigh(M @ np.eye(n))
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
    K = _ingest(k_v).data
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
    A = np.zeros((kdim, kernels[0].n))
    for K, G_v, w in zip(kernels, G, omega):
        Gt = G_v.T
        A += (w * w) * (Gt @ K.data + alpha * Gt)
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
    K = _ingest(k_v).data
    kdim, n = H.shape
    if K.shape != (n, n) or g_v.shape != (n, kdim):
        raise DimensionMismatchError(
            f"kernel {K.shape}, coefficients {g_v.shape}, embedding {H.shape}"
        )
    r1 = K - g_v @ H
    r2 = g_v - H.T
    return float(np.sum(r1 * r1) + alpha * np.sum(r2 * r2))


# ---------------------------------------------------------------------------
# The fit
# ---------------------------------------------------------------------------

def _reduced_loss(k_sq: float, P_v: np.ndarray, H: np.ndarray,
                  alpha: float) -> float:
    """``per_view_loss`` at (G*(H), H) from k_sq = ||K_v||_F^2 and
    P_v = K_v H^T, for symmetric K_v and row-orthonormal H:

        d_v = ||K_v||^2 - ||P_v||^2 + alpha / (1 + alpha) ||P_v - H^T||^2

    A near-exact reconstruction can round the first difference slightly
    negative, so it is clamped at 0. O(nk) given P_v.
    """
    return (max(k_sq - _sq_norm(P_v), 0.0)
            + alpha / (1.0 + alpha) * _sq_norm(P_v - H.T))


def _kernel_products(K: np.ndarray, X: np.ndarray):
    """(K X, K K X) for a ``KernelMatrix``'s array K and an n x c block X,
    in one pass over K.

    Row block J of K (at most ``_BLOCK_BYTES``) gives P[J] = K[J, :] X, then
    adds K[J, :]^T P[J] to K P while the block is still in cache. For
    symmetric K that sum is K P exactly in real arithmetic; in floating
    point it differs from the two-pass product at roundoff only. A kernel
    that fits one block takes the two plain products ``K @ X`` and
    ``K @ P``. A product that overflows is left as Inf or NaN, without a
    ``RuntimeWarning``, for the loss check of ``_umklmf`` to report.
    """
    n = K.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        if rows >= n:
            P = K @ X
            return P, K @ P
        P = np.empty((n, X.shape[1]))
        KP = np.zeros_like(P)
        for i in range(0, n, rows):
            B = K[i:i + rows]
            np.matmul(B, X, out=P[i:i + rows])
            KP += B.T @ P[i:i + rows]
    return P, KP


def _products(kernels, X: np.ndarray) -> np.ndarray:
    """The unified model's products of an n x c block X: K_v X and
    K_v K_v X of every view, as one 2 x V x n x c array."""
    return np.stack(list(zip(*(_kernel_products(K.data, X)
                               for K in kernels))))


def _state(H: np.ndarray, PH, omega: np.ndarray, trace,
           alpha: float) -> SolverState:
    """The state at H, with G_v = G*(H) = (P_v + alpha H^T) / (1 + alpha)."""
    G = tuple((PH[0] + alpha * H.T) / (alpha + 1.0))
    return SolverState(H=H, G=G, omega=omega, objective_trace=np.array(trace))


def _weighted_sum(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_v w_v^2 X_v of a V x n x c array X, n x c."""
    w2 = w * w
    return (w2 @ X.reshape(w2.size, -1)).reshape(X.shape[1:])


def _umklmf(kernels, alpha: float):
    """The unified model (see ``_fit_loop``): products K_v X and K_v K_v X
    (``_products``), M_omega X and the losses d_v (``_reduced_loss``). A
    loss that is not finite, only an overflow's, raises ``NonFiniteError``."""
    k_sq = [_sq_norm(K.data) for K in kernels]

    def losses(PH, H):
        d = np.array([_reduced_loss(s, P_v, H, alpha)
                      for s, P_v in zip(k_sq, PH[0])])
        if not np.isfinite(d).all():
            raise NonFiniteError("objective became NaN/Inf; check the kernels")
        return d

    return (lambda X: _products(kernels, X),
            lambda PX, w: _weighted_sum(PX[1] + (2.0 * alpha) * PX[0], w),
            losses)


def _mkkm(kernels):
    """Multiple-kernel k-means (see ``fit_mkkm`` and ``_fit_loop``):
    products K_v X, K_gamma X and the costs c_v = tr K_v - <H^T, K_v H^T>,
    of which one that is not finite raises ``NonFiniteError``."""
    traces = np.array([np.trace(K.data) for K in kernels])

    def costs(PH, H):
        c = traces - np.sum(PH * H.T, axis=(1, 2))
        if not np.isfinite(c).all():
            raise NonFiniteError("combined-kernel objective became NaN/Inf")
        return c

    return (lambda X: np.stack([K.data @ X for K in kernels]),
            _weighted_sum, costs)


def _residual(Y: np.ndarray, H: np.ndarray):
    """(R, r) for Y = M H^T: the eigen-residual R = Y - H^T (H Y) and its
    relative size r = ||R||_F / ||H Y||_F, 0 exactly when the rows of H
    span an invariant subspace of M. O(n k^2)."""
    HY = H @ Y
    R = Y - H.T @ HY
    num, den = _sq_norm(R), _sq_norm(HY)
    if den == 0.0:
        return R, 0.0 if num == 0.0 else math.inf
    return R, math.sqrt(num / den)


def _new_directions(B: np.ndarray, S: np.ndarray):
    """(X, C, T) with X = (B - S C) T an orthonormal basis of the part of B
    orthogonal to the orthonormal columns of S, or None when that part is
    roundoff.

    B is projected off S twice, which leaves it orthogonal to S to roundoff.
    Of its singular directions, those with a singular value above
    ``_DIRECTION_TOL`` ||B||_F are kept, at most as many as S leaves room
    for in n dimensions; T = V diag(1 / s) of those. The bound keeps T from
    amplifying the roundoff of B - S C, or of products of B carried along
    with it, by more than 1 / ``_DIRECTION_TOL``. O(n c^2) for the n x c
    block [S, B].
    """
    limit = _DIRECTION_TOL * math.sqrt(_sq_norm(B))
    C = S.T @ B
    B = B - S @ C
    C2 = S.T @ B
    B -= S @ C2
    C += C2
    _, sv, Vt = np.linalg.svd(B, full_matrices=False)
    m = min(S.shape[0] - S.shape[1], int(np.count_nonzero(sv > limit)))
    if m == 0:
        return None
    T = Vt[:m].T / sv[:m]
    return B @ T, C, T


def _ritz_step(products, combine, H, PH, D, R, w):
    """The H step of a model (see ``_fit_loop``): the top-k Ritz vectors of
    its M_w on the block S = [H^T, Q, W], PH the products of H^T. Returns
    the new (H, PH, D), or (H, PH, None) when ``_new_directions`` finds no
    direction of the residual R off H^T.

    Q holds the new directions of R and W those of D, the last step's
    direction, off [H^T, Q] (``_new_directions``). D is None on the first
    step, else (D, its products). ``products`` forms those of Q, the step's
    one read of the kernels; W = (D - [H^T, Q] C) T, so its products, and
    those of the new H^T = S Z, are combinations of known ones. Z holds the
    top-k eigenvectors of S^T M_w S. The new D is S Z minus its part in the
    old H^T, [Q, W] Z[k:].
    """
    found = _new_directions(R, H.T)
    if found is None:
        return H, PH, None
    Q = found[0]
    k = H.shape[0]
    S = np.hstack([H.T, Q])
    PS = np.concatenate([PH, products(Q)], axis=-1)
    if D is not None:
        D, PD = D
        found = _new_directions(D, S)
        if found is not None:
            W, C, T = found
            PS = np.concatenate([PS, (PD - PS @ C) @ T], axis=-1)
            S = np.hstack([S, W])
    # eigh reads the lower triangle
    A = S.T @ combine(PS, w)
    Z = np.linalg.eigh(A)[1][:, :-k - 1:-1]
    Zd = Z[k:]
    return Z.T @ S.T, PS @ Z, (S[:, k:] @ Zd, PS[..., k:] @ Zd)


def objective(ks, state: SolverState, cfg: SolverConfig) -> float:
    """Objective value at ``state``, from ``per_view_loss``."""
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


def _sum_operator(kernels) -> LinearOperator:
    """sum_v K_v as an operator on vectors, for ``init_point``'s eigensolve.

    A product is one BLAS ``dsymv`` per view (scipy's bundled OpenBLAS,
    through ``scipy.linalg.blas``), added into one vector. Each reads one
    triangle of K_v^T, the same symmetric matrix as a ``KernelMatrix``'s
    C-ordered array: half the memory traffic of a full product, and the
    eigensolve is bound by that traffic. The sum is never formed. The
    kernels are finite, so a product that is not can only have overflowed:
    it raises ``NonFiniteError``, an O(n) check per product, before the
    eigensolve fails on it without saying why.
    """
    n = kernels[0].n

    def apply(x):
        x = x.ravel()
        y = dsymv(1.0, kernels[0].data.T, x)
        for K in kernels[1:]:
            y = dsymv(1.0, K.data.T, x, beta=1.0, y=y, overwrite_y=True)
        if not np.isfinite(y).all():
            raise NonFiniteError("kernel products are not finite: the "
                                 "kernels' entries are too large and their "
                                 "products overflow")
        return y

    return LinearOperator((n, n), matvec=apply, dtype=np.float64)


@one_thread()
def init_point(ks, k: int) -> np.ndarray:
    """The start H of a fit on kernels ``ks`` for k clusters: k x n, its
    rows the top-k eigenvectors of sum_v K_v, sign-fixed. One Lanczos solve
    of ``_sum_operator``, O(n^2 k) per view.

    It depends on the kernels and k only, so one start serves every alpha
    of a grid and ``fit_mkkm`` too, and it is also kernel k-means on the
    summed kernel. It is read-only because every fit of a grid shares it.
    """
    kernels = _kernel_list(ks)
    H = _top_eigenvectors(_sum_operator(kernels), k).T
    H.setflags(write=False)
    return H


def _fit_loop(ks, model, cfg: SolverConfig, init: np.ndarray | None):
    """The start, step and stop of the module docstring for the model that
    ``model(kernels)`` builds on the kernels of ``ks`` (``_kernel_list``,
    the one place a fit ingests them): (products, combine, losses) with
    view weights w. products(X) holds the products of the kernels with an
    n x c block X, its last axis X's; combine(PX, w) = M_w X from them, for
    the M_w whose top-k eigenvectors are the best H at w; losses(PH, H) are
    the views' losses at H from the products of H^T.

    Yields (H, PH, w, trace) at the start, H from ``init`` (``init_point``
    when None) and uniform w, and after each iteration (``_ritz_step``, the
    losses, ``update_weights``), trace the objectives so far. It stops
    after an iteration with eigen-residual r < cfg.rel_tol; when
    cfg.max_iters (at least 1) run out first it warns with
    ``ConvergenceWarning`` at the line that called the public fit.
    numpy's BLAS runs on one thread, except between yields.
    """
    k, max_iters, rel_tol = cfg.k, cfg.max_iters, cfg.rel_tol
    with one_thread():
        kernels = _kernel_list(ks)
        products, combine, losses = model(kernels)
        H = init_point(kernels, k) if init is None else init
        if H.shape != (k, kernels[0].n):
            raise DimensionMismatchError(
                f"start H {H.shape} vs k={k}, n={kernels[0].n}")
        w = np.full(len(kernels), 1.0 / len(kernels))
        PH = products(H.T)
        d = losses(PH, H)
        trace = [float(np.sum(w * w * d))]
    D = None
    while True:
        yield H, PH, w, trace
        with one_thread():
            R, r = _residual(combine(PH, w), H)
            # the start takes a step whatever its residual
            done = len(trace) > 1 and r < rel_tol
            if done or len(trace) > max_iters:
                break
            H, PH, D = _ritz_step(products, combine, H, PH, D, R, w)
            d = losses(PH, H)
            w = update_weights(d)
            trace.append(float(np.sum(w * w * d)))
    if max_iters and not done:
        # at the line that called the public fit: the first frame outside
        # this module and contextlib, whose frame ``@one_thread()`` adds
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__") in (__name__, "contextlib"):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"stopped at max_iters={max_iters} with eigen-residual "
            f"{r:.3e} >= rel_tol={rel_tol:.3g}",
            ConvergenceWarning,
            stacklevel=level,
        )


def _umklmf_loop(ks, cfg: SolverConfig, init: np.ndarray | None):
    """``_fit_loop`` of the unified model on kernels ``ks`` under ``cfg``."""
    return _fit_loop(ks, lambda kernels: _umklmf(kernels, cfg.alpha), cfg, init)


def iterate(ks, cfg: SolverConfig, init: np.ndarray | None = None):
    """Yield the state after each iteration of the fit from the start H
    ``init`` (``init_point(ks, cfg.k)`` when None). The start itself is not
    yielded, but every yielded objective_trace begins with the start
    objective.

    Each iteration is the step of the module docstring (``_fit_loop``), one
    pass over each kernel. After each yield the fit stops once the
    eigen-residual r < cfg.rel_tol, or warns with ``ConvergenceWarning``
    when cfg.max_iters (at least 1) iterations run out first.

    Deterministic: identical inputs replay the identical sequence.
    """
    steps = _umklmf_loop(ks, cfg, init)
    next(steps)  # the start
    for H, PH, omega, trace in steps:
        yield _state(H, PH, omega, trace, cfg.alpha)


@one_thread()
def fit(ks, cfg: SolverConfig, init: np.ndarray | None = None) -> SolverState:
    """Fit the model from a start to its stop (see ``iterate``).

    ``init`` is the start H from ``init_point(ks, cfg.k)``; pass it to share
    one start across fits that differ only in alpha or the iteration limits.
    When None it is computed here. Either way the result is the same, bit
    for bit. The returned state's objective_trace has the start value
    followed by one entry per iteration; it is non-increasing throughout.
    Unless a ``ConvergenceWarning`` was issued, the returned H has an
    eigen-residual below cfg.rel_tol. With ``cfg.max_iters == 0`` the
    result is the start: its H, G*(H), uniform weights and the start
    objective. Follow with k-means on the columns of ``state.H`` to obtain
    cluster labels.
    """
    if cfg.max_iters == 0:
        return _state(*next(_umklmf_loop(ks, cfg, init)), cfg.alpha)
    for state in iterate(ks, cfg, init):
        pass
    return state


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def fit_kkm(kernel, clusters: int) -> np.ndarray:
    """Kernel k-means relaxation: rows of H are the ``clusters`` leading
    eigenvectors of K, maximizing tr(H K H^T) under H H^T = I. This is the
    start of a fit on K alone, so it is ``init_point`` on one view and
    read-only."""
    return init_point([kernel], clusters)


def fit_mkkm(ks, cfg: SolverConfig, init: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiple-kernel k-means baseline: minimizes
    J = sum_v gamma_v^2 c_v, c_v = tr K_v - tr(H K_v H^T), over
    row-orthonormal H and simplex gamma. For fixed gamma the best H spans
    the top-k eigenvectors of K_gamma = sum_v gamma_v^2 K_v; for fixed H the
    best gamma_v is proportional to 1 / c_v (``update_weights``).

    It runs ``fit``'s loop (``_fit_loop``) under ``cfg`` on K_gamma, never
    formed, and c_v: from ``init`` as ``fit`` takes it, one product K_v Q
    per view and step, and the stop at an eigen-residual of K_gamma below
    cfg.rel_tol. ``cfg.alpha`` is not read.

    Returns (H, gamma, objective_trace), the trace as ``fit``'s.
    """
    # overflows stay Inf or NaN, without a RuntimeWarning, for the costs
    with one_thread(), np.errstate(over="ignore", invalid="ignore"):
        for H, _, gamma, trace in _fit_loop(ks, _mkkm, cfg, init):
            pass
    return H, gamma, np.array(trace)
