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

The step replaces a generalized power iteration (Nie, Zhang and Li, Sci.
China Inf. Sci. 60, 2017), whose rate tends to 1 as alpha grows and which
needed an alpha^2 shift for kernels not known to be PSD. The start, the
stop and the fixed point are the same; the iterates, and so the bits of a
fit, are not.

Cost. A fit does no O(n^3) work and allocates no n x n matrix beyond the
kernels themselves:

- The start is a Lanczos solve (ARPACK through ``scipy.sparse.linalg.eigsh``)
  from a small multiple of k products with sum_v K_v, each one BLAS
  ``dsymv`` per view (scipy's bundled OpenBLAS), which reads one triangle
  of K_v. It does not depend on alpha, so fits over an alpha grid share
  one, and ``fit_kkm`` is the same solve on one view.
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

Also here: the single-kernel and multi-kernel k-means baselines.
"""

from __future__ import annotations

import math
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
    """Hyperparameters for one fit.

    ``alpha`` trades kernel reconstruction against pulling each G_v toward
    H^T; the benchmark grid is 2^0 .. 2^9 and the default sits where that
    grid tends to peak. A fit stops once its relative eigen-residual (see
    the module docstring) is below ``rel_tol``, or after ``max_iters``
    iterations. ``fit_mkkm`` takes the same two limits, with ``rel_tol``
    bounding the relative change of its objective instead.
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
def _top_eigenvectors(M, k: int) -> np.ndarray:
    """Columns: the k eigenvectors of symmetric M with largest eigenvalues,
    in descending eigenvalue order, sign-fixed. Raises ``BadParamError``
    when k exceeds n: the one check of k against the sample count, which
    ``init_point`` (and so ``fit_kkm``) and ``fit_mkkm`` reach.

    M is an n x n array or a ``LinearOperator``. A Lanczos solve (ARPACK
    ``eigsh`` at machine-precision tolerance) computes only the k leading
    eigenpairs from matrix-vector products, O(n^2) each, instead of a full
    O(n^3) decomposition. The start vector is a fixed-seed Gaussian, not
    all-ones, which lies in the null space of a centered kernel. A dense
    ``eigh`` runs only where the Krylov basis of max(2k + 1, 20) vectors
    would span the whole space (this includes k >= n - 1, where ARPACK
    cannot run) and when ARPACK fails, as it does on the zero matrix.

    scipy's BLAS workers, which run an operator's ``dsymv``, are released
    when it returns or raises (``released``), not between products, where
    their spinning is what makes the threaded ``dsymv`` pay.
    """
    n = M.shape[0]
    if k > n:
        raise BadParamError(f"k={k} exceeds sample count {n}")
    # an array M serves fit_mkkm alone and keeps numpy's gemv, on one
    # thread under its scope, because mkkm's outputs carry its bits. With
    # numpy's pool on one thread scipy's dsymv is faster (n=300: 1.7
    # against 2.0 ms per solve, n=2000: 18 against 58 ms), but it changes
    # the bits
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
    ``RuntimeWarning``, for the loss check of ``_losses`` to report.
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


def _products(kernels, X: np.ndarray):
    """(K_v X, K_v K_v X) of every view for an n x c block X, as two
    V x n x c arrays."""
    P, KP = zip(*(_kernel_products(K.data, X) for K in kernels))
    return np.stack(P), np.stack(KP)


def _losses(k_sq, P, H: np.ndarray, alpha: float) -> np.ndarray:
    """Every view's ``_reduced_loss``. Raises ``NonFiniteError`` when one
    is not finite, which only an overflow of the kernels' products can
    make."""
    d = np.array([_reduced_loss(s, P_v, H, alpha) for s, P_v in zip(k_sq, P)])
    if not np.isfinite(d).all():
        raise NonFiniteError("objective became NaN/Inf; check the kernels")
    return d


def _state(H: np.ndarray, P, omega: np.ndarray, trace,
           alpha: float) -> SolverState:
    """The state at H, with G_v = G*(H) = (P_v + alpha H^T) / (1 + alpha)."""
    G = tuple((P + alpha * H.T) / (alpha + 1.0))
    return SolverState(H=H, G=G, omega=omega, objective_trace=np.array(trace))


def _eigen_products(P, KP, omega: np.ndarray, alpha: float) -> np.ndarray:
    """M_omega X = sum_v omega_v^2 (K_v K_v X + 2 alpha K_v X), n x c, from
    the V x n x c products P = K_v X and KP = K_v K_v X."""
    w2 = omega * omega
    return (w2 @ (KP + (2.0 * alpha) * P).reshape(w2.size, -1)
            ).reshape(P.shape[1:])


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


def _ritz_step(kernels, H, P, KP, D, R, omega, alpha):
    """The H step: the top-k Ritz vectors of M_omega on the block
    S = [H^T, Q, W]. Returns the new (H, P, KP, D), or (H, P, KP, None) when
    ``_new_directions`` finds no direction of the residual R off H^T.

    Q holds the new directions of R and W those of D, the last step's
    direction, off [H^T, Q] (``_new_directions``). D is None on the first
    step, else (D, K_v D, K_v K_v D). One pass over each kernel gives K_v Q
    and K_v K_v Q; W = (D - [H^T, Q] C) T, so its products are the same
    combination of those of D, H^T and Q, and need no pass. M_omega S =
    sum_v omega_v^2 (K_v K_v S + 2 alpha K_v S) completes S^T M_omega S,
    whose top-k eigenvectors Z give the new H^T = S Z, with K_v H^T and
    K_v K_v H^T the same combination of those of S. The new D is S Z minus
    its part in the old H^T, [Q, W] Z[k:].
    """
    found = _new_directions(R, H.T)
    if found is None:
        return H, P, KP, None
    Q = found[0]
    k = H.shape[0]
    PQ, KQ = _products(kernels, Q)
    S = np.hstack([H.T, Q])
    PS = np.concatenate([P, PQ], axis=2)
    KS = np.concatenate([KP, KQ], axis=2)
    if D is not None:
        D, PD, KD = D
        found = _new_directions(D, S)
        if found is not None:
            W, C, T = found
            PS, KS = (np.concatenate([B, (BD - B @ C) @ T], axis=2)
                      for B, BD in ((PS, PD), (KS, KD)))
            S = np.hstack([S, W])
    # eigh reads the lower triangle
    A = S.T @ _eigen_products(PS, KS, omega, alpha)
    Z = np.linalg.eigh(A)[1][:, :-k - 1:-1]
    Zd = Z[k:]
    D = (S[:, k:] @ Zd, PS[:, :, k:] @ Zd, KS[:, :, k:] @ Zd)
    return Z.T @ S.T, PS @ Z, KS @ Z, D


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
    """sum_v K_v as an operator on vectors, for the start's eigensolve.

    A product is one BLAS ``dsymv`` per view (scipy's bundled OpenBLAS,
    through ``scipy.linalg.blas``), added into one vector. Each reads one
    triangle of K_v^T, the same symmetric matrix as a ``KernelMatrix``'s
    C-ordered array: half the memory traffic of a full product, and the
    eigensolve is bound by that traffic. The kernels are finite, so a
    product that is not can only have overflowed: it raises
    ``NonFiniteError``, an O(n) check per product, before the eigensolve
    fails on it without saying why.
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
    of a grid, and it is also kernel k-means on the summed kernel. It is
    read-only because every fit of a grid shares it.
    """
    H = _top_eigenvectors(_sum_operator(_kernel_list(ks)), k).T
    H.setflags(write=False)
    return H


def _start(kernels, cfg: SolverConfig, init: np.ndarray | None):
    """The start of a fit on ``kernels`` (``_kernel_list``): H from
    ``init`` (computed by ``init_point`` when None) and uniform weights.

    Returns (state, k_sq, P, KP) with k_sq_v = ||K_v||_F^2, P_v = K_v H^T
    and KP_v = K_v P_v: the start state and the loop's first inputs. They
    are the only alpha-dependent part, O(n^2 k) per view.
    """
    H = init_point(kernels, cfg.k) if init is None else init
    n = kernels[0].n
    if H.shape != (cfg.k, n):
        raise DimensionMismatchError(
            f"start H {H.shape} vs k={cfg.k}, n={n}")
    omega = np.full(len(kernels), 1.0 / len(kernels))
    k_sq = [_sq_norm(K.data) for K in kernels]
    P, KP = _products(kernels, H.T)
    d = _losses(k_sq, P, H, cfg.alpha)
    state = _state(H, P, omega, [float(np.sum(omega * omega * d))], cfg.alpha)
    return state, k_sq, P, KP


def iterate(ks, cfg: SolverConfig, init: np.ndarray | None = None):
    """Yield the state after each iteration of the fit from the start H
    ``init`` (``init_point(ks, cfg.k)`` when None). The start itself is not
    yielded, but every yielded objective_trace begins with the start
    objective.

    Each iteration is the step of the module docstring: the Ritz step
    (``_ritz_step``), which makes one pass over each kernel and returns
    P_v = K_v H^T and K_v P_v for the new H, the losses d_v from them and
    the weight update, O(n^2 k) per view, with no n x n temporary. After
    each yield the fit stops once the eigen-residual r < cfg.rel_tol. When
    cfg.max_iters (at least 1) iterations run out first, it warns with
    ``ConvergenceWarning``.

    Deterministic: identical inputs replay the identical sequence.
    """
    kernels = _kernel_list(ks)
    alpha = cfg.alpha
    with one_thread():
        state, k_sq, P, KP = _start(kernels, cfg, init)
        H, omega = state.H, state.omega
        trace = list(state.objective_trace)
        Y = _eigen_products(P, KP, omega, alpha)
        R, r = _residual(Y, H)
    D = None
    for _ in range(cfg.max_iters):
        with one_thread():
            H, P, KP, D = _ritz_step(kernels, H, P, KP, D, R, omega, alpha)
            d = _losses(k_sq, P, H, alpha)
            omega = update_weights(d)
            trace.append(float(np.sum(omega * omega * d)))
            state = _state(H, P, omega, trace, alpha)
        yield state
        with one_thread():
            Y = _eigen_products(P, KP, omega, alpha)
            R, r = _residual(Y, H)
        if r < cfg.rel_tol:
            return
    if cfg.max_iters:
        warnings.warn(
            f"stopped at max_iters={cfg.max_iters} with eigen-residual "
            f"{r:.3e} >= rel_tol={cfg.rel_tol:.3g}",
            ConvergenceWarning,
            stacklevel=2,
        )


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
        return _start(_kernel_list(ks), cfg, init)[0]
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

    K_gamma is rebuilt in place in one n x n buffer (``_combined_kernel``),
    whose top eigenvectors a Lanczos solve on that array finds
    (``_top_eigenvectors``).

    Returns (H, gamma).
    """
    _check_limits(max_iters, rel_tol)
    kernels = [K.data for K in _kernel_list(ks)]
    V = len(kernels)
    traces = np.array([float(np.trace(K)) for K in kernels])
    gamma = np.full(V, 1.0 / V)
    combined = np.empty(kernels[0].shape)
    H = _top_eigenvectors(_combined_kernel(kernels, gamma, combined),
                          clusters).T
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
        H = _top_eigenvectors(_combined_kernel(kernels, gamma, combined),
                              clusters).T
    return H, gamma
