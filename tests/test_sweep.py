"""The fit of ``iterate`` against dense references and the unified form.

``fit`` evaluates each view's loss at G*(H) from P = K H^T alone
(``_reduced_loss``) and takes its Ritz step and residual from n x k
products that it carries from step to step, starting from Lanczos
eigenvectors. The reference below forms M_omega densely, starts from a
dense ``eigh`` and evaluates the loss through the public ``update_g`` /
``per_view_loss`` / ``update_weights`` with n x n residuals. Both must take
the same steps.

The other tests pin the unified form J(H, omega) of the module docstring:
its value, its fixed point, its monotone trace and its independence of the
sample order.
"""

import warnings

import numpy as np
import pytest

from mvkmf import solver
from mvkmf.errors import ConvergenceWarning, DimensionMismatchError
from mvkmf.io import make_synthetic
from mvkmf.kernels import FeatureMatrix, KernelSpec, build_kernel
from mvkmf.kmeans import KMeansConfig, kmeans
from mvkmf.solver import (
    SolverConfig,
    fit,
    init_point,
    iterate,
    objective,
    per_view_loss,
    update_g,
    update_weights,
)

from conftest import random_orthonormal_rows


def dense_m(K, alpha):
    return K @ K + 2.0 * alpha * K


def dense_basis(B, S):
    """Orthonormal basis of the left singular vectors of B, projected off
    the orthonormal columns of S, whose singular value exceeds the step's
    share of ||B||_F; None when there are none."""
    limit = solver._DIRECTION_TOL * np.linalg.norm(B)
    B = B - S @ (S.T @ B)
    B = B - S @ (S.T @ B)
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    m = min(B.shape[0] - S.shape[1], int(np.count_nonzero(s > limit)))
    return U[:, :m] if m else None


def reference_fit(kernels, cfg):
    """Dense-eigh start plus the step, loss and stop of the module
    docstring, with dense M_omega and the public loss: the top-k Ritz
    vectors of M_omega on [H^T, Q, W], Q and W plain singular vectors."""
    k, alpha = cfg.k, cfg.alpha
    arrays = [K.data for K in kernels]
    M = [dense_m(K, alpha) for K in arrays]
    _, vecs = np.linalg.eigh(sum(arrays))
    H = solver._fix_column_signs(vecs[:, ::-1][:, :k]).T

    def losses(H):
        return np.array([per_view_loss(K, update_g(K, H, alpha), H, alpha)
                         for K in arrays])

    def eigen_residual(H, omega):
        Mw = sum((w * w) * M_v for M_v, w in zip(M, omega))
        Y = Mw @ H.T
        R = Y - H.T @ (H @ Y)
        return Mw, R, np.linalg.norm(R) / np.linalg.norm(H @ Y)

    omega = np.full(len(arrays), 1.0 / len(arrays))
    trace = [float(np.sum(omega * omega * losses(H)))]
    D = None
    for _ in range(cfg.max_iters):
        Mw, R, _ = eigen_residual(H, omega)
        Q = dense_basis(R, H.T)
        if Q is None:
            D = None
        else:
            S = np.hstack([H.T, Q])
            if D is not None:
                W = dense_basis(D, S)
                if W is not None:
                    S = np.hstack([S, W])
            _, Z = np.linalg.eigh(S.T @ Mw @ S)
            Z = Z[:, ::-1][:, :k]
            D = S[:, k:] @ Z[k:]
            H = (S @ Z).T
        d = losses(H)
        omega = update_weights(d)
        trace.append(float(np.sum(omega * omega * d)))
        if eigen_residual(H, omega)[2] < cfg.rel_tol:
            break
    return H, omega, np.array(trace)


def rbf_set(n_per, seed, separation=2.5, order=None):
    """Built, so PSD-marked, rbf kernels of a synthetic set, its samples
    taken in ``order`` (all of them by default)."""
    feats, labels = make_synthetic(n_per, 4, 3, separation=separation,
                                   seed=seed)
    order = np.arange(labels.size) if order is None else order
    return [build_kernel(FeatureMatrix(f.data[:, order], f.view_name),
                         KernelSpec(kind="rbf")) for f in feats]


@pytest.fixture(scope="module")
def instance():
    return rbf_set(100, seed=11)


@pytest.mark.parametrize("alpha", [1.0, 16.0, 512.0])
def test_fit_matches_reference_loop(instance, alpha):
    # built kernels carry the PSD mark and their raw arrays do not; the
    # step reads no mark, so both take the same one
    cfg = SolverConfig(k=4, alpha=alpha)
    state = fit(instance, cfg)
    raw = fit([K.data for K in instance], cfg)
    assert np.array_equal(raw.H, state.H)
    assert np.array_equal(raw.objective_trace, state.objective_trace)
    H_ref, omega_ref, trace_ref = reference_fit(instance, cfg)

    assert state.objective_trace.shape == trace_ref.shape
    gap = np.abs(state.objective_trace - trace_ref) / np.abs(trace_ref)
    assert gap.max() <= 1e-10
    assert np.max(np.abs(state.omega - omega_ref)) <= 1e-12
    km = KMeansConfig(k=4, restarts=20, seed=0)
    assert np.array_equal(kmeans(state.H, km).labels,
                          kmeans(H_ref, km).labels)


def test_fused_loss_matches_per_view_loss(instance):
    # the loss the fit computes from P = K H^T, at G*(H)
    rng = np.random.default_rng(4)
    K = instance[0].data
    H = random_orthonormal_rows(rng, 4, K.shape[0])
    for alpha in (0.0, 3.0, 512.0):
        fused = solver._reduced_loss(solver._sq_norm(K), K @ H.T, H, alpha)
        reference = per_view_loss(K, update_g(K, H, alpha), H, alpha)
        assert fused == pytest.approx(reference, rel=1e-12)


def test_iterate_rejects_init_point_of_other_size(instance):
    point = init_point(instance, 4)
    smaller = [K.data[:-1, :-1] for K in instance]
    with pytest.raises(DimensionMismatchError):
        next(iterate(smaller, SolverConfig(k=4), point))


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_fused_loss_cancellation_guard(n):
    # exact reconstruction K = H^T H: ||K||^2 - ||K H^T||^2 cancels to 0 up
    # to rounding, which must not leave a negative loss
    for seed in range(10):
        H = random_orthonormal_rows(np.random.default_rng(seed), 4, n)
        K = H.T @ H
        k_sq = solver._sq_norm(K)
        d = solver._reduced_loss(k_sq, K @ H.T, H, 16.0)
        assert 0.0 <= d <= 1e-10 * k_sq


def test_permuted_kernels_give_the_permuted_fit():
    # the start, step and stop see the kernels only through products that
    # commute with a permutation of the samples
    for seed in range(4):
        order = np.random.default_rng(100 + seed).permutation(100)
        kernels = rbf_set(25, seed, separation=3.0)
        permuted = rbf_set(25, seed, separation=3.0, order=order)
        for alpha in (1.0, 16.0, 128.0, 512.0):
            cfg = SolverConfig(k=4, alpha=alpha)
            a, b = fit(kernels, cfg), fit(permuted, cfg)
            assert a.objective_trace.size == b.objective_trace.size
            assert (abs(a.objective_trace[-1] - b.objective_trace[-1])
                    <= 1e-12 * abs(a.objective_trace[-1]))
            Pa = (a.H.T @ a.H)[np.ix_(order, order)]
            assert np.max(np.abs(Pa - b.H.T @ b.H)) <= 1e-9


def test_trace_ends_at_the_public_objective():
    for seed, alpha in ((1, 1.0), (2, 16.0), (3, 512.0)):
        kernels = rbf_set(20, seed)
        cfg = SolverConfig(k=4, alpha=alpha)
        for max_iters in (0, 100):
            state = fit(kernels, SolverConfig(k=4, alpha=alpha,
                                              max_iters=max_iters))
            assert (state.objective_trace[-1]
                    == pytest.approx(objective(kernels, state, cfg),
                                     rel=1e-12))


def test_fit_reaches_the_dense_fixed_point():
    # at n = 60: H spans the top-k eigenspace of the dense M_omega of its
    # own omega, within the Davis-Kahan bound sqrt(2) ||R||_F / delta that
    # the residual R = M H^T - H^T (H M H^T) sets, and J is the unified form
    for seed, alpha in ((1, 1.0), (2, 16.0), (3, 128.0), (4, 512.0)):
        kernels = rbf_set(15, seed)
        cfg = SolverConfig(k=4, alpha=alpha)
        state = fit(kernels, cfg)
        H, omega = state.H, state.omega
        M = sum((w * w) * dense_m(K.data, alpha)
                for K, w in zip(kernels, omega))
        vals, vecs = np.linalg.eigh(M)
        top = vecs[:, -4:]
        R = M @ H.T - H.T @ (H @ M @ H.T)
        HY = H @ M @ H.T
        assert np.linalg.norm(R) / np.linalg.norm(HY) < cfg.rel_tol
        delta = np.linalg.eigvalsh(HY)[0] - vals[-5]
        assert delta > 0
        gap = np.linalg.norm(H.T @ H - top @ top.T)
        assert gap <= np.sqrt(2.0) * np.linalg.norm(R) / delta * (1 + 1e-6)
        unified = sum(
            (w * w) * (np.sum(K.data * K.data) + alpha * 4 / (1 + alpha)
                       - np.trace(H @ dense_m(K.data, alpha) @ H.T)
                       / (1 + alpha))
            for K, w in zip(kernels, omega))
        assert state.objective_trace[-1] == pytest.approx(unified, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 16.0, 128.0, 512.0])
def test_step_is_monotone_on_an_indefinite_kernel(alpha):
    # a raw indefinite kernel makes M_omega indefinite. The Ritz step keeps
    # H^T in its block, so it needs no shift to be monotone, and it reaches
    # rel_tol before the cap (a ConvergenceWarning is an error here)
    rng = np.random.default_rng(8)
    S = rng.standard_normal((60, 60))
    X = rng.standard_normal((5, 60))
    kernels = [(S + S.T) / 2.0, X.T @ X]
    assert np.linalg.eigvalsh(dense_m(kernels[0], alpha))[0] < 0
    trace = fit(kernels, SolverConfig(k=4, alpha=alpha)).objective_trace
    assert trace.size > 2
    assert np.all(np.diff(trace) <= 1e-12 * abs(trace[0]))


def test_cap_warns_when_the_residual_is_above_the_tolerance():
    # one iteration does not reach rel_tol on this instance; the default
    # cap does
    feats, _ = make_synthetic(15, 4, 3, separation=3.0, seed=2)
    kernels = [build_kernel(f, KernelSpec(kind="linear")) for f in feats]
    with pytest.warns(ConvergenceWarning, match="max_iters=1 "):
        state = fit(kernels, SolverConfig(k=4, alpha=1.0, max_iters=1))
    assert state.objective_trace.size == 2
    assert fit(kernels, SolverConfig(k=4, alpha=1.0)).objective_trace.size > 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        fit(kernels, SolverConfig(k=4, alpha=1.0, max_iters=0))
        assert list(iterate(kernels, SolverConfig(k=4, alpha=1.0,
                                                  max_iters=0))) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_carried_products_stay_exact_on_the_bench_ladder(seed):
    # the step forms K_v H^T and K_v K_v H^T from those of its block, never
    # from H itself. On bench's sizes (n = 300, alpha = 2^0 .. 2^9) the
    # state must still agree with products formed afresh from its H
    kernels = rbf_set(75, seed)
    point = init_point(kernels, 4)
    for alpha in (2.0 ** p for p in range(10)):
        cfg = SolverConfig(k=4, alpha=alpha)
        state = fit(kernels, cfg, point)
        H = state.H
        assert (state.objective_trace[-1]
                == pytest.approx(objective(kernels, state, cfg), rel=1e-12))
        for K, G in zip(kernels, state.G):
            fresh = update_g(K, H, alpha)
            assert np.abs(G - fresh).max() <= 1e-10 * np.abs(fresh).max()
        Y = sum((w * w) * dense_m(K.data, alpha) @ H.T
                for K, w in zip(kernels, state.omega))
        HY = H @ Y
        assert np.linalg.norm(Y - H.T @ HY) / np.linalg.norm(HY) < cfg.rel_tol
