"""The fused G / H / loss sweep of ``iterate`` against the public updates.

``fit`` runs the sparse model through ``_sweep`` and ``_fused_view_loss``,
which use ||K - GH||^2 = ||K||^2 - ||P||^2 + ||P - G||^2 with P = K H^T, and
starts from Lanczos eigenvectors. The reference below starts from a dense
``eigh`` and loops over the public ``update_g`` / ``update_h`` /
``per_view_loss`` / ``update_weights``, which evaluate the definitions with
n x n residuals. Both must take the same steps.
"""

import numpy as np
import pytest

from mvkmf import solver
from mvkmf.errors import DimensionMismatchError
from mvkmf.io import make_synthetic
from mvkmf.kernels import KernelSpec, build_kernel
from mvkmf.kmeans import KMeansConfig, kmeans
from mvkmf.solver import (
    SolverConfig,
    SolverState,
    fit,
    global_similarity_matrix,
    init_point,
    iterate,
    objective,
    per_view_loss,
    update_g,
    update_h,
    update_weights,
)

from conftest import random_orthonormal_rows


def reference_fit(kernels, cfg):
    """Dense-eigh initialization plus the loop over the public updates."""
    G = []
    for K in kernels:
        _, vecs = np.linalg.eigh(global_similarity_matrix(K) + K)
        G.append(solver._fix_column_signs(vecs[:, ::-1][:, :cfg.k]))
    U, _, Vt = np.linalg.svd((sum(G) / len(G)).T, full_matrices=False)
    H = U @ Vt
    omega = np.full(len(kernels), 1.0 / len(kernels))
    trace = [objective(kernels, SolverState(H, tuple(G), omega, np.empty(0)),
                       cfg)]
    for _ in range(cfg.max_iters):
        G = [update_g(K, H, cfg.alpha) for K in kernels]
        H = update_h(kernels, G, omega, cfg.alpha)
        d = np.array([per_view_loss(K, g, H, cfg.alpha)
                      for K, g in zip(kernels, G)])
        omega = update_weights(d)
        trace.append(float(np.sum(omega * omega * d)))
        if abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-12) < cfg.rel_tol:
            break
    return H, omega, np.array(trace)


@pytest.fixture(scope="module")
def instance():
    feats, _ = make_synthetic(100, 4, 3, separation=2.5, seed=11)
    return [build_kernel(f, KernelSpec(kind="rbf")).data for f in feats]


@pytest.mark.parametrize("alpha", [1.0, 16.0, 512.0])
def test_fit_matches_reference_loop(instance, alpha):
    cfg = SolverConfig(k=4, alpha=alpha)
    state = fit(instance, cfg)
    H_ref, omega_ref, trace_ref = reference_fit(instance, cfg)

    assert state.objective_trace.shape == trace_ref.shape     # same iterations
    gap = np.abs(state.objective_trace - trace_ref) / np.abs(trace_ref)
    assert gap.max() <= 1e-10
    assert np.max(np.abs(state.omega - omega_ref)) <= 1e-12
    km = KMeansConfig(k=4, restarts=20, seed=0)
    assert np.array_equal(kmeans(state.H, km).labels, kmeans(H_ref, km).labels)


def test_fused_loss_matches_per_view_loss(instance):
    rng = np.random.default_rng(4)
    K = instance[0]
    H = random_orthonormal_rows(rng, 4, K.shape[0])
    G = rng.standard_normal((K.shape[0], 4))
    for alpha in (0.0, 3.0, 512.0):
        fused = solver._fused_view_loss(solver._sq_norm(K), K @ H.T, G, H, alpha)
        assert fused == pytest.approx(per_view_loss(K, G, H, alpha), rel=1e-12)


def test_iterate_rejects_init_point_of_other_size(instance):
    point = init_point(instance, 4)
    smaller = [K[:-1, :-1] for K in instance]
    with pytest.raises(DimensionMismatchError):
        next(iterate(smaller, SolverConfig(k=4), point))


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_fused_loss_cancellation_guard(n):
    # exact reconstruction K = H^T H, G = H^T: the expansion cancels to 0 up
    # to rounding, which must not leave a negative loss
    for seed in range(10):
        H = random_orthonormal_rows(np.random.default_rng(seed), 4, n)
        K = H.T @ H
        k_sq = solver._sq_norm(K)
        d = solver._fused_view_loss(k_sq, K @ H.T, H.T.copy(), H, 16.0)
        assert 0.0 <= d <= 1e-10 * k_sq
