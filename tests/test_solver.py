import time
import warnings

import numpy as np
import pytest
import scipy

from mvkmf.errors import (
    AsymmetricKernelError,
    BadParamError,
    ConvergenceWarning,
    DimensionMismatchError,
    NonFiniteError,
    RankDeficientWarning,
)
from mvkmf import _blas, solver
from mvkmf.io import make_synthetic
from mvkmf.kernels import (
    FeatureMatrix,
    KernelMatrix,
    KernelSet,
    KernelSpec,
    build_kernel,
)
from mvkmf.kmeans import KMeansConfig, kmeans
from mvkmf.solver import (
    SolverConfig,
    SolverState,
    fit,
    fit_kkm,
    fit_mkkm,
    init_point,
    iterate,
    objective,
    per_view_loss,
    update_g,
    update_h,
    update_weights,
)

from conftest import (
    blob_kernels,
    random_orthonormal_rows,
    random_psd_kernel,
    record_threads,
    scipy_blas_threads,
)


def naive_loss(K, G, H, alpha):
    """Elementwise double-loop evaluation of one view's loss."""
    n, k = G.shape
    r1 = 0.0
    for i in range(n):
        for j in range(n):
            r1 += (K[i, j] - sum(G[i, t] * H[t, j] for t in range(k))) ** 2
    r2 = 0.0
    for i in range(n):
        for t in range(k):
            r2 += (G[i, t] - H[t, i]) ** 2
    return r1 + alpha * r2


def small_instance(rng, n=8, k=3, V=2):
    kernels = [random_psd_kernel(rng, n, name=f"v{i}") for i in range(V)]
    H = random_orthonormal_rows(rng, k, n)
    G = [rng.standard_normal((n, k)) for _ in range(V)]
    omega = rng.random(V)
    omega /= omega.sum()
    return kernels, H, G, omega


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(BadParamError):
        SolverConfig(k=1)
    with pytest.raises(BadParamError):
        SolverConfig(k=3, alpha=-0.5)
    with pytest.raises(BadParamError):
        SolverConfig(k=3, rel_tol=0.0)
    with pytest.raises(BadParamError):
        SolverConfig(k=3, max_iters=-1)
    for alpha in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(BadParamError):
            SolverConfig(k=3, alpha=alpha)


# ---------------------------------------------------------------------------
# objective


def test_objective_identity_kernels_projector_value(rng):
    n, k, V = 7, 3, 2
    H = random_orthonormal_rows(rng, k, n)
    state = SolverState(H=H, G=(H.T.copy(), H.T.copy()),
                        omega=np.array([0.5, 0.5]),
                        objective_trace=np.empty(0))
    cfg = SolverConfig(k=k, alpha=3.0)
    val = objective([np.eye(n)] * V, state, cfg)
    # ||I - H^T H||_F^2 = n - k for a rank-k orthogonal projector
    assert val == pytest.approx(sum(0.25 * (n - k) for _ in range(V)), abs=1e-10)


def test_objective_zero_when_exact_and_alpha_zero(rng):
    n, k = 6, 2
    H = random_orthonormal_rows(rng, k, n)
    G = H.T.copy()
    K = H.T @ H
    from mvkmf.solver import SolverState

    state = SolverState(H=H, G=(G,), omega=np.array([1.0]),
                        objective_trace=np.empty(0))
    val = objective([K], state, SolverConfig(k=k, alpha=0.0))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_naive_double_loop(rng):
    kernels, H, G, omega = small_instance(rng, n=5, k=2, V=2)
    from mvkmf.solver import SolverState

    cfg = SolverConfig(k=2, alpha=1.7)
    state = SolverState(H=H, G=tuple(G), omega=omega,
                        objective_trace=np.empty(0))
    expected = sum(w * w * naive_loss(k.data, g, H, cfg.alpha)
                   for k, g, w in zip(kernels, G, omega))
    assert objective(kernels, state, cfg) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# update_g


def test_update_g_identity_kernel_returns_ht(rng):
    H = random_orthonormal_rows(rng, 2, 5)
    for alpha in (0.0, 1.0, 64.0):
        G = update_g(np.eye(5), H, alpha)
        assert np.allclose(G, H.T, atol=1e-12)


def test_update_g_alpha_zero(rng):
    K = random_psd_kernel(rng, 5).data
    H = random_orthonormal_rows(rng, 2, 5)
    assert np.allclose(update_g(K, H, 0.0), K.T @ H.T, atol=1e-12)


def test_update_g_zeroes_finite_difference_gradient(rng):
    # central differences on the per-view loss, step 1e-6
    K = random_psd_kernel(rng, 6).data
    H = random_orthonormal_rows(rng, 2, 6)
    alpha = 2.5
    G = update_g(K, H, alpha)
    step = 1e-6
    worst = 0.0
    for i in range(6):
        for t in range(2):
            up = G.copy()
            up[i, t] += step
            dn = G.copy()
            dn[i, t] -= step
            grad = (per_view_loss(K, up, H, alpha)
                    - per_view_loss(K, dn, H, alpha)) / (2 * step)
            worst = max(worst, abs(grad))
    assert worst < 1e-5


def test_update_g_beats_random_perturbations(rng):
    K = random_psd_kernel(rng, 7).data
    H = random_orthonormal_rows(rng, 3, 7)
    alpha = 4.0
    G = update_g(K, H, alpha)
    base = per_view_loss(K, G, H, alpha)
    for _ in range(100):
        E = rng.standard_normal(G.shape)
        E /= np.linalg.norm(E)
        assert base <= per_view_loss(K, G + 1e-3 * E, H, alpha) + 1e-12


def test_update_g_alpha_infinity_limit(rng):
    K = random_psd_kernel(rng, 6).data
    H = random_orthonormal_rows(rng, 2, 6)
    G = update_g(K, H, 1e9)
    assert np.max(np.abs(G - H.T)) < 1e-6


def test_update_g_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        update_g(np.eye(4), random_orthonormal_rows(rng, 2, 5), 1.0)


# ---------------------------------------------------------------------------
# update_h


def test_update_h_diagonal_example():
    A = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # feed G, omega, alpha chosen so the internal A equals the target: one
    # view, K = I, alpha = 0, G = A^T
    H = update_h([np.eye(3)], [A.T], np.array([1.0]), 0.0)
    assert np.allclose(H, A / np.array([[2.0], [1.0]]), atol=1e-12)
    assert np.sum(H * A) == pytest.approx(3.0, abs=1e-12)   # sigma1 + sigma2


def test_update_h_orthonormal_rows(rng):
    kernels, H0, G, omega = small_instance(rng, n=9, k=4, V=3)
    H = update_h(kernels, G, omega, 2.0)
    assert np.max(np.abs(H @ H.T - np.eye(4))) < 1e-10


def test_update_h_attains_singular_value_sum(rng):
    kernels, _, G, omega = small_instance(rng, n=9, k=3, V=2)
    alpha = 1.5
    A = sum((w * w) * (g.T @ k.data + alpha * g.T)
            for k, g, w in zip(kernels, G, omega))
    H = update_h(kernels, G, omega, alpha)
    sigma = np.linalg.svd(A, compute_uv=False)
    assert np.sum(H * A) == pytest.approx(np.sum(sigma), abs=1e-8)


def test_update_h_beats_random_orthonormal(rng):
    kernels, _, G, omega = small_instance(rng, n=8, k=3, V=2)
    alpha = 1.5
    A = sum((w * w) * (g.T @ k.data + alpha * g.T)
            for k, g, w in zip(kernels, G, omega))
    H = update_h(kernels, G, omega, alpha)
    best = np.sum(H * A)
    for _ in range(200):
        Ht = random_orthonormal_rows(rng, 3, 8)
        assert best >= np.sum(Ht * A) - 1e-10


def test_update_h_single_view_identity_preserves_row_space(rng):
    H_prev = random_orthonormal_rows(rng, 2, 6)
    H = update_h([np.eye(6)], [H_prev.T], np.array([1.0]), 0.0)
    assert np.max(np.abs(H @ H.T - np.eye(2))) < 1e-10
    # same row space: the rank-2 projectors coincide
    assert np.allclose(H.T @ H, H_prev.T @ H_prev, atol=1e-10)


def test_update_h_rank_deficient_warning(rng):
    # rank-1 coefficient matrix with k=2 makes A rank deficient
    u = rng.standard_normal((6, 1))
    G = np.hstack([u, u])
    with pytest.warns(RankDeficientWarning):
        update_h([np.eye(6)], [G], np.array([1.0]), 0.0)


# ---------------------------------------------------------------------------
# update_weights


def test_update_weights_examples():
    assert np.allclose(update_weights([1.0, 1.0]), [0.5, 0.5], atol=1e-15)
    assert np.allclose(update_weights([1.0, 3.0]), [0.75, 0.25], atol=1e-12)
    w = update_weights([0.0, 5.0])
    assert w[0] == pytest.approx(1.0, abs=1e-10)
    assert w[1] == pytest.approx(2e-13, rel=0.5)


def test_update_weights_simplex_and_minimum(rng):
    for _ in range(20):
        d = rng.random(4) + 0.05
        w = update_weights(d)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0)
        # analytic minimum of sum w^2 d over the simplex is 1/sum(1/d)
        assert np.sum(w * w * d) == pytest.approx(1.0 / np.sum(1.0 / d),
                                                  rel=1e-12)


def test_update_weights_matches_grid_search(rng):
    # two views: exhaustive sweep over the simplex at 1e-4 resolution
    d = np.array([0.8, 2.3])
    t = np.arange(0.0, 1.0 + 1e-9, 1e-4)
    vals = t * t * d[0] + (1.0 - t) ** 2 * d[1]
    best_t = t[np.argmin(vals)]
    w = update_weights(d)
    assert abs(w[0] - best_t) <= 1e-4


# ---------------------------------------------------------------------------
# per_view_loss


def test_per_view_loss_exact_reconstruction(rng):
    H = random_orthonormal_rows(rng, 3, 7)
    assert per_view_loss(H.T @ H, H.T.copy(), H, 5.0) == pytest.approx(0.0, abs=1e-12)


def test_per_view_loss_matches_naive(rng):
    kernels, H, G, _ = small_instance(rng, n=5, k=2, V=1)
    val = per_view_loss(kernels[0], G[0], H, 0.9)
    assert val == pytest.approx(naive_loss(kernels[0].data, G[0], H, 0.9),
                                rel=1e-10)


def test_per_view_loss_alpha_zero_is_reconstruction(rng):
    kernels, H, G, _ = small_instance(rng, n=5, k=2, V=1)
    val = per_view_loss(kernels[0], G[0], H, 0.0)
    assert val == pytest.approx(
        np.linalg.norm(kernels[0].data - G[0] @ H, "fro") ** 2, rel=1e-12)


def test_per_view_loss_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        per_view_loss(np.eye(5), np.zeros((4, 2)),
                      random_orthonormal_rows(rng, 2, 5), 1.0)


def test_trace_expansion_identity(rng):
    # ||K - GH||_F^2 == tr(K^T K) - 2 tr(K^T G H) + tr(H^T G^T G H)
    for _ in range(10):
        K = random_psd_kernel(rng, 6).data
        G = rng.standard_normal((6, 3))
        H = random_orthonormal_rows(rng, 3, 6)
        lhs = float(np.trace((K - G @ H).T @ (K - G @ H)))
        rhs = (float(np.trace(K.T @ K)) - 2.0 * float(np.trace(K.T @ G @ H))
               + float(np.trace(H.T @ G.T @ G @ H)))
        assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))


# ---------------------------------------------------------------------------
# initialization


def test_init_state_single_view_row_space(rng):
    K = random_psd_kernel(rng, 8)
    state = fit([K], SolverConfig(k=3, alpha=1.0, max_iters=0))
    # the start of one view is that view's top-3 eigenvectors
    _, vecs = np.linalg.eigh(K.data)
    top = vecs[:, -3:]
    assert np.max(np.abs(state.H @ state.H.T - np.eye(3))) < 1e-10
    assert np.allclose(state.H.T @ state.H, top @ top.T, atol=1e-10)
    assert np.array_equal(state.omega, [1.0])
    assert state.objective_trace.shape == (1,)


def test_init_state_identical_views_match_single_view(rng):
    K = random_psd_kernel(rng, 8)
    cfg = SolverConfig(k=3, alpha=1.0, max_iters=0)
    one = fit([K], cfg)
    two = fit([K, K], cfg)
    assert np.array_equal(one.H, two.H)
    assert np.allclose(two.omega, [0.5, 0.5], atol=1e-15)


def test_init_state_rejects_k_above_n():
    with pytest.raises(BadParamError):
        fit([np.eye(3)], SolverConfig(k=4, max_iters=0))


@_blas.one_thread()
def frozen_init_state(kernels, cfg):
    """Reference for the start of a fit (``init_point`` and the start
    objective) computed in one pass, with no shared point: H, G*(H) and the
    loss from P_v = K_v H^T. Like ``fit``, it runs numpy's BLAS on one
    thread, since the bits are those of one thread count."""
    from mvkmf.solver import _reduced_loss, _sq_norm

    H = init_point(kernels, cfg.k)
    P = [K @ H.T for K in kernels]
    G = tuple((P_v + cfg.alpha * H.T) / (cfg.alpha + 1.0) for P_v in P)
    omega = np.full(len(kernels), 1.0 / len(kernels))
    d = np.array([_reduced_loss(_sq_norm(K), P_v, H, cfg.alpha)
                  for K, P_v in zip(kernels, P)])
    j0 = float(np.sum(omega * omega * d))
    return H, G, np.array([j0])


@_blas.one_thread()
def frozen_states(ks, cfg, init=None):
    """Frozen copy of the fit written out in turn: the Ritz step on
    [H^T, Q, W], with K_v Q and K_v K_v Q each a full product and every
    other product formed from known ones as the fit forms them, then the
    losses, the weights and the residual stop. Returns the start and every
    state after it. Runs numpy's BLAS on one thread, as ``fit`` does."""
    from mvkmf.solver import (
        _DIRECTION_TOL,
        _kernel_list,
        _reduced_loss,
        _sq_norm,
    )

    kernels = _kernel_list(ks)
    arrays = [K.data for K in kernels]
    alpha, k = cfg.alpha, cfg.k
    n = arrays[0].shape[0]

    def products(X):
        P = np.stack([K @ X for K in arrays])
        return P, np.stack([K @ P_v for K, P_v in zip(arrays, P)])

    def m_times(P, KP, omega):
        w2 = omega * omega
        return (w2 @ (KP + (2.0 * alpha) * P).reshape(w2.size, -1)
                ).reshape(P.shape[1:])

    def new_directions(B, S):
        limit = _DIRECTION_TOL * np.sqrt(_sq_norm(B))
        C = S.T @ B
        B = B - S @ C
        C2 = S.T @ B
        B -= S @ C2
        C += C2
        _, sv, Vt = np.linalg.svd(B, full_matrices=False)
        m = min(n - S.shape[1], int(np.count_nonzero(sv > limit)))
        if m == 0:
            return None
        T = Vt[:m].T / sv[:m]
        return B @ T, C, T

    H = init_point(kernels, k) if init is None else init
    k_sq = [_sq_norm(K) for K in arrays]
    P, KP = products(H.T)
    omega = np.full(len(arrays), 1.0 / len(arrays))
    D = None
    trace = []
    states = []
    for t in range(cfg.max_iters + 1):
        Y = m_times(P, KP, omega)
        HY = H @ Y
        R = Y - H.T @ HY
        if t > 1 and np.sqrt(_sq_norm(R) / _sq_norm(HY)) < cfg.rel_tol:
            break
        if t:
            found = new_directions(R, H.T)
            if found is None:
                D = None
            else:
                Q = found[0]
                PQ, KQ = products(Q)
                S = np.hstack([H.T, Q])
                PS = np.concatenate([P, PQ], axis=2)
                KS = np.concatenate([KP, KQ], axis=2)
                if D is not None:
                    D, PD, KD = D
                    found = new_directions(D, S)
                    if found is not None:
                        W, C, T = found
                        PS = np.concatenate([PS, (PD - PS @ C) @ T], axis=2)
                        KS = np.concatenate([KS, (KD - KS @ C) @ T], axis=2)
                        S = np.hstack([S, W])
                A = S.T @ m_times(PS, KS, omega)
                Z = np.linalg.eigh(A)[1][:, :-k - 1:-1]
                D = (S[:, k:] @ Z[k:], PS[:, :, k:] @ Z[k:],
                     KS[:, :, k:] @ Z[k:])
                H, P, KP = Z.T @ S.T, PS @ Z, KS @ Z
        d = np.array([_reduced_loss(s, P_v, H, alpha)
                      for s, P_v in zip(k_sq, P)])
        if t:
            omega = update_weights(d)
        trace.append(float(np.sum(omega * omega * d)))
        G = tuple((P + alpha * H.T) / (alpha + 1.0))
        states.append(SolverState(H=H, G=G, omega=omega,
                                  objective_trace=np.array(trace)))
    return states


def assert_same_state(a, b):
    assert np.array_equal(a.H, b.H)
    assert len(a.G) == len(b.G)
    assert all(np.array_equal(x, y) for x, y in zip(a.G, b.G))
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert a.objective_trace.dtype == b.objective_trace.dtype


def init_point_cases():
    """(kernels, k): a separable synthetic set of built kernels, and raw
    symmetric indefinite kernels, which carry no PSD mark. Both are large
    enough that ``init_point`` takes the Lanczos path."""
    ks, _ = blob_kernels(11, n_per=15, clusters=4, views=3)
    rng = np.random.default_rng(7)
    indefinite = []
    for _ in range(2):
        S = rng.standard_normal((40, 40))
        indefinite.append((S + S.T) / 2.0)
    assert min(np.linalg.eigvalsh(K)[0] for K in indefinite) < 0
    return [(list(ks.kernels), 4), (indefinite, 3)]


LADDER = tuple(2.0 ** p for p in range(10))


def test_init_state_with_and_without_point_matches_frozen_reference():
    for kernels, k in init_point_cases():
        point = init_point(kernels, k)
        for alpha in LADDER:
            cfg = SolverConfig(k=k, alpha=alpha, max_iters=0)
            H, G, trace = frozen_init_state(
                [solver._ingest(K).data for K in kernels], cfg)
            for state in (fit(kernels, cfg), fit(kernels, cfg, point)):
                assert np.array_equal(state.H, H)
                assert all(np.array_equal(a, b) for a, b in zip(state.G, G))
                assert np.array_equal(state.objective_trace, trace)
                assert np.array_equal(state.omega,
                                      np.full(len(kernels), 1 / len(kernels)))


def test_iterate_and_fit_match_frozen_two_call_path():
    for kernels, k in init_point_cases():
        point = init_point(kernels, k)
        for alpha in LADDER:
            for max_iters in (0, 100):
                cfg = SolverConfig(k=k, alpha=alpha, max_iters=max_iters)
                ref = frozen_states(kernels, cfg, point)
                for init in (None, point):
                    states = list(iterate(kernels, cfg, init))
                    assert len(states) == len(ref) - 1
                    for a, b in zip(states, ref[1:]):
                        assert_same_state(a, b)
                    assert_same_state(fit(kernels, cfg, init), ref[-1])


def rbf_views(n, seed, clusters=4, views=3):
    """rbf kernels of the first n samples of a synthetic set."""
    feats, _ = make_synthetic(-(-n // clusters), clusters, views,
                              separation=2.5, seed=seed)
    return [build_kernel(FeatureMatrix(f.data[:, :n], f.view_name),
                         KernelSpec(kind="rbf")).data for f in feats]


def assert_close_to_frozen(state, ref, k):
    """Above one block: the same iterations and labels, and the trace
    within 1e-12 relative."""
    assert state.objective_trace.shape == ref.objective_trace.shape
    gap = (np.abs(state.objective_trace - ref.objective_trace)
           / np.abs(ref.objective_trace))
    assert gap.max() <= 1e-12
    km = KMeansConfig(k=k, restarts=20, seed=0)
    assert np.array_equal(kmeans(state.H, km).labels,
                          kmeans(ref.H, km).labels)


@pytest.mark.parametrize("n", [362, 363, 700])
def test_one_pass_products_against_two_products(n):
    # 362 is the largest kernel of one 1 MiB block; 363 splits into 361 + 2
    # rows and 700 into 3 x 187 + 139, both with a ragged last block
    rows = max(1, solver._BLOCK_BYTES // (8 * n))
    assert (rows >= n) == (n <= 362)
    assert n <= 362 or n % rows
    rng = np.random.default_rng(n)
    kernels = rbf_views(n, seed=n)
    Ht = random_orthonormal_rows(rng, 4, n).T
    for K in kernels:
        P, KP = solver._kernel_products(K, Ht)
        P_ref = K @ Ht
        KP_ref = K @ P_ref
        if n <= 362:
            assert np.array_equal(P, P_ref) and np.array_equal(KP, KP_ref)
        else:
            for got, ref in ((P, P_ref), (KP, KP_ref)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    point = init_point(kernels, 4)
    for alpha in (1.0, 128.0, 512.0):
        cfg = SolverConfig(k=4, alpha=alpha)
        ref = frozen_states(kernels, cfg, point)
        state = fit(kernels, cfg, point)
        if n <= 362:
            assert_same_state(state, ref[-1])
        else:
            assert_close_to_frozen(state, ref[-1], 4)


def test_one_pass_sweep_on_the_n2000_synthetic():
    # the data of the fit_n2000 benchmark workload
    feats, _ = make_synthetic(500, 4, 3, separation=2.5, seed=101)
    kernels = [build_kernel(f, KernelSpec(kind="rbf")).data for f in feats]
    cfg = SolverConfig(k=4, alpha=128.0)
    point = init_point(kernels, 4)
    ref = frozen_states(kernels, cfg, point)[-1]
    assert_close_to_frozen(fit(kernels, cfg, point), ref, 4)


def layouts(K):
    """K as C-ordered, Fortran-ordered and non-contiguous arrays."""
    wide = np.zeros((K.shape[0], 2 * K.shape[1]))
    wide[:, ::2] = K
    strided = wide[:, ::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    return np.ascontiguousarray(K), np.asfortranarray(K), strided


@pytest.mark.parametrize("n", [60, 363])
def test_kernel_layout_does_not_change_the_bits(n):
    kernels = rbf_views(n, seed=5)
    c_order, f_order, strided = zip(*(layouts(K) for K in kernels))
    mixed = (f_order[0], strided[1], c_order[2])
    for max_iters in (0, 100):
        cfg = SolverConfig(k=4, alpha=16.0, max_iters=max_iters)
        ref = fit(list(c_order), cfg)
        for ks in (f_order, strided, mixed):
            assert_same_state(fit(list(ks), cfg), ref)


def off_symmetric(K, eps):
    """A copy of K with one entry raised by eps, which breaks its symmetry."""
    K = K.copy()
    K[3, 7] += eps
    return K


def test_kernel_within_tolerance_gives_the_same_bits_in_every_layout():
    # at n = 400 the sweep reads each kernel in several row blocks. The
    # asymmetry is repaired on ingest, so no entry point may see the raised
    # entry on one side of the diagonal for one layout and on the other
    # side for another
    kernels = rbf_views(400, seed=1)
    kernels[0] = off_symmetric(kernels[0], 5e-9)
    c_order, f_order, strided = zip(*(layouts(K) for K in kernels))
    cfg = SolverConfig(k=4, alpha=16.0)
    ref = fit(list(c_order), cfg)
    ref_kkm = fit_kkm(c_order[0], 4)
    ref_mkkm = fit_mkkm(list(c_order), 4)
    for ks in (f_order, strided):
        assert_same_state(fit(list(ks), cfg), ref)
        assert fit_kkm(ks[0], 4).tobytes() == ref_kkm.tobytes()
        H, gamma = fit_mkkm(list(ks), 4)
        assert H.tobytes() == ref_mkkm[0].tobytes()
        assert gamma.tobytes() == ref_mkkm[1].tobytes()


def _reference_calls():
    H = random_orthonormal_rows(np.random.default_rng(0), 4, 40)
    G = (H.T,) * 3
    omega = np.full(3, 1.0 / 3.0)
    state = SolverState(H=H, G=G, omega=omega, objective_trace=np.zeros(1))
    return {
        "update_g": lambda ks: update_g(ks[0], H, 1.0),
        "update_h": lambda ks: update_h(ks, G, omega, 1.0),
        "per_view_loss": lambda ks: per_view_loss(ks[0], G[0], H, 1.0),
        "objective": lambda ks: objective(ks, state, SolverConfig(k=4)),
    }


INGESTING = {
    "fit": lambda ks: fit(ks, SolverConfig(k=4)),
    "fit-no-iterations": lambda ks: fit(ks, SolverConfig(k=4, max_iters=0)),
    "iterate": lambda ks: next(iterate(ks, SolverConfig(k=4))),
    "init_point": lambda ks: init_point(ks, 4),
    "fit_kkm": lambda ks: fit_kkm(ks[0], 4),
    "fit_mkkm": lambda ks: fit_mkkm(ks, 4),
    **_reference_calls(),
}


@pytest.mark.parametrize("entry", sorted(INGESTING))
def test_entry_points_reject_an_asymmetric_raw_kernel(entry):
    # the closed-form updates and the one-triangle products hold for
    # symmetric kernels only, so a raw array gets the KernelMatrix scan
    kernels = rbf_views(40, seed=1)
    kernels[0] = off_symmetric(kernels[0], 1e-3)
    with pytest.raises(AsymmetricKernelError):
        INGESTING[entry](kernels)


def test_entry_points_scan_each_raw_kernel_once(monkeypatch):
    # the entry points hand the ingested kernels on to each other, so a
    # raw array is scanned once per call and a KernelSet never
    from mvkmf import kernels as kernels_module

    scans = []
    scan = kernels_module._max_asymmetry
    monkeypatch.setattr(kernels_module, "_max_asymmetry",
                        lambda a: scans.append(a.shape) or scan(a))
    kernels = rbf_views(40, seed=1)
    ks = KernelSet(tuple(KernelMatrix(K, f"v{i}")
                         for i, K in enumerate(kernels)))
    scans.clear()
    for entry in ("fit", "fit-no-iterations", "iterate", "init_point",
                  "fit_mkkm", "update_h", "objective"):
        INGESTING[entry](ks)
        assert scans == [], entry
        INGESTING[entry](kernels)
        assert scans == [(40, 40)] * 3, entry
        scans.clear()


def test_fit_from_shared_init_point_is_bitwise_equal():
    for kernels, k in init_point_cases():
        point = init_point(kernels, k)
        for alpha in LADDER:
            cfg = SolverConfig(k=k, alpha=alpha)
            a, b = fit(kernels, cfg), fit(kernels, cfg, point)
            assert np.array_equal(a.H, b.H)
            assert len(a.G) == len(b.G)
            assert all(np.array_equal(x, y) for x, y in zip(a.G, b.G))
            assert np.array_equal(a.omega, b.omega)
            assert np.array_equal(a.objective_trace, b.objective_trace)
        # sharing the point left it as it was
        assert np.array_equal(point, init_point(kernels, k))


def test_init_point_arrays_are_read_only(rng):
    point = init_point([random_psd_kernel(rng, 9), random_psd_kernel(rng, 9)],
                       3)
    assert isinstance(point, np.ndarray) and point.shape == (3, 9)
    assert not point.flags.writeable
    with pytest.raises(ValueError):
        point[0, 0] = 1.0


def test_init_point_rejects_k_above_n():
    with pytest.raises(BadParamError):
        init_point([np.eye(3)], 4)


def test_init_state_rejects_mismatched_point(rng):
    kernels = [random_psd_kernel(rng, 8).data for _ in range(2)]
    point = init_point(kernels, 3)
    with pytest.raises(DimensionMismatchError):
        fit(kernels, SolverConfig(k=2, max_iters=0), point)
    with pytest.raises(DimensionMismatchError):
        fit([random_psd_kernel(rng, 9).data] * 2,
            SolverConfig(k=3, max_iters=0), point)


# ---------------------------------------------------------------------------
# fit loop


def test_fit_objective_monotone_on_random_instances():
    for seed in range(20):
        ks, _ = blob_kernels(seed, n_per=6, clusters=3, views=2)
        state = fit(ks, SolverConfig(k=3, alpha=4.0, max_iters=60))
        steps = np.diff(state.objective_trace)
        assert np.all(steps <= 1e-9)


def test_fit_separable_converges_quickly():
    ks, _ = blob_kernels(3, n_per=10, clusters=3, views=3, separation=10.0)
    state = fit(ks, SolverConfig(k=3, alpha=4.0, max_iters=100))
    assert len(state.objective_trace) - 1 <= 15
    tr = state.objective_trace
    rel = abs(tr[-2] - tr[-1]) / max(abs(tr[-2]), 1e-12)
    assert rel < 1e-6


def test_fit_zero_iterations_returns_initialization(rng):
    K = random_psd_kernel(rng, 7)
    cfg = SolverConfig(k=2, alpha=1.0, max_iters=0)
    state = fit([K], cfg)
    point = init_point([K], 2)
    assert np.array_equal(state.H, point)
    assert np.allclose(state.G[0], update_g(K, point, 1.0), rtol=1e-12)
    assert state.objective_trace.shape == (1,)
    assert list(iterate([K], cfg)) == []


def test_fit_deterministic_bitwise():
    ks, _ = blob_kernels(5, n_per=6, clusters=3, views=2)
    cfg = SolverConfig(k=3, alpha=16.0)
    a = fit(ks, cfg)
    b = fit(ks, cfg)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.omega, b.omega)


def test_fit_raises_on_overflowing_kernels():
    K = np.full((6, 6), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            fit([K], SolverConfig(k=2, alpha=1.0))


def test_fit_names_non_finite_kernels():
    X = np.random.default_rng(5).standard_normal((3, 30))
    K = X.T @ X
    K[3, 4] = K[4, 3] = np.nan
    with pytest.raises(NonFiniteError, match="NaN/Inf"):
        fit([K], SolverConfig(k=2))


def psd_array(n):
    X = np.random.default_rng(n).standard_normal((3, n))
    return X.T @ X


@pytest.mark.parametrize("call, error", [
    (lambda cfg: fit([], cfg), BadParamError),
    (lambda cfg: fit([psd_array(30), psd_array(40)], cfg),
     DimensionMismatchError),
    (lambda cfg: fit(KernelSet((KernelMatrix(psd_array(30), "a"),
                                KernelMatrix(psd_array(40), "b"))), cfg),
     DimensionMismatchError),
    (lambda cfg: fit([np.ones((30, 40))], cfg), DimensionMismatchError),
    (lambda cfg: fit(np.ones((30, 40)), cfg), DimensionMismatchError),
    (lambda cfg: init_point([psd_array(30), psd_array(40)], cfg.k),
     DimensionMismatchError),
    (lambda cfg: fit_mkkm([], cfg.k), BadParamError),
    (lambda cfg: fit_mkkm([psd_array(30), psd_array(40)], cfg.k),
     DimensionMismatchError),
    (lambda cfg: fit_kkm(np.ones((30, 40)), cfg.k), DimensionMismatchError),
], ids=["fit-empty", "fit-mixed-n", "fit-mixed-n-set", "fit-non-square",
        "fit-bare-array", "init-point-mixed-n", "mkkm-empty", "mkkm-mixed-n",
        "kkm-non-square"])
def test_solver_entry_rejects_bad_shapes(call, error):
    # the checks read shapes only, so they raise before any kernel product
    with pytest.raises(error):
        call(SolverConfig(k=2))


def hostile_fit_cases():
    """(kernels, k) at n = 60, where the seed eigensolve takes the Lanczos
    path (except for k close to n, which leaves it no room). At k = 40 the
    Ritz block [H^T, Q, W] could hold 3k > n directions, at k = n - 1 the
    residual has one usable direction, and at k = n none."""
    n = 60
    rng = np.random.default_rng(31)

    def psd(rank):
        X = rng.standard_normal((rank, n))
        return X.T @ X

    X = rng.standard_normal((5, n // 2))
    X = np.hstack([X, X])                      # every sample twice
    S = rng.standard_normal((n, n))
    K = psd(n)
    return {
        "k_equals_n": ([psd(n), psd(n)], n),
        "duplicate_samples": ([X.T @ X, psd(n)], 4),
        "rank_2": ([psd(2), psd(2)], 4),
        "indefinite": ([(S + S.T) / 2.0, psd(n)], 4),
        "zero_view": ([np.zeros((n, n)), psd(n)], 4),
        "identical_views": ([K, K.copy()], 4),
        "k_is_n_minus_1": ([psd(n), (S + S.T) / 2.0], n - 1),
        "k_close_to_n": ([psd(n), (S + S.T) / 2.0], 40),
    }


HOSTILE_FITS = hostile_fit_cases()


def residual(kernels, state, alpha):
    """The fit's stopping residual at ``state``, from dense products."""
    H = state.H
    Y = sum((w * w) * (K @ (K @ H.T) + 2.0 * alpha * (K @ H.T))
            for K, w in zip(kernels, state.omega))
    HY = H @ Y
    return np.linalg.norm(Y - H.T @ HY) / np.linalg.norm(HY)


@pytest.mark.parametrize("alpha", [1.0, 128.0])
@pytest.mark.parametrize("name", sorted(HOSTILE_FITS))
def test_fit_on_hostile_kernels(name, alpha):
    kernels, k = HOSTILE_FITS[name]
    cfg = SolverConfig(k=k, alpha=alpha)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = fit(kernels, cfg)
    # no case warns: the step needs no shift for an indefinite view, and
    # each reaches rel_tol before the cap
    assert [w.category for w in caught] == []
    assert residual(kernels, state, alpha) < cfg.rel_tol
    trace = state.objective_trace
    assert np.all(np.isfinite(trace))
    # non-increasing up to roundoff in the objective's last digits
    assert np.all(np.diff(trace) <= 1e-12 * trace[0])
    assert np.max(np.abs(state.H @ state.H.T - np.eye(k))) < 1e-10
    assert np.all(state.omega >= 0.0)
    assert abs(state.omega.sum() - 1.0) < 1e-12


def test_new_directions_keep_only_the_room_left():
    # the block of the Ritz step holds at most n - k directions besides
    # H^T, and none that B holds almost nothing of off S
    rng = np.random.default_rng(3)
    n = 12
    full = random_orthonormal_rows(rng, n, n).T
    B = rng.standard_normal((n, 3))
    assert solver._new_directions(B, full) is None
    S = full[:, :n - 1]
    X, C, T = solver._new_directions(B, S)
    assert X.shape == (n, 1)
    assert np.allclose(X, (B - S @ C) @ T, rtol=0, atol=1e-14)
    assert abs(abs(X[:, 0] @ full[:, -1]) - 1.0) < 1e-14
    S = full[:, :4]
    for inside in (np.zeros((n, 3)), S @ rng.standard_normal((4, 3))):
        assert solver._new_directions(inside, S) is None
    X, _, _ = solver._new_directions(np.hstack([B, B]), S)
    assert X.shape == (n, 3)
    assert np.max(np.abs(X.T @ X - np.eye(3))) < 1e-14
    assert np.max(np.abs(S.T @ X)) < 1e-14


def test_fit_at_k_equals_n_keeps_the_start():
    # H^T then spans the whole space: the step has no direction to add, H
    # stays the start and only the weights move
    kernels, k = HOSTILE_FITS["k_equals_n"]
    state = fit(kernels, SolverConfig(k=k, alpha=16.0))
    assert np.array_equal(state.H, init_point(kernels, k))
    assert state.objective_trace.size == 2


def test_iterate_yields_every_iteration():
    ks, _ = blob_kernels(1, n_per=6, clusters=3, views=2)
    cfg = SolverConfig(k=3, alpha=4.0, max_iters=50)
    states = list(iterate(ks, cfg))
    assert len(states) >= 1
    final = fit(ks, cfg)
    assert np.array_equal(states[-1].H, final.H)
    assert len(states[-1].objective_trace) == len(states) + 1


# ---------------------------------------------------------------------------
# numpy's BLAS threads


SCOPED = {
    "init_point": ("_top_eigenvectors", lambda ks: init_point(ks, 4)),
    "fit": ("_kernel_products", lambda ks: fit(ks, SolverConfig(k=4))),
    "fit_kkm": ("_top_eigenvectors", lambda ks: fit_kkm(ks[0], 4)),
    "fit_mkkm": ("_combined_kernel", lambda ks: fit_mkkm(ks, 4)),
}


@pytest.mark.parametrize("entry", sorted(SCOPED))
def test_entry_points_run_numpy_blas_on_one_thread(entry, caller_threads,
                                                   monkeypatch):
    probe, call = SCOPED[entry]
    seen = record_threads(monkeypatch, solver, probe, caller_threads)
    call(rbf_views(80, seed=2))
    assert seen and set(seen) == {1}
    assert caller_threads.get() == 2


def test_callers_thread_count_restored_after_a_raise(caller_threads):
    with pytest.raises(BadParamError):
        init_point([np.eye(3)], 4)
    assert caller_threads.get() == 2


def test_iterate_restores_the_count_between_yields(caller_threads,
                                                   monkeypatch):
    seen = record_threads(monkeypatch, solver, "_kernel_products",
                          caller_threads)
    between = [caller_threads.get()
               for _ in iterate(rbf_views(80, seed=2), SolverConfig(k=4))]
    assert len(between) > 1 and set(between) == {2}
    # one call per view for the start and for each sweep
    assert len(seen) == 3 * (len(between) + 1) and set(seen) == {1}


def test_fit_without_the_control_equals_fit_on_one_thread(monkeypatch):
    # a kernel above one block, whose products numpy would thread
    kernels = rbf_views(700, seed=3)
    cfg = SolverConfig(k=4, alpha=16.0)
    found = fit(kernels, cfg)
    # the caller's count at 1 where it can be set; then fit finds no control
    with _blas.one_thread():
        monkeypatch.setattr(_blas, "_control", lambda: None)
        lost = fit(kernels, cfg)
    assert_same_state(lost, found)


def test_scipy_openblas_numpy_has_a_thread_control():
    # a change of the wheel's layout must not turn the control off unseen
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas.get('name')}")
    assert _blas._control() is not None


# ---------------------------------------------------------------------------
# scipy's BLAS workers


def test_no_scipy_worker_spins_after_the_start():
    if _blas._release() is None or (scipy_blas_threads() or 1) == 1:
        pytest.skip("scipy's BLAS pool has one thread or cannot be released")
    kernels = rbf_views(600, seed=2)
    time.sleep(0.3)  # numpy's workers, threaded by the kernel build, go idle
    init_point(kernels, 4)
    start = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - start < 0.03


def test_each_eigensolve_releases_scipys_pool_once(releases):
    ks, _ = blob_kernels(1)
    H = init_point(ks, 4)
    fit_kkm(ks.kernels[0], 4)
    assert len(releases) == 2
    fit(ks, SolverConfig(k=4), init=H)
    assert len(releases) == 2
    fit(ks, SolverConfig(k=4))
    assert len(releases) == 3


def test_release_runs_on_the_dense_path_and_on_a_raise(releases):
    solver._top_eigenvectors(np.eye(6), 2)  # n <= 20: a dense eigh
    assert len(releases) == 1
    with pytest.raises(NonFiniteError, match="products overflow"):
        init_point([KernelMatrix(np.full((30, 30), 1e308), v) for v in "ab"],
                   2)
    assert len(releases) == 2
    with pytest.raises(BadParamError):
        init_point([np.eye(3)], 4)
    assert len(releases) == 3


def test_a_released_solve_keeps_scipys_thread_count_and_bits(monkeypatch):
    before = scipy_blas_threads()
    if before is None:
        pytest.skip("scipy's BLAS is not a scipy-openblas")
    kernels = rbf_views(600, seed=2)
    with monkeypatch.context() as m:
        m.setattr(_blas, "_release", lambda: None)
        kept = init_point(kernels, 4)
    H = init_point(kernels, 4)
    assert scipy_blas_threads() == before
    again = init_point(kernels, 4)  # on workers started again
    assert np.array_equal(H, kept) and np.array_equal(H, again)


def test_scipy_openblas_scipy_can_be_released():
    # a change of the wheel's layout must not turn the release off unseen
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"scipy's BLAS is {blas.get('name')}")
    assert _blas._release() is not None


# ---------------------------------------------------------------------------
# baselines


def test_fit_kkm_block_diagonal_trace(rng):
    sizes = (4, 3, 5)
    n = sum(sizes)
    K = np.zeros((n, n))
    start = 0
    for s in sizes:
        K[start:start + s, start:start + s] = 1.0
        start += s
    H = fit_kkm(K, 3)
    assert np.trace(H @ K @ H.T) == pytest.approx(sum(sizes), abs=1e-8)


def test_fit_kkm_identity_kernel(rng):
    H = fit_kkm(np.eye(6), 3)
    assert np.trace(H @ np.eye(6) @ H.T) == pytest.approx(3.0, abs=1e-10)


def test_fit_kkm_beats_random_orthonormal(rng):
    K = random_psd_kernel(rng, 8).data
    H = fit_kkm(K, 3)
    best = np.trace(H @ K @ H.T)
    for _ in range(200):
        Ht = random_orthonormal_rows(rng, 3, 8)
        assert best >= np.trace(Ht @ K @ Ht.T) - 1e-9


def test_baselines_reject_k_above_n():
    with pytest.raises(BadParamError, match="k=4 exceeds sample count 3"):
        fit_kkm(np.eye(3), 4)
    with pytest.raises(BadParamError, match="k=4 exceeds sample count 3"):
        fit_mkkm([np.eye(3)] * 2, 4)


def test_fit_mkkm_single_view_reduces_to_kkm(rng):
    K = random_psd_kernel(rng, 8)
    H, gamma = fit_mkkm([K], 3)
    assert np.array_equal(H, fit_kkm(K, 3))
    assert np.array_equal(gamma, [1.0])


@pytest.mark.parametrize("limits", [{"max_iters": -1}, {"rel_tol": 0.0},
                                    {"rel_tol": float("nan")}])
def test_fit_mkkm_rejects_bad_limits(rng, limits):
    # the checks SolverConfig makes, with its messages, before any solve
    K = random_psd_kernel(rng, 8)
    with pytest.raises(BadParamError) as mkkm_err:
        fit_mkkm([K, K], 3, **limits)
    with pytest.raises(BadParamError) as config_err:
        SolverConfig(k=3, **limits)
    assert str(mkkm_err.value) == str(config_err.value)


def test_fit_mkkm_identical_views_uniform_gamma(rng):
    K = random_psd_kernel(rng, 8)
    _, gamma = fit_mkkm([K, K], 3)
    assert np.max(np.abs(gamma - 0.5)) < 1e-10


@_blas.one_thread()
def _ref_fit_mkkm(kernels, clusters, max_iters=SolverConfig.max_iters,
                  rel_tol=SolverConfig.rel_tol):
    """fit_mkkm as it was when it summed a new K_gamma per build, on one
    numpy BLAS thread as ``fit_mkkm`` runs. Its eigensolves are the array
    solves of ``_top_eigenvectors``, as ``fit_mkkm``'s are."""
    V = len(kernels)
    traces = np.array([float(np.trace(K)) for K in kernels])
    gamma = np.full(V, 1.0 / V)
    H = solver._top_eigenvectors(
        sum((g * g) * K for g, K in zip(gamma, kernels)), clusters).T
    j_prev = None
    for _ in range(max_iters):
        c = np.array([traces[v] - float(np.sum((H @ kernels[v]) * H))
                      for v in range(V)])
        gamma = update_weights(c)
        j = float(np.sum(gamma * gamma * c))
        if j_prev is not None and abs(j_prev - j) / max(abs(j_prev), 1e-12) < rel_tol:
            break
        j_prev = j
        H = solver._top_eigenvectors(
            sum((g * g) * K for g, K in zip(gamma, kernels)), clusters).T
    return H, gamma


@pytest.mark.parametrize("normalization", ["none", "center"])
def test_fit_mkkm_matches_summed_reference(normalization):
    # K_gamma is built in one reused buffer, with the additions of the sum
    # it replaces, so (H, gamma) keep their bits; the centered kernels hold
    # exact zeros, whose signs 0 + g^2 K_0 decides
    from mvkmf.kernels import normalize_kernel

    feats, _ = make_synthetic(75, 4, 3, separation=2.5, seed=101)
    kernels = [normalize_kernel(build_kernel(f, KernelSpec(kind="rbf")),
                                normalization).data for f in feats]
    if normalization == "center":
        kernels[0] = kernels[0].copy()
        kernels[0][:3, :3] = -0.0
        kernels[0][3:6, 3:6] = 0.0
    H, gamma = fit_mkkm(kernels, 4)
    ref_H, ref_gamma = _ref_fit_mkkm(kernels, 4)
    assert H.tobytes() == ref_H.tobytes()
    assert gamma.tobytes() == ref_gamma.tobytes()


@pytest.mark.parametrize("n", [1, 7, 362, 363, 700])
def test_combined_kernel_matches_sum_bitwise(rng, n):
    # one block up to n = 362, several above; signed zeros included
    kernels = [rng.standard_normal((n, n)) for _ in range(3)]
    kernels[0].reshape(-1)[::5] = -0.0
    kernels[1].reshape(-1)[::7] = 0.0
    for K in kernels:
        K.reshape(-1)[::35] = -0.0  # 0 + (-0.0) + (-0.0) + (-0.0) is +0.0
    gamma = update_weights(rng.uniform(0.5, 2.0, 3))
    out = np.full((n, n), np.nan)
    assert solver._combined_kernel(kernels, gamma, out) is out
    assert out.tobytes() == sum((g * g) * K
                               for g, K in zip(gamma, kernels)).tobytes()
    assert not np.signbit(out.reshape(-1)[::35]).any()


def test_mkkm_objective_never_increases():
    # fit_mkkm with max_iters = t replays the run of t - 1 and one more
    # step, so its (H, gamma) is the t-th iterate. Each H step maximizes
    # tr(H K_gamma H^T) and each gamma step solves the simplex problem, so
    # J = sum gamma_v^2 (tr K_v - tr(H K_v H^T)) falls or stays
    kernels = rbf_views(300, seed=1)
    J = []
    for t in range(25):
        H, gamma = fit_mkkm(kernels, 4, max_iters=t)
        J.append(sum(g * g * (np.trace(K) - np.sum((H @ K) * H))
                     for g, K in zip(gamma, kernels)))
    J = np.array(J)
    assert np.all(np.diff(J) <= 1e-12 * J[:-1])
    assert J[-1] < J[0]


def test_mkkm_gamma_step_matches_grid_search(rng):
    # fixed H: the gamma update solves min sum gamma^2 c_v on the simplex
    K1, K2 = (random_psd_kernel(rng, 8, name=s) for s in ("a", "b"))
    H = fit_kkm((K1.data + K2.data) / 2.0, 3)
    c = np.array([np.trace(K.data) - np.sum((H @ K.data) * H)
                  for K in (K1, K2)])
    gamma = update_weights(c)
    t = np.arange(0.0, 1.0 + 1e-9, 1e-4)
    vals = t * t * c[0] + (1.0 - t) ** 2 * c[1]
    assert abs(gamma[0] - t[np.argmin(vals)]) <= 1e-4
