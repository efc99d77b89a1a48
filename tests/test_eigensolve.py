"""Top-k Lanczos eigensolves against a dense ``eigh`` on hostile kernels.

Every case runs at n >= 200, where ``_top_eigenvectors`` takes the ARPACK
path (the small kernels elsewhere in the suite all take the dense one).
Each returned basis must be orthonormal, sign-fixed, and span the same
top-k subspace as ``np.linalg.eigh``: all principal-angle cosines >= 1 - 1e-10.
"""

import tracemalloc

import numpy as np
import pytest

from mvkmf import solver
from mvkmf.errors import NonFiniteError
from mvkmf.kernels import KernelMatrix, normalize_kernel
from mvkmf.solver import SolverConfig, fit_kkm, fit_mkkm, init_point

from conftest import random_psd_kernel

N = 200
COS_TOL = 1e-10


def dense_top(M, k):
    """Reference: the k leading eigenvectors from a full decomposition."""
    _, vecs = np.linalg.eigh(M)
    return vecs[:, ::-1][:, :k]


def four_blocks(n=N, c=10.0):
    """Four equal all-ones blocks (top eigenvalue n/4, multiplicity 4) plus a
    rank-one term c u u^T with u orthogonal to the block indicators, so the
    fifth eigenvalue c is simple and the top-5 subspace is unique too."""
    m = n // 4
    K = np.kron(np.eye(4), np.ones((m, m)))
    u = np.random.default_rng(3).standard_normal(n)
    u -= np.repeat(u.reshape(4, m).mean(axis=1), m)
    u /= np.linalg.norm(u)
    return K + c * np.outer(u, u)


def hostile_kernels():
    rng = np.random.default_rng(2024)
    S = rng.standard_normal((N, N))
    X = rng.standard_normal((8, N // 2))
    X = np.hstack([X, X])                      # every sample twice
    # integer features summing to zero over the samples: every row sum of
    # Z Z^T is exactly 0, so the all-ones vector is an exact null vector
    Z = rng.integers(-3, 4, size=(N, 5)).astype(float)
    Z[-1] = -Z[:-1].sum(axis=0)
    return {
        "random_psd": (random_psd_kernel(rng, N).data, 4),
        "indefinite": ((S + S.T) / 2.0, 4),
        "four_blocks_k4": (four_blocks(), 4),
        "four_blocks_k5": (four_blocks(), 5),
        "duplicate_samples": (X.T @ X, 4),
        "centered": (normalize_kernel(random_psd_kernel(rng, N), "center").data,
                     4),
        "centered_exact": (Z @ Z.T, 4),
        "zero": (np.zeros((N, N)), 4),
        "k_n_minus_1": (random_psd_kernel(rng, N).data, N - 1),
    }


CASES = hostile_kernels()


def assert_same_subspace(V, reference, k, signs=True):
    """``signs=False`` skips the sign check, for Ritz vectors, which are
    not sign-fixed."""
    assert V.shape == reference.shape == (N, k)
    assert np.max(np.abs(V.T @ V - np.eye(k))) < 1e-10
    if signs:
        lead = np.argmax(np.abs(V), axis=0)
        assert np.all(V[lead, np.arange(k)] > 0)
    cosines = np.linalg.svd(reference.T @ V, compute_uv=False)
    assert cosines.min() >= 1.0 - COS_TOL


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Record each ARPACK call and whether it raised."""
    calls = []
    real = solver.eigsh

    def spy(*args, **kwargs):
        try:
            out = real(*args, **kwargs)
        except solver.ArpackError:
            calls.append("raised")
            raise
        calls.append("ok")
        return out

    monkeypatch.setattr(solver, "eigsh", spy)
    return calls


def expected_calls(name):
    if name == "k_n_minus_1":
        return set()              # the Krylov basis would span the space
    if name == "zero":
        return {"raised"}         # ARPACK fails; dense fallback
    return {"ok"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_init_point_matches_dense(name, eigsh_calls):
    # two views, so each product adds a second dsymv into the first
    K, k = CASES[name]
    assert_same_subspace(init_point([K, K], k).T, dense_top(K + K, k), k)
    assert set(eigsh_calls) == expected_calls(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_kkm_matches_dense(name, eigsh_calls):
    K, k = CASES[name]
    assert_same_subspace(fit_kkm(K, k).T, dense_top(K, k), k)
    assert set(eigsh_calls) == expected_calls(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_mkkm_matches_dense(name, eigsh_calls):
    # two identical views keep gamma at 1/2, so every step is on K / 2. The
    # one eigensolve is the start's: given it, the fit makes none
    K, k = CASES[name]
    H, gamma, _ = fit_mkkm([K, K], SolverConfig(k=k))
    assert np.allclose(gamma, 0.5, atol=1e-12)
    assert_same_subspace(H.T, dense_top(K, k), k, signs=False)
    assert set(eigsh_calls) == expected_calls(name)
    start = init_point([K, K], k)
    eigsh_calls.clear()
    again = fit_mkkm([K, K], SolverConfig(k=k), init=start)
    assert eigsh_calls == []
    for got, want in zip(again, (H, gamma)):
        assert np.array_equal(got, want)


def test_start_operator_equals_dense_matrix():
    rng = np.random.default_rng(7)
    kernels = [random_psd_kernel(rng, 50), random_psd_kernel(rng, 50)]
    dense = kernels[0].data + kernels[1].data
    op = solver._sum_operator(kernels)
    x = np.random.default_rng(8).standard_normal(50)
    assert np.allclose(op.matvec(x), dense @ x, rtol=1e-12, atol=1e-9)
    assert np.array_equal(op @ np.eye(50), dense)


def test_start_operator_raises_on_an_overflowing_product():
    # each kernel is finite, but neither their sum nor a product with the
    # all-ones vector is
    kernels = [KernelMatrix(np.full((30, 30), 1e308), v) for v in "ab"]
    with pytest.raises(NonFiniteError, match="products overflow"):
        solver._sum_operator(kernels).matvec(np.eye(30)[0])
    with pytest.raises(NonFiniteError, match="products overflow"):
        solver._sum_operator(kernels[:1]).matvec(np.ones(30))


def test_restarted_lanczos_repeats_bitwise():
    # only a 3 x 3 block is nonzero, so the Krylov space closes after three
    # steps and ARPACK draws restart vectors, which must come from the seed
    B = np.random.default_rng(5).standard_normal((3, 3))
    K = np.zeros((N, N))
    K[:3, :3] = B @ B.T + 3.0 * np.eye(3)
    assert np.array_equal(init_point([K, K], 4), init_point([K, K], 4))
    assert np.array_equal(fit_kkm(K, 4), fit_kkm(K, 4))


def _symmetric(n, seed):
    S = np.random.default_rng(seed).standard_normal((n, n))
    return (S + S.T) / 2.0


def test_init_point_same_bits_for_any_layout():
    # every layout holds the same symmetric matrix, so the start operator
    # must hand BLAS the same values in the same order
    big = _symmetric(2 * N, 9)
    K = np.ascontiguousarray(big[::2, ::2])
    read_only = K.copy()
    read_only.setflags(write=False)
    reference = init_point([K], 4)
    for M in (np.asfortranarray(K), read_only, big[::2, ::2]):
        assert np.array_equal(init_point([M], 4), reference)


@pytest.mark.parametrize("order", ["C", "F"])
def test_init_point_copies_no_kernel(order):
    # a copy of K per matrix-vector product (or once) would peak at n^2
    # floats; the eigensolve itself needs O(n k)
    n = 1000
    K = np.asarray(_symmetric(n, 10), order=order)
    tracemalloc.start()
    try:
        init_point([K], 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * n * 8


@pytest.mark.parametrize("order", ["C", "F"])
def test_start_operator_reads_one_triangle(order):
    # the operator gets the ingested C-ordered array, K itself or, for a
    # Fortran-ordered K, its transpose, and dsymv reads the upper triangle
    # of that array's transpose: K's lower triangle for a C-ordered K and
    # its upper one for a Fortran-ordered K. NaN in the other triangle must
    # not reach a matrix-vector product.
    K = np.asarray(_symmetric(50, 11), order=order)
    op = solver._sum_operator([KernelMatrix(K, "v")])
    x = np.random.default_rng(12).standard_normal(50)
    before = op.matvec(x)
    unread = np.triu_indices(50, 1) if order == "C" else np.tril_indices(50, -1)
    K[unread] = np.nan
    assert np.array_equal(op.matvec(x), before)
