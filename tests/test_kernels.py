import numpy as np
import pytest

from mvkmf.errors import (
    AsymmetricKernelError,
    BadParamError,
    DimensionMismatchError,
    NonFiniteError,
    ZeroDiagonalError,
)
from mvkmf.kernels import (
    FeatureMatrix,
    KernelMatrix,
    KernelSet,
    KernelSpec,
    build_kernel,
    median_heuristic_sigma,
    normalize_kernel,
    validate_kernel_set,
)

from conftest import random_psd_kernel


# ---------------------------------------------------------------------------
# containers


def test_feature_matrix_rejects_nan():
    with pytest.raises(NonFiniteError):
        FeatureMatrix(np.array([[1.0, np.nan]]), "v")


def test_feature_matrix_needs_two_samples():
    with pytest.raises(BadParamError):
        FeatureMatrix(np.array([[1.0]]), "v")


def test_feature_matrix_rejects_vector():
    with pytest.raises(DimensionMismatchError):
        FeatureMatrix(np.array([1.0, 2.0]), "v")


def test_kernel_matrix_symmetrizes_within_tolerance():
    k = np.eye(3)
    k[0, 1] = 1.0
    k[1, 0] = 1.0 + 1e-10
    km = KernelMatrix(k, "v")
    assert np.array_equal(km.data, km.data.T)
    assert km.ingest_asymmetry == pytest.approx(1e-10, rel=1e-3)


def test_kernel_matrix_rejects_large_asymmetry():
    k = np.eye(3)
    k[0, 1] = 1.0
    k[1, 0] = 1.5
    with pytest.raises(AsymmetricKernelError):
        KernelMatrix(k, "v")


def test_kernel_matrix_rejects_nonsquare_and_nan():
    with pytest.raises(DimensionMismatchError):
        KernelMatrix(np.zeros((2, 3)), "v")
    bad = np.eye(2)
    bad[0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        KernelMatrix(bad, "v")


# ---------------------------------------------------------------------------
# kernel construction


def test_linear_kernel_identity_features():
    x = FeatureMatrix(np.eye(2), "v")
    k = build_kernel(x, KernelSpec(kind="linear"))
    assert np.array_equal(k.data, np.eye(2))


def test_rbf_diagonal_is_exactly_one(rng):
    x = FeatureMatrix(rng.standard_normal((3, 7)), "v")
    k = build_kernel(x, KernelSpec(kind="rbf", sigma=0.7))
    assert np.array_equal(np.diag(k.data), np.ones(7))
    assert np.all(k.data > 0) and np.all(k.data <= 1.0)


def test_rbf_median_heuristic_collinear_points():
    # points 0, 1, 2 on a line: nonzero distances {1, 1, 2}, median 1
    x = FeatureMatrix(np.array([[0.0, 1.0, 2.0]]), "v")
    assert median_heuristic_sigma(x) == 1.0
    k = build_kernel(x, KernelSpec(kind="rbf"))
    assert k.data[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert k.data[0, 1] == pytest.approx(0.60653, abs=1e-5)


def test_median_heuristic_coincident_points_falls_back():
    x = FeatureMatrix(np.zeros((2, 4)), "v")
    assert median_heuristic_sigma(x) == 1.0


def test_polynomial_kernel_matches_naive_loop(rng):
    x = rng.standard_normal((4, 6))
    k = build_kernel(FeatureMatrix(x, "v"),
                     KernelSpec(kind="polynomial", c=0.5, degree=3))
    naive = np.empty((6, 6))
    for i in range(6):
        for j in range(6):
            naive[i, j] = (x[:, i] @ x[:, j] + 0.5) ** 3
    assert np.allclose(k.data, naive, atol=1e-9)


def test_built_kernels_exactly_symmetric(rng):
    x = FeatureMatrix(rng.standard_normal((5, 9)), "v")
    for spec in (KernelSpec(kind="linear"), KernelSpec(kind="rbf"),
                 KernelSpec(kind="polynomial", degree=2)):
        k = build_kernel(x, spec)
        assert np.array_equal(k.data, k.data.T)


def test_kernel_spec_validation():
    with pytest.raises(BadParamError):
        KernelSpec(kind="sigmoid")
    with pytest.raises(BadParamError):
        KernelSpec(kind="rbf", sigma=-1.0)
    with pytest.raises(BadParamError):
        KernelSpec(kind="polynomial", degree=0)


def test_kernel_spec_dict_round_trip():
    spec = KernelSpec(kind="polynomial", c=2.0, degree=4)
    assert KernelSpec.from_dict(spec.to_dict()) == spec
    spec = KernelSpec(kind="rbf", sigma=None)
    assert KernelSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# normalization


def test_cosine_normalization_unit_diagonal(rng):
    k = random_psd_kernel(rng, 6)
    k = KernelMatrix(k.data + 6.0 * np.eye(6), "v")   # safely positive diagonal
    out = normalize_kernel(k, "cosine")
    assert np.array_equal(np.diag(out.data), np.ones(6))
    assert np.max(np.abs(out.data)) <= 1.0 + 1e-12    # Cauchy-Schwarz bound


def test_cosine_rejects_zero_diagonal():
    k = KernelMatrix(np.diag([1.0, 0.0]), "v")
    with pytest.raises(ZeroDiagonalError):
        normalize_kernel(k, "cosine")


def test_center_on_ones_gives_zero():
    k = KernelMatrix(np.ones((4, 4)), "v")
    out = normalize_kernel(k, "center")
    assert np.allclose(out.data, 0.0, atol=1e-15)


def test_center_zeroes_row_and_column_sums(rng):
    a = rng.standard_normal((4, 4))
    k = KernelMatrix((a + a.T) / 2.0, "v")
    out = normalize_kernel(k, "center")
    assert np.max(np.abs(out.data.sum(axis=0))) < 1e-10
    assert np.max(np.abs(out.data.sum(axis=1))) < 1e-10


def test_normalize_none_is_identity(rng):
    k = random_psd_kernel(rng, 5)
    assert normalize_kernel(k, "none") is k


def test_normalize_unknown_mode():
    with pytest.raises(BadParamError):
        normalize_kernel(KernelMatrix(np.eye(2), "v"), "standardize")


# ---------------------------------------------------------------------------
# validation


def test_validate_clean_identity_kernels():
    ks = KernelSet(kernels=(KernelMatrix(np.eye(3), "a"),
                            KernelMatrix(np.eye(3), "b")))
    report = validate_kernel_set(ks)
    assert report.warnings == []
    for view in report.views:
        assert not view.indefinite
        assert view.min_eig_estimate == pytest.approx(1.0, abs=1e-8)


def test_validate_rejects_sample_count_mismatch():
    ks = KernelSet(kernels=(KernelMatrix(np.eye(10), "a"),
                            KernelMatrix(np.eye(12), "b")))
    with pytest.raises(DimensionMismatchError):
        validate_kernel_set(ks)


def test_validate_rejects_duplicate_view_names():
    ks = KernelSet(kernels=(KernelMatrix(np.eye(3), "a"),
                            KernelMatrix(np.eye(3), "a")))
    with pytest.raises(DimensionMismatchError):
        validate_kernel_set(ks)


def test_indefinite_kernel_flagged_not_rejected():
    k = np.diag([2.0, 1.0, -0.5])
    report = validate_kernel_set(KernelSet(kernels=(KernelMatrix(k, "a"),)))
    assert report.views[0].indefinite
    assert len(report.warnings) == 1
    assert report.views[0].min_eig_estimate == pytest.approx(-0.5, abs=1e-6)


def test_min_eigenvalue_estimate_on_separated_spectra(rng):
    # iterative estimate resolves the bottom eigenvalue when it is well
    # separated from the rest of the spectrum
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        lam = np.concatenate([[-2.0], rng.uniform(0.5, 3.0, size=7)])
        k = (q * lam) @ q.T
        k = (k + k.T) / 2.0
        report = validate_kernel_set(KernelSet(kernels=(KernelMatrix(k, "a"),)))
        assert report.views[0].min_eig_estimate == pytest.approx(-2.0, abs=1e-6)


def test_min_eigenvalue_estimate_never_undershoots(rng):
    # the estimate is a Rayleigh quotient, so it can approach the true
    # minimum from above but never pass below it
    for _ in range(5):
        a = rng.standard_normal((8, 8))
        k = (a + a.T) / 2.0
        report = validate_kernel_set(KernelSet(kernels=(KernelMatrix(k, "a"),)))
        spectrum = np.linalg.eigvalsh(k)
        est = report.views[0].min_eig_estimate
        assert est >= spectrum[0] - 1e-10
        assert est <= spectrum[0] + 0.2 * (spectrum[-1] - spectrum[0])


def test_kernel_set_properties():
    ks = KernelSet(kernels=(KernelMatrix(np.eye(4), "a"),
                            KernelMatrix(np.eye(4), "b")))
    assert ks.n == 4
    assert ks.V == 2
    assert ks.view_names == ("a", "b")
