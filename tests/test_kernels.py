import copy
import json
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from mvkmf.errors import (
    AsymmetricKernelError,
    BadParamError,
    DimensionMismatchError,
    NonFiniteError,
    ZeroDiagonalError,
)
from mvkmf import kernels as kernels_module
from mvkmf.io import (
    load_dataset,
    load_manifest,
    make_synthetic,
    write_labels,
    write_matrix,
)
from mvkmf.kernels import (
    SYMMETRY_TOL,
    _TILE,
    FeatureMatrix,
    KernelMatrix,
    KernelSet,
    KernelSpec,
    _median_sigma,
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
    assert km.data[0, 1] == (1.0 + (1.0 + 1e-10)) / 2.0
    assert k[1, 0] == 1.0 + 1e-10  # the caller's array is not repaired


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


def test_built_kernels_exactly_symmetric(rng, monkeypatch):
    # built and normalized kernels skip the asymmetry scan, so each must be
    # exactly symmetric, on which the scan would find 0.0 and repair
    # nothing; duplicated and coincident samples included (see
    # _random_features)
    def scan(a):
        raise AssertionError("asymmetry scan on a kernel built here")
    monkeypatch.setattr(kernels_module, "_max_asymmetry", scan)
    features = [rng.standard_normal((5, 9))]
    features += [_random_features(rng) for _ in range(120)]
    for X in features:
        fm = FeatureMatrix(X, "v")
        for spec in (KernelSpec(kind="linear"), KernelSpec(kind="rbf"),
                     KernelSpec(kind="rbf", sigma=0.3),
                     KernelSpec(kind="polynomial", degree=2),
                     KernelSpec(kind="polynomial", c=0.5, degree=3)):
            k = build_kernel(fm, spec)
            assert np.array_equal(k.data, k.data.T)
            for mode in ("cosine", "center"):
                if mode == "cosine" and np.any(np.diag(k.data) <= 0):
                    continue
                out = normalize_kernel(k, mode)
                assert np.array_equal(out.data, out.data.T)


OVERFLOWING = [0.0, 1e200, -1e200, 3e200]  # distances and X^T X overflow
LARGE = [1e100, 2e100, -1e100, 0.0]        # finite X^T X; its cube overflows
HUGE = [1.2e154, 1.2e154]                   # X^T X finite, K + K^T not


@pytest.mark.parametrize("x, spec, overflows", [
    (OVERFLOWING, KernelSpec(kind="rbf"), True),
    (OVERFLOWING, KernelSpec(kind="linear"), True),
    (OVERFLOWING, KernelSpec(kind="polynomial", degree=3), True),
    (LARGE, KernelSpec(kind="rbf"), False),
    (LARGE, KernelSpec(kind="linear"), False),
    (LARGE, KernelSpec(kind="polynomial", degree=3), True),
    (HUGE, KernelSpec(kind="linear"), False),
    (HUGE, KernelSpec(kind="polynomial", c=0.0, degree=1), False),
], ids=["rbf", "linear", "polynomial", "rbf-large", "linear-large",
        "polynomial-large", "linear-huge", "polynomial-huge"])
def test_overflowing_features_raise_typed_error_without_warning(x, spec,
                                                                 overflows):
    fm = FeatureMatrix(np.array([x]), "v")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if overflows:
            with pytest.raises(NonFiniteError):
                build_kernel(fm, spec)
        else:
            assert np.isfinite(build_kernel(fm, spec).data).all()


def test_rbf_with_vanishing_sigma_warns_nothing():
    # 2 sigma^2 underflows to 0: distinct samples get 0, and the duplicated
    # pair 0/0 = NaN, which is the typed error
    fm = FeatureMatrix(np.array([[0.0, 1.0, 3.0]]), "v")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = build_kernel(fm, KernelSpec(kind="rbf", sigma=1e-200))
        assert np.array_equal(k.data, np.eye(3))
        with pytest.raises(NonFiniteError):
            build_kernel(FeatureMatrix(np.array([[0.0, 0.0, 3.0]]), "v"),
                         KernelSpec(kind="rbf", sigma=1e-200))


def test_asymmetric_raw_array_and_kernel_file_still_rejected(tmp_path):
    k = np.eye(4)
    k[0, 1], k[1, 0] = 0.5, 0.5 + 10 * SYMMETRY_TOL
    with pytest.raises(AsymmetricKernelError):
        KernelMatrix(k, "v")
    write_matrix(tmp_path / "k.mvk1", k)
    write_labels(tmp_path / "labels.csv", [0, 1] * 2)

    def load(normalization):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "name": "toy", "n": 4, "clusters": 2, "labels": "labels.csv",
            "views": [{"name": "a", "kernel": "k.mvk1",
                       "normalization": normalization}]}))
        return load_dataset(load_manifest(manifest))[0].kernels[0]

    for normalization in ("none", "cosine", "center"):
        with pytest.raises(AsymmetricKernelError):
            load(normalization)
    # within the tolerance the file is repaired
    k[1, 0] = 0.5 + SYMMETRY_TOL / 2
    write_matrix(tmp_path / "k.mvk1", k)
    repaired = load("none")
    assert np.array_equal(repaired.data, repaired.data.T)
    assert _same_bits(repaired.data, (k + k.T) / 2.0)


def test_repair_of_huge_finite_kernel_stays_finite():
    # a kernel file's entries may be finite up to the float64 maximum;
    # (K + K^T) / 2 would overflow there, with only a RuntimeWarning
    k = np.array([[1e308, 1.0, 0.0], [1.0, 1.0, 1.0 + 1e-9], [0.0, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        km = KernelMatrix(k, "v")
        out = normalize_kernel(km, "center")
    assert km.data[0, 0] == 1e308
    assert km.data[1, 2] == km.data[2, 1] == (1.0 + (1.0 + 1e-9)) / 2.0
    assert np.isfinite(out.data).all()
    assert np.array_equal(out.data, out.data.T)


@pytest.mark.parametrize("n", [1, 2, 3, _TILE - 1, _TILE, _TILE + 1,
                               2 * _TILE + 3])
def test_symmetrize_matches_old_expression_in_normal_range(n):
    # halving is exact in the normal range, so K/2 + K^T/2 has the bits of
    # (K + K^T) / 2, through each path that symmetrizes (the ingest repair
    # is checked at these sizes in the tile-boundary test below)
    rng = np.random.default_rng(n)
    for scale in (1e-300, 1.0, 1e300):
        A = rng.standard_normal((n, n)) * scale
        for data in (A, np.asfortranarray(A)):
            assert _same_bits(kernels_module._symmetrize(data.copy()),
                              (A + A.T) / 2.0)
    X = rng.standard_normal((3, max(n, 2)))  # features need 2 samples
    G = X.T @ X
    lin = build_kernel(FeatureMatrix(X, "v"), KernelSpec(kind="linear"))
    assert _same_bits(lin.data, (G + G.T) / 2.0)
    P = (G + 0.5) ** 3
    poly = build_kernel(FeatureMatrix(X, "v"),
                        KernelSpec(kind="polynomial", c=0.5, degree=3))
    assert _same_bits(poly.data, (P + P.T) / 2.0)
    K = lin.data
    C = K - K.mean(axis=1, keepdims=True) - K.mean(axis=0, keepdims=True) \
        + K.mean()
    assert _same_bits(normalize_kernel(lin, "center").data, (C + C.T) / 2.0)


def test_kernel_spec_validation():
    with pytest.raises(BadParamError):
        KernelSpec(kind="sigmoid")
    with pytest.raises(BadParamError):
        KernelSpec(kind="rbf", sigma=-1.0)
    with pytest.raises(BadParamError):
        KernelSpec(kind="polynomial", degree=0)


@pytest.mark.parametrize("c", [-5.0, -1e-300, float("nan")])
def test_kernel_spec_rejects_negative_c(c):
    # (x^T y + c)^p with c < 0 is indefinite for some inputs, and a built
    # kernel is marked PSD by construction
    with pytest.raises(BadParamError, match=f"c must be >= 0, got {c}"):
        KernelSpec(kind="polynomial", c=c, degree=2)
    with pytest.raises(BadParamError, match=f"got {c}"):
        KernelSpec.from_dict({"kind": "polynomial", "c": c})


@pytest.mark.parametrize("degree", [1.5, 2.5, float("inf"), "2", None])
def test_kernel_spec_rejects_non_integer_degree(degree):
    with pytest.raises(BadParamError,
                       match=f"degree must be an integer, got {degree!r}"):
        KernelSpec(kind="polynomial", degree=degree)
    # a manifest's 2.5 is not truncated to 2
    with pytest.raises(BadParamError, match=f"got {degree!r}"):
        KernelSpec.from_dict({"kind": "polynomial", "degree": degree})


def test_non_integer_degree_gives_indefinite_kernel():
    # why the degree must be an integer: x^T y >= 0 here, c = 0, and yet
    # the elementwise power 1.5 leaves the PSD cone
    X = np.random.default_rng(0).uniform(0.0, 1.0, size=(3, 40))
    K = (X.T @ X) ** 1.5
    assert np.linalg.eigvalsh(K)[0] < -1e-3
    assert not kernels_module._cholesky_succeeds(K)


def test_kernel_spec_dict_round_trip():
    spec = KernelSpec(kind="polynomial", c=2.0, degree=4)
    assert KernelSpec.from_dict(spec.to_dict()) == spec
    spec = KernelSpec(kind="polynomial", c=0.0, degree=1)
    assert KernelSpec.from_dict(spec.to_dict()) == spec
    # an integral float degree is stored as an int
    spec = KernelSpec.from_dict({"kind": "polynomial", "degree": 3.0})
    assert type(spec.degree) is int
    assert spec == KernelSpec(kind="polynomial", degree=3)
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
    assert validate_kernel_set(ks) == (False, False)


def test_validate_rejects_sample_count_mismatch():
    # the set itself rejects mixed sample counts, before any validation
    with pytest.raises(DimensionMismatchError, match="sample count: 10 vs 12"):
        KernelSet(kernels=(KernelMatrix(np.eye(10), "a"),
                           KernelMatrix(np.eye(12), "b")))


def test_validate_rejects_duplicate_view_names():
    with pytest.raises(DimensionMismatchError, match="duplicate view names"):
        KernelSet(kernels=(KernelMatrix(np.eye(3), "a"),
                           KernelMatrix(np.eye(3), "b"),
                           KernelMatrix(np.eye(3), "a")))


def test_kernel_set_rejects_views_that_are_not_kernel_matrices():
    for views in ((np.eye(3),),
                  (KernelMatrix(np.eye(3), "a"), np.eye(3))):
        with pytest.raises(BadParamError, match="not a KernelMatrix"):
            KernelSet(kernels=views)


def _eigvalsh_says_indefinite(K):
    """The verdict from the spectrum: an eigenvalue below -tau."""
    tau = 1e-10 * max(1.0, abs(float(np.trace(K))))
    return bool(np.linalg.eigvalsh(K)[0] < -tau)


def _verdict(K):
    """validate_kernel_set's verdict on K alone; K must come back bit for bit
    and agree with the spectrum."""
    before = K.copy(order="K")
    (indefinite,) = validate_kernel_set(
        KernelSet(kernels=(KernelMatrix(K, "v"),)))
    assert _same_bits(K, before)
    assert indefinite == _eigvalsh_says_indefinite(before)
    return indefinite


def test_indefinite_kernel_flagged_not_rejected():
    k = np.diag([2.0, 1.0, -0.5])
    assert validate_kernel_set(
        KernelSet(kernels=(KernelMatrix(k, "a"),))) == (True,)
    assert _eigvalsh_says_indefinite(k)


def test_verdict_matches_eigvalsh_on_separated_spectra(rng):
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        lam = np.concatenate([[-2.0], rng.uniform(0.5, 3.0, size=7)])
        k = (q * lam) @ q.T
        k = (k + k.T) / 2.0
        assert _verdict(k)


def test_verdict_matches_eigvalsh_on_random_kernels(rng):
    # random symmetric matrices, PSD ones of full and of low rank, and PSD
    # ones minus a small rank-one term, at sizes from 1 up
    for n in (1, 2, 3, 5, 8, 40, 120, 300):
        a = rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for k in ((a + a.T) / 2.0,
                  random_psd_kernel(rng, n).data,
                  random_psd_kernel(rng, n, rank=max(1, n // 3)).data,
                  random_psd_kernel(rng, n).data - 0.5 * np.outer(u, u)):
            _verdict(k)
            _verdict(np.asfortranarray(k))


def _rbf_view(n):
    feats, _ = make_synthetic(n // 4, 4, 3, separation=2.5, seed=101)
    return build_kernel(feats[0], KernelSpec(kind="rbf")).data


@pytest.mark.parametrize("s", [0.5, 5.0])
def test_rbf_minus_rank_one_is_indefinite(s):
    # an rbf spectrum crowds at 0, where a shifted power iteration never
    # resolves the bottom eigenvalue; the factorization fails outright
    n = 500
    u = np.random.default_rng(3).standard_normal(n)
    u /= np.linalg.norm(u)
    K = _rbf_view(n) - s * np.outer(u, u)
    assert np.linalg.eigvalsh(K)[0] < -0.4
    assert _verdict(K)


def test_rank_deficient_kernels_are_not_flagged(rng):
    # X^T X with d < n has n - d zero eigenvalues; rounding puts some just
    # below 0, far above -tau
    for d, scale in ((1, 1.0), (3, 1.0), (3, 1e6), (20, 1.0)):
        fm = FeatureMatrix(scale * rng.standard_normal((d, 200)), "v")
        for spec in (KernelSpec(kind="linear"),
                     KernelSpec(kind="polynomial", c=1.0, degree=2)):
            assert not _verdict(build_kernel(fm, spec).data)


def test_verdict_on_one_sample_and_zero_kernels():
    assert not _verdict(np.array([[0.0]]))
    assert not _verdict(np.array([[3.0]]))
    assert _verdict(np.array([[-1.0]]))
    assert not _verdict(np.zeros((7, 7)))


def test_read_only_kernel_is_left_untouched():
    for K in (np.diag([2.0, 1.0, -0.5]), _rbf_view(100)):
        K.flags.writeable = False
        km = KernelMatrix(K, "v")
        assert np.shares_memory(km.data, K) and not km.data.flags.writeable
        _verdict(K)


def test_strided_kernel_is_judged():
    for K in (np.diag([2.0, 1.0, -0.5]), _rbf_view(100)):
        n = K.shape[0]
        big = np.zeros((2 * n, 2 * n))
        big[::2, ::2] = K
        view = big[::2, ::2]
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        before = big.copy()
        _verdict(view)
        assert _same_bits(big, before)


PSD_SPECS = (KernelSpec(kind="linear"), KernelSpec(kind="rbf"),
             KernelSpec(kind="rbf", sigma=1e-3),
             KernelSpec(kind="rbf", sigma=1e6),
             KernelSpec(kind="polynomial", c=1.0, degree=2),
             KernelSpec(kind="polynomial", c=0.0, degree=3))


def _hostile_features(n, rng):
    """Gaussian samples, each repeated 4 times, at scales 1e-150 and 1e100,
    with a single feature, and with three times as many features as
    samples."""
    base = rng.standard_normal((5, max(1, n // 4)))
    return {"gaussian": rng.standard_normal((5, n)),
            "duplicated": base[:, np.arange(n) % base.shape[1]],
            "scale-1e-150": 1e-150 * rng.standard_normal((5, n)),
            "scale-1e100": 1e100 * rng.standard_normal((5, n)),
            "d=1": rng.standard_normal((1, n)),
            "d=3n": rng.standard_normal((3 * n, n))}


@pytest.mark.parametrize("n", [5, 40, 300, 1000])
def test_mark_agrees_with_cholesky_on_hostile_features(n):
    # the premise of the shortcut: every kernel built and normalized here
    # passes the exact check it skips
    checked = 0
    for name, X in _hostile_features(n, np.random.default_rng(n)).items():
        fm = FeatureMatrix(X, "v")
        for spec in PSD_SPECS:
            if name == "d=3n" and n == 1000 and spec.kind == "rbf":
                continue  # pdist is O(n^2 d): seconds per build here
            try:
                k = build_kernel(fm, spec)
            except NonFiniteError:  # the polynomial kernels at scale 1e100
                continue
            for mode in ("none", "cosine", "center"):
                try:
                    out = normalize_kernel(k, mode)
                except ZeroDiagonalError:  # cubes that underflow to 0
                    continue
                assert out._psd_by_construction
                assert kernels_module._cholesky_succeeds(out.data.copy()), \
                    (name, spec, mode)
                checked += 1
    assert checked >= 80


def test_validation_skips_cholesky_only_for_built_kernels(rng, monkeypatch):
    calls = []

    def counted(K):
        calls.append(K.shape[0])
        return True
    monkeypatch.setattr(kernels_module, "_cholesky_succeeds", counted)
    fms = [FeatureMatrix(rng.standard_normal((3, 30)), f"v{i}")
           for i in range(3)]
    built = [build_kernel(fm, spec) for fm, spec in zip(fms, PSD_SPECS)]
    for mode in ("none", "cosine", "center"):
        ks = KernelSet(kernels=tuple(normalize_kernel(k, mode) for k in built))
        assert validate_kernel_set(ks) == (False,) * 3
    assert calls == []
    # the same numbers as arrays from outside, and normalized from those,
    # are factored once per view
    for mode in ("none", "cosine", "center"):
        ks = KernelSet(kernels=tuple(
            normalize_kernel(KernelMatrix(k.data, k.view_name), mode)
            for k in built))
        assert not any(k._psd_by_construction for k in ks.kernels)
        validate_kernel_set(ks)
        assert calls == [30] * 3
        calls.clear()


def test_marked_kernels_are_read_only(rng):
    fm = FeatureMatrix(rng.standard_normal((3, 12)), "v")
    for spec in PSD_SPECS:
        k = build_kernel(fm, spec)
        for out in (k, normalize_kernel(k, "cosine"),
                    normalize_kernel(k, "center")):
            assert out._psd_by_construction
            assert not out.data.flags.writeable
            with pytest.raises(ValueError):
                out.data[0, 0] = -1e6
    # copies keep the mark and a read-only array
    for copied in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert copied._psd_by_construction
        assert not copied.data.flags.writeable
        assert _same_bits(copied.data, k.data)
    # the mark is no constructor argument and cannot be set afterwards
    with pytest.raises(TypeError):
        KernelMatrix(np.eye(3), "v", _psd_by_construction=True)
    with pytest.raises(AttributeError):
        KernelMatrix(np.eye(3), "v")._psd_by_construction = True


def test_unmarked_kernels_keep_the_callers_array(rng):
    K = random_psd_kernel(rng, 6).data
    km = KernelMatrix(K, "v")
    assert not km._psd_by_construction
    assert km.data is K and K.flags.writeable
    for mode in ("cosine", "center"):
        out = normalize_kernel(km, mode)
        assert not out._psd_by_construction
        assert out.data.flags.writeable


def test_kernel_set_properties():
    ks = KernelSet(kernels=(KernelMatrix(np.eye(4), "a"),
                            KernelMatrix(np.eye(4), "b")))
    assert ks.n == 4
    assert ks.view_names == ("a", "b")


# ---------------------------------------------------------------------------
# frozen reference: the kernel code before the one-pass rbf build, the
# selection median and the tiled checks. The shipped code must give the same
# bits on every input below.


def _ref_median_sigma(X):
    dists = pdist(X.T)
    nonzero = dists[dists > 0]
    if nonzero.size == 0:
        return 1.0
    return float(np.median(nonzero))


def _ref_rbf(X, sigma):
    sq = squareform(pdist(X.T, "sqeuclidean"))
    K = np.exp(-sq / (2.0 * sigma * sigma))
    np.fill_diagonal(K, 1.0)
    return K


def _ref_asymmetry(A):
    return float(np.max(np.abs(A - A.T))) if A.size else 0.0


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_features(rng):
    """Small adversarial feature sets: rounded coordinates (many ties),
    duplicated samples (zero distances), or all samples coincident."""
    n = int(rng.integers(2, 61))
    d = int(rng.integers(1, 5))
    X = np.round(rng.standard_normal((d, n)) * rng.choice([1.0, 3.0, 10.0]),
                 int(rng.integers(0, 3)))
    shape = rng.random()
    if shape < 0.3:
        X = X[:, rng.integers(0, n, size=n)]
    elif shape < 0.4:
        X = np.repeat(X[:, :1], n, axis=1)
    return X


def _assert_matches_reference(X, sigma):
    fm = FeatureMatrix(X, "v")
    ref_sigma = _ref_median_sigma(X)
    assert _same_bits(median_heuristic_sigma(fm), ref_sigma)
    k = build_kernel(fm, KernelSpec(kind="rbf", sigma=sigma))
    ref_k = _ref_rbf(X, ref_sigma if sigma is None else sigma)
    assert _same_bits(k.data, ref_k)
    assert _ref_asymmetry(ref_k) == 0.0
    assert not _verdict(k.data)


def test_rbf_sigma_and_verdict_match_reference():
    rng = np.random.default_rng(2024)
    parities = set()
    for _ in range(240):
        X = _random_features(rng)
        parities.add(int(np.count_nonzero(pdist(X.T))) % 2)
        sigma = None if rng.random() < 0.6 else float(rng.uniform(0.1, 5.0))
        _assert_matches_reference(X, sigma)
    # both median branches ran: an even and an odd count of nonzero distances
    assert parities == {0, 1}


def test_median_sigma_with_zeros_scattered_below_the_middle():
    # condensed squared distances with zeros anywhere in the vector; after
    # the selection some of these leave the lower middle among the zeros'
    # slots, so it must be looked for in the whole lower part
    for case in range(3000):
        rng = np.random.default_rng([7, case])
        size = int(rng.integers(2, 1000))
        sq = rng.random(size) ** 2
        sq[rng.random(size) < rng.random()] = 0.0
        dists = np.sqrt(sq)
        nonzero = dists[dists > 0]
        ref = float(np.median(nonzero)) if nonzero.size else 1.0
        assert _same_bits(_median_sigma(sq), ref)


def test_rbf_matches_frozen_reference_on_synthetic_view():
    feats, _ = make_synthetic(500, 4, 3, separation=2.5, seed=101)
    _assert_matches_reference(feats[0].data, None)


@pytest.mark.parametrize("n", [1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
def test_asymmetry_matches_frozen_reference_at_tile_boundaries(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    base = (a + a.T) / 2.0
    edges = sorted({0, _TILE - 1, _TILE, 2 * _TILE, n - 1} & set(range(n)))
    spots = [(i, j) for i in edges for j in edges if i != j]
    assert spots or n == 1
    for i, j in spots or [(0, 0)]:
        for scale in (0.0, 0.5, 0.999, 2.0):
            for sign in (1.0, -1.0):
                A = base.copy()
                A[i, j] += sign * scale * SYMMETRY_TOL
                ref = _ref_asymmetry(A)
                for data in (A, np.asfortranarray(A)):
                    if ref > SYMMETRY_TOL:
                        with pytest.raises(AsymmetricKernelError):
                            KernelMatrix(data, "v")
                        continue
                    assert _same_bits(kernels_module._max_asymmetry(data), ref)
                    km = KernelMatrix(data, "v")
                    repaired = (A + A.T) / 2.0 if ref > 0.0 else A
                    assert _same_bits(km.data, repaired)
    K = KernelMatrix(base, "v").data
    for data in (K, np.asfortranarray(K)):
        _verdict(data)
    bad = base.copy()
    bad[n - 1, 0] = np.nan
    with pytest.raises(NonFiniteError):
        KernelMatrix(bad, "v")


def test_rbf_matches_frozen_reference_at_n2000_with_sigma_given():
    # the fit_n2000 view: 2000 samples, so the row moves inside the buffer
    # overlap their sources and the mirror spans eight tiles
    feats, _ = make_synthetic(500, 4, 3, separation=2.5, seed=101)
    X = feats[0].data
    for sigma in (1.5, _ref_median_sigma(X)):
        k = build_kernel(feats[0], KernelSpec(kind="rbf", sigma=sigma))
        assert _same_bits(k.data, _ref_rbf(X, sigma))


def test_overflowing_rbf_build_raises_past_the_first_tile():
    # every distance overflows to inf, so the median sigma is inf and each
    # off-diagonal -inf / inf is NaN, as in the reference; the finiteness
    # check sees it in the first row tile. With sigma 1e-200, 2 sigma^2 is 0
    # and only the duplicated pair at the end, in the last row tile, is 0/0
    n = 2 * _TILE + 3
    big = np.arange(n, dtype=float)[None, :] * 1e200
    close = np.arange(n, dtype=float)[None, :]
    close[0, -1] = close[0, -2]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_ref_rbf(big, _ref_median_sigma(big))[0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X, sigma in ((big, None), (close, 1e-200)):
            with pytest.raises(NonFiniteError, match="kernel contains NaN/Inf"):
                build_kernel(FeatureMatrix(X, "v"),
                             KernelSpec(kind="rbf", sigma=sigma))


def test_rbf_permuting_samples_permutes_kernel():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = _random_features(rng)
        perm = rng.permutation(X.shape[1])
        fm, fp = FeatureMatrix(X, "v"), FeatureMatrix(X[:, perm], "v")
        assert _same_bits(median_heuristic_sigma(fp), median_heuristic_sigma(fm))
        k = build_kernel(fm, KernelSpec(kind="rbf")).data
        kp = build_kernel(fp, KernelSpec(kind="rbf")).data
        assert _same_bits(kp, k[np.ix_(perm, perm)])


def _traced_peak(fn):
    """Peak bytes allocated while fn runs, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_rbf_build_and_validation_peak_memory():
    n = 1000
    feats, _ = make_synthetic(n // 4, 4, 1, separation=2.5, seed=1)
    matrix = n * n * 8
    k, build_peak = _traced_peak(lambda: build_kernel(feats[0], KernelSpec(kind="rbf")))
    # the build runs inside the kernel's own buffer, so it holds the kernel
    # and the median's count of zero distances (n^2/2 bytes)
    assert build_peak <= 1.15 * matrix
    # the built kernel needs no factorization, so validation is measured on
    # the same numbers as an array from outside, which it factors in place
    ks = KernelSet(kernels=(KernelMatrix(k.data.copy(), "v"),))
    _, validate_peak = _traced_peak(lambda: validate_kernel_set(ks))
    assert validate_peak <= 0.5 * matrix


@pytest.mark.parametrize("n", [1, 2, _TILE - 1, _TILE, _TILE + 1,
                               2 * _TILE + 3])
def test_mirror_and_cholesky_restore_at_tile_boundaries(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    for data in (A, np.asfortranarray(A)):
        upper = data.copy(order="K")
        kernels_module._mirror_upper(upper)
        assert _same_bits(upper, np.triu(A) + np.triu(A, 1).T)
        lower = data.copy(order="K")
        kernels_module._mirror_upper(lower.T)
        assert _same_bits(lower, np.tril(A) + np.tril(A, -1).T)
    # the factored triangle is restored bit for bit, whether dpotrf runs to
    # the end (PSD) or stops at the first bad pivot (indefinite)
    S = (A + A.T) / 2.0
    for K in (S @ S + np.eye(n), S - (np.abs(S).sum() + 1.0) * np.eye(n),
              np.diag(np.r_[np.ones(n - 1), -1.0])):
        for data in (K, np.asfortranarray(K)):
            _verdict(data)


@pytest.mark.parametrize("i, j", [(0, 0), (_TILE - 1, 3), (_TILE, _TILE + 1),
                                  (2 * _TILE + 2, 0), (2 * _TILE + 2,
                                                       2 * _TILE + 2)])
def test_finiteness_checked_in_every_row_tile(i, j):
    n = 2 * _TILE + 3
    for bad in (np.nan, np.inf, -np.inf):
        K = np.eye(n)
        K[i, j] = K[j, i] = bad
        for data in (K, np.asfortranarray(K)):
            with pytest.raises(NonFiniteError,
                               match="view 'v': kernel contains NaN/Inf"):
                KernelMatrix(data, "v")


def test_kernel_ingest_peak_memory():
    # a kernel file's array is checked a tile of rows at a time: one bool
    # row tile for finiteness and one float tile for the asymmetry scan,
    # no n x n bool array
    n = 1000
    K = random_psd_kernel(np.random.default_rng(4), n).data
    _, peak = _traced_peak(lambda: KernelMatrix(K, "v"))
    assert peak <= 0.12 * n * n * 8


def _ref_cosine(K):
    """The cosine normalization before it worked by row tiles."""
    inv = 1.0 / np.sqrt(np.diag(K))
    out = K * np.outer(inv, inv)
    np.fill_diagonal(out, 1.0)
    return out


@pytest.mark.parametrize("n", [1, 2, _TILE - 1, _TILE, _TILE + 1,
                               2 * _TILE + 3])
def test_cosine_matches_frozen_reference(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((5, max(n, 2)))[:, :n] * rng.uniform(0.1, 10.0, n)
    K = KernelMatrix(X.T @ X + np.eye(n), "v").data
    for data in (K, np.asfortranarray(K)):
        out = normalize_kernel(KernelMatrix(data, "v"), "cosine")
        assert _same_bits(out.data, _ref_cosine(K))


def test_cosine_normalization_peak_memory():
    # the output is the only n x n array: each row tile's factors
    # inv_i * inv_j are formed in the output and scaled in place
    n = 1000
    k = random_psd_kernel(np.random.default_rng(5), n)
    _, peak = _traced_peak(lambda: normalize_kernel(k, "cosine"))
    assert peak <= 1.25 * n * n * 8


def test_inner_product_build_symmetrizes_in_place():
    # the linear kernel is halved and symmetrized in its own storage, a tile
    # at a time, so the build holds the kernel and one tile pair, not the
    # second n x n array that (K + K^T) / 2 forms
    n = 1000
    X = np.random.default_rng(3).standard_normal((5, n))
    _, peak = _traced_peak(lambda: build_kernel(FeatureMatrix(X, "v"),
                                                KernelSpec(kind="linear")))
    assert peak <= 1.25 * n * n * 8
