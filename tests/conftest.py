import ctypes
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from mvkmf import _blas
from mvkmf.io import RunRecord
from mvkmf.kernels import FeatureMatrix, KernelMatrix, KernelSet, KernelSpec, build_kernel


def random_psd_kernel(rng, n, rank=None, name="view"):
    """Random symmetric PSD matrix X^T X with controllable rank."""
    rank = rank or n
    x = rng.standard_normal((rank, n))
    k = x.T @ x
    return KernelMatrix((k + k.T) / 2.0, name)


def random_orthonormal_rows(rng, k, n):
    """k x n matrix with orthonormal rows via QR of a Gaussian draw."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q.T


def blob_kernels(seed, n_per=15, clusters=4, views=3, separation=6.0,
                 kind="linear"):
    """Kernel set + labels for one random separable clustering instance."""
    from mvkmf.io import make_synthetic

    feats, labels = make_synthetic(n_per, clusters, views,
                                   separation=separation, noise=1.0, seed=seed)
    kernels = tuple(build_kernel(f, KernelSpec(kind=kind)) for f in feats)
    return KernelSet(kernels=kernels), labels


def read_run_records(path):
    """The ``RunRecord``s of a ``records.jsonl``, one per line."""
    return [RunRecord(**json.loads(line))
            for line in Path(path).read_text().splitlines()]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def caller_threads():
    """numpy's BLAS thread control with the caller's count set to 2, the
    count restored after the test. Skips where numpy's BLAS is not a
    scipy-openblas whose count can be set."""
    control = _blas._control()
    if control is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    before = control.get()
    control.set(2)
    try:
        yield control
    finally:
        control.set(before)


@pytest.fixture
def releases(monkeypatch):
    """A list that gains an entry each time scipy's BLAS pool is released."""
    calls = []
    monkeypatch.setattr(_blas, "_release", lambda: lambda: calls.append(1))
    return calls


def scipy_blas_threads():
    """The thread count of scipy's bundled scipy-openblas, or None where
    scipy's BLAS is another."""
    for handle in _blas._bundled(scipy):
        get = getattr(handle, "scipy_openblas_get_num_threads", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def record_threads(monkeypatch, module, name, control):
    """Replace ``module.name`` with a wrapper that appends numpy's BLAS
    thread count at each call to the returned list."""
    seen = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(control.get())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return seen
