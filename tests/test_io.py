import json
from pathlib import Path

import numpy as np
import pytest

from mvkmf.errors import (
    BadParamError,
    CorruptHeaderError,
    DimensionMismatchError,
    MissingFileError,
    NonFiniteError,
    ParseError,
    TruncatedDataError,
)
from mvkmf.io import (
    DatasetManifest,
    RunRecord,
    ViewSource,
    append_record,
    load_dataset,
    load_manifest,
    make_synthetic,
    read_labels,
    read_matrix,
    save_manifest,
    save_synthetic_dataset,
    write_labels,
    write_matrix,
    write_matrix_csv,
    write_pgm,
)
from mvkmf.kernels import KernelSpec

from conftest import read_run_records


# ---------------------------------------------------------------------------
# binary matrix format


def test_round_trip_bit_exact(tmp_path, rng):
    m = rng.standard_normal((7, 3))
    m[0, 0] = -0.0
    m[1, 2] = 1e-308          # subnormal-adjacent magnitude
    m[2, 1] = -1.7e308
    path = tmp_path / "m.mvk1"
    write_matrix(path, m)
    back = read_matrix(path)
    assert back.dtype == np.float64
    assert m.tobytes() == back.tobytes()
    assert np.signbit(back[0, 0])


def test_identity_file_layout(tmp_path):
    path = tmp_path / "eye.mvk1"
    write_matrix(path, np.eye(2))
    raw = path.read_bytes()
    header = b"MVK1 2 2\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 4 * 8
    payload = np.frombuffer(raw[len(header):], dtype="<f8")
    assert payload.tolist() == [1.0, 0.0, 0.0, 1.0]     # row-major
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.mvk1"
    path.write_bytes(b"")
    with pytest.raises(CorruptHeaderError):
        read_matrix(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.mvk1"
    write_matrix(path, np.eye(3))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedDataError):
        read_matrix(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.mvk1"
    write_matrix(path, np.eye(3))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CorruptHeaderError):
        read_matrix(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.mvk1"
    path.write_bytes(b"MVK1 2\n" + b"\x00" * 16)
    with pytest.raises(CorruptHeaderError):
        read_matrix(path)
    path.write_bytes(b"MVK1 -2 2\n" + b"\x00" * 32)
    with pytest.raises(CorruptHeaderError):
        read_matrix(path)


def test_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_matrix(tmp_path / "nope.mvk1")


def test_unreadable_files_name_path_and_reason(tmp_path):
    # every reader maps any OSError to MissingFileError, and text that is
    # not UTF-8 to ParseError
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    for read in (read_matrix, read_labels, load_manifest):
        with pytest.raises(MissingFileError, match="Is a directory"):
            read(tmp_path)
        with pytest.raises(MissingFileError, match="No such file"):
            read(tmp_path / "nope")
    for read in (read_labels, load_manifest):
        with pytest.raises(ParseError, match=f"{bad}: not UTF-8"):
            read(bad)


def test_write_rejects_non_2d(tmp_path):
    with pytest.raises(DimensionMismatchError):
        write_matrix(tmp_path / "v.mvk1", np.arange(4.0))


# ---------------------------------------------------------------------------
# text matrices


def test_csv_round_trip(tmp_path, rng):
    m = rng.standard_normal((4, 6))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    back = read_matrix(path)              # autodetected: no magic prefix
    assert np.allclose(back, m, rtol=1e-15, atol=0.0)


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(TruncatedDataError):
        read_matrix(path)


def test_csv_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError):
        read_matrix(path)


# ---------------------------------------------------------------------------
# labels


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels(path, [0, 2, 1, 1])
    assert read_labels(path).tolist() == [0, 2, 1, 1]


def test_labels_parse_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0\nx\n")
    with pytest.raises(ParseError):
        read_labels(path)
    path.write_text("")
    with pytest.raises(ParseError):
        read_labels(path)


# ---------------------------------------------------------------------------
# manifests


def write_minimal_dataset(root, n=6, clusters=2, label_count=None):
    rng = np.random.default_rng(0)
    write_matrix(root / "x.mvk1", rng.standard_normal((3, n)))
    write_labels(root / "labels.csv",
                 np.arange(label_count if label_count else n) % clusters)
    obj = {
        "name": "toy",
        "n": n,
        "clusters": clusters,
        "labels": "labels.csv",
        "views": [{"name": "a", "features": "x.mvk1"}],
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(obj))
    return path


def test_manifest_round_trip(tmp_path):
    path = write_minimal_dataset(tmp_path)
    first = load_manifest(path)
    save_manifest(tmp_path / "again.json", first)
    second = load_manifest(tmp_path / "again.json")
    assert first.name == second.name
    assert first.n == second.n
    assert first.clusters == second.clusters
    assert first.views == second.views


def test_manifest_cluster_invariant(tmp_path):
    path = write_minimal_dataset(tmp_path)
    obj = json.loads(path.read_text())
    obj["clusters"] = 1
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load_manifest(path)


def test_manifest_label_length_mismatch(tmp_path):
    path = write_minimal_dataset(tmp_path, n=6, label_count=5)
    with pytest.raises(DimensionMismatchError):
        load_dataset(load_manifest(path))


def test_manifest_kernel_dimension_mismatch(tmp_path):
    write_matrix(tmp_path / "k.mvk1", np.eye(5))
    write_labels(tmp_path / "labels.csv", [0, 1] * 3)
    obj = {"name": "toy", "n": 6, "clusters": 2, "labels": "labels.csv",
           "views": [{"name": "a", "kernel": "k.mvk1"}]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DimensionMismatchError):
        load_dataset(load_manifest(path))


def test_manifest_missing_view_file(tmp_path):
    path = write_minimal_dataset(tmp_path)
    (tmp_path / "x.mvk1").unlink()
    manifest = load_manifest(path)        # reads the manifest only
    with pytest.raises(MissingFileError):
        load_dataset(manifest)


def test_manifest_rejects_both_sources(tmp_path):
    path = write_minimal_dataset(tmp_path)
    obj = json.loads(path.read_text())
    obj["views"][0]["kernel"] = "x.mvk1"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load_manifest(path)


def test_manifest_rejects_spec_on_precomputed_kernel(tmp_path):
    write_matrix(tmp_path / "k.mvk1", np.eye(6))
    write_labels(tmp_path / "labels.csv", [0, 1] * 3)
    obj = {"name": "toy", "n": 6, "clusters": 2, "labels": "labels.csv",
           "views": [{"name": "a", "kernel": "k.mvk1",
                      "kernel_spec": {"kind": "rbf"}}]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load_manifest(path)


@pytest.mark.parametrize("key, value", [("kernel_spec", "rbf"),
                                        ("kernel_spec", [1]),
                                        ("features", 5),
                                        ("kernel", 5)])
def test_manifest_rejects_ill_typed_view_fields(tmp_path, key, value):
    path = write_minimal_dataset(tmp_path)
    obj = json.loads(path.read_text())
    view = obj["views"][0]
    if key == "kernel":
        del view["features"]
    view[key] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=f"view 'a': '{key}' must be"):
        load_manifest(path)


def test_manifest_round_trip_with_precomputed_kernel(tmp_path):
    write_matrix(tmp_path / "k.mvk1", np.eye(6))
    write_labels(tmp_path / "labels.csv", [0, 1] * 3)
    obj = {"name": "toy", "n": 6, "clusters": 2, "labels": "labels.csv",
           "views": [{"name": "a", "kernel": "k.mvk1"},
                     {"name": "b", "features": "x.mvk1",
                      "kernel_spec": {"kind": "rbf", "sigma": 2.0}}]}
    (tmp_path / "manifest.json").write_text(json.dumps(obj))
    first = load_manifest(tmp_path / "manifest.json")
    save_manifest(tmp_path / "again.json", first)
    assert json.loads((tmp_path / "again.json").read_text())["views"][0] == {
        "name": "a", "kernel": "k.mvk1", "normalization": "none"}
    assert load_manifest(tmp_path / "again.json") == first


def test_manifest_rejects_bad_normalization(tmp_path):
    path = write_minimal_dataset(tmp_path)
    obj = json.loads(path.read_text())
    obj["views"][0]["normalization"] = "whiten"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load_manifest(path)


def test_load_dataset_builds_kernels(tmp_path):
    feats, labels = make_synthetic(4, 2, 2, seed=1)
    mpath = save_synthetic_dataset(tmp_path, feats, labels, clusters=2,
                                   kernel_spec=KernelSpec(kind="rbf"),
                                   normalization="cosine")
    ks, got = load_manifest(mpath), None
    kernels, got = load_dataset(ks)
    assert len(kernels.kernels) == 2
    assert kernels.n == 8
    assert np.array_equal(got, labels)
    for k in kernels.kernels:
        assert np.allclose(np.diag(k.data), 1.0)     # cosine-normalized rbf


def test_load_dataset_rejects_inconsistent_views(tmp_path):
    # a 5 x 5 kernel against n=6 fails its own shape check; a reused view
    # name fails the check on the assembled set
    write_matrix(tmp_path / "a.mvk1", np.eye(6))
    write_matrix(tmp_path / "b.mvk1", np.eye(5))
    write_labels(tmp_path / "labels.csv", [0, 1] * 3)

    def manifest(*views):
        return DatasetManifest(name="toy", n=6, clusters=2,
                               labels="labels.csv", base_dir=tmp_path,
                               views=tuple(ViewSource(name=name, kernel=rel)
                                           for name, rel in views))

    with pytest.raises(DimensionMismatchError):
        load_dataset(manifest(("a", "a.mvk1"), ("b", "b.mvk1")))
    with pytest.raises(DimensionMismatchError):
        load_dataset(manifest(("a", "a.mvk1"), ("a", "a.mvk1")))
    ks, _ = load_dataset(manifest(("a", "a.mvk1"), ("b", "a.mvk1")))
    assert ks.view_names == ("a", "b")


@pytest.mark.parametrize("label_count, views", [
    (4, [("features", (3, 6))]),
    (6, [("features", (3, 5)), ("features", (2, 5))]),
    (6, [("kernel", (5, 5))]),
], ids=["short-labels", "feature-columns", "kernel-size"])
def test_load_dataset_checks_files_against_n(tmp_path, label_count, views):
    # a manifest built in code never passes through load_manifest, so the
    # files are checked against n where load_dataset reads them; the two
    # feature views agree with each other, only not with n
    rng = np.random.default_rng(0)
    write_labels(tmp_path / "labels.csv", np.arange(label_count) % 2)
    sources = []
    for i, (kind, shape) in enumerate(views):
        rel = f"v{i}.mvk1"
        if kind == "kernel":
            write_matrix(tmp_path / rel, np.eye(shape[0]))
        else:
            write_matrix(tmp_path / rel, rng.standard_normal(shape))
        sources.append(ViewSource(name=f"v{i}", **{kind: rel}))
    manifest = DatasetManifest(name="toy", n=6, clusters=2,
                               labels="labels.csv", views=tuple(sources),
                               base_dir=tmp_path)
    with pytest.raises(DimensionMismatchError):
        load_dataset(manifest)


def test_each_file_is_read_once(tmp_path, monkeypatch):
    feats, labels = make_synthetic(4, 2, 2, seed=1)
    mpath = save_synthetic_dataset(tmp_path, feats, labels, clusters=2)
    opened = []
    open_path = Path.open

    def spy(self, *args, **kwargs):
        opened.append(self.name)
        return open_path(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy)
    manifest = load_manifest(mpath)
    assert opened == ["manifest.json"]
    load_dataset(manifest)
    assert sorted(opened) == ["labels.csv", "manifest.json", "view0.mvk1",
                              "view1.mvk1"]


# ---------------------------------------------------------------------------
# run records


def make_record(wall=0.25):
    return RunRecord(dataset="toy", algorithm="umklmf", alpha=16.0, seed=3,
                     metrics={"acc": 1.0, "nmi": 1.0, "purity": 1.0,
                              "ari": 1.0},
                     iterations=7, objective_final=12.5,
                     wall_time_seconds=wall)


def test_records_append_and_read(tmp_path):
    path = tmp_path / "records.jsonl"
    append_record(path, make_record())
    append_record(path, make_record(wall=0.5))
    records = read_run_records(path)
    assert len(records) == 2
    assert records[0] == make_record()


def test_records_identical_except_wall_time(tmp_path):
    path = tmp_path / "records.jsonl"
    append_record(path, make_record(wall=0.1))
    append_record(path, make_record(wall=0.9))
    a, b = (json.loads(line) for line in path.read_text().splitlines())
    a.pop("wall_time_seconds")
    b.pop("wall_time_seconds")
    assert a == b


# ---------------------------------------------------------------------------
# synthetic data


def test_synthetic_shapes_and_labels():
    feats, labels = make_synthetic(1, 2, 3, seed=0)
    assert labels.tolist() == [0, 1]
    assert len(feats) == 3
    for fm in feats:
        assert fm.data.shape == (2, 2)      # clusters dims x n samples


def test_synthetic_deterministic():
    a, _ = make_synthetic(5, 3, 2, seed=9)
    b, _ = make_synthetic(5, 3, 2, seed=9)
    for x, y in zip(a, b):
        assert x.data.tobytes() == y.data.tobytes()
    c, _ = make_synthetic(5, 3, 2, seed=10)
    assert a[0].data.tobytes() != c[0].data.tobytes()


def test_synthetic_views_differ():
    feats, _ = make_synthetic(5, 3, 2, seed=0)
    assert not np.allclose(feats[0].data, feats[1].data)


def test_synthetic_center_separation():
    # with tiny noise the empirical cluster centroids sit separation*noise
    # apart in every view (rotations preserve distances)
    sep, noise = 50.0, 0.001
    feats, labels = make_synthetic(100, 3, 2, separation=sep, noise=noise,
                                   seed=4)
    for fm in feats:
        cents = np.stack([fm.data[:, labels == c].mean(axis=1)
                          for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(cents[i] - cents[j])
                assert d == pytest.approx(sep * noise, rel=1e-2)


def test_synthetic_nearest_centroid_separable():
    feats, labels = make_synthetic(20, 3, 1, separation=100.0, noise=1.0,
                                   seed=2)
    X = feats[0].data
    cents = np.stack([X[:, labels == c].mean(axis=1) for c in range(3)])
    d = ((X.T[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d, axis=1), labels)


def test_synthetic_validation():
    with pytest.raises(BadParamError):
        make_synthetic(0, 2, 1)
    with pytest.raises(BadParamError):
        make_synthetic(1, 1, 1)
    with pytest.raises(BadParamError):
        make_synthetic(1, 2, 0)
    with pytest.raises(BadParamError):
        make_synthetic(1, 2, 1, seed=-1)
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(BadParamError, match="must be finite"):
            make_synthetic(1, 2, 1, separation=bad)
        with pytest.raises(BadParamError, match="must be finite"):
            make_synthetic(1, 2, 1, noise=bad)


def test_synthetic_overflow_is_a_numerical_failure():
    # each parameter is finite, but their product is not
    with pytest.raises(NonFiniteError):
        make_synthetic(1, 2, 1, separation=1e300, noise=1e10)


def test_save_synthetic_dataset_round_trip(tmp_path):
    feats, labels = make_synthetic(3, 2, 2, seed=7)
    mpath = save_synthetic_dataset(tmp_path / "ds", feats, labels, clusters=2)
    manifest = load_manifest(mpath)
    assert manifest.n == 6
    assert len(manifest.views) == 2
    ks, got = load_dataset(manifest)
    assert np.array_equal(got, labels)
    assert ks.n == 6


# ---------------------------------------------------------------------------
# images


def test_pgm_scaling(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = list(raw[len(b"P5\n2 2\n255\n"):])
    assert pixels == [0, 128, 255, 64]


def test_pgm_constant_matrix(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((2, 3), 7.0))
    pixels = list(path.read_bytes().split(b"255\n", 1)[1])
    assert pixels == [0] * 6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_refuses_non_finite_matrix(tmp_path, bad):
    # a NaN would otherwise draw an all-black image, and an Inf warn
    path = tmp_path / "bad.pgm"
    m = np.array([[0.0, 0.5], [1.0, 0.25]])
    m[1, 0] = bad
    with pytest.raises(NonFiniteError, match="bad.pgm"):
        write_pgm(path, m)
    assert not path.exists()
