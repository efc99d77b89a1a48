"""Serialization and dataset plumbing.

Matrix files use the MVK1 container: one ASCII header line ``MVK1 <rows>
<cols>\\n`` followed by rows*cols little-endian float64 values in row-major
order. Anything not starting with the magic is parsed as comma-separated
text. Datasets are described by a small JSON manifest naming each view's
source (raw features plus a kernel recipe, or a precomputed kernel matrix),
the labels file, the sample count n and the cluster count. Loading reads
each data file once and checks it against n where it is read; the
resulting ``KernelSet`` rejects repeated view names itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadParamError,
    CorruptHeaderError,
    DimensionMismatchError,
    MissingFileError,
    NonFiniteError,
    ParseError,
    TruncatedDataError,
)
from .kernels import (
    FeatureMatrix,
    KernelMatrix,
    KernelSet,
    KernelSpec,
    build_kernel,
    normalize_kernel,
)

_MAGIC = b"MVK1"
_NORMALIZATIONS = ("none", "cosine", "center")


def _read(path: Path, text: bool = True):
    """The UTF-8 text of ``path``, newlines untranslated, or its bytes. An
    ``OSError`` becomes ``MissingFileError``, non-UTF-8 text ``ParseError``."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MissingFileError(f"{path}: {exc.strerror or exc}") from exc
    if not text:
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc


# ---------------------------------------------------------------------------
# matrices


def write_matrix(path, m: np.ndarray) -> None:
    """Write a 2-D float64 matrix in the MVK1 binary container."""
    m = np.ascontiguousarray(m, dtype="<f8")
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(f"MVK1 {m.shape[0]} {m.shape[1]}\n".encode("ascii"))
        fh.write(m.tobytes(order="C"))


def write_matrix_csv(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    np.savetxt(path, m, fmt="%.17g", delimiter=",")


def _parse_mvk1_header(data: bytes, path: Path) -> tuple[int, int, int]:
    """Returns (rows, cols, payload offset)."""
    nl = data.find(b"\n", 0, 256)
    if nl < 0:
        raise CorruptHeaderError(f"{path}: missing header newline")
    parts = data[:nl].split()
    if len(parts) != 3 or parts[0] != _MAGIC:
        raise CorruptHeaderError(f"{path}: malformed header {data[:nl]!r}")
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CorruptHeaderError(f"{path}: non-integer dimensions") from exc
    if rows < 0 or cols < 0:
        raise CorruptHeaderError(f"{path}: negative dimensions")
    return rows, cols, nl + 1


def _parse_csv_matrix(data: bytes, path: Path) -> np.ndarray:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptHeaderError(f"{path}: neither MVK1 nor text") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad number") from exc
        if len(rows[-1]) != len(rows[0]):
            raise TruncatedDataError(
                f"{path}:{lineno}: ragged row ({len(rows[-1])} cells, "
                f"expected {len(rows[0])})")
    if not rows:
        raise CorruptHeaderError(f"{path}: empty matrix file")
    return np.array(rows, dtype=np.float64)


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    data = _read(path, text=False)
    if not data:
        raise CorruptHeaderError(f"{path}: empty file")
    if not data.startswith(_MAGIC):
        return _parse_csv_matrix(data, path)
    rows, cols, offset = _parse_mvk1_header(data, path)
    expected = rows * cols * 8
    payload = data[offset:]
    if len(payload) < expected:
        raise TruncatedDataError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise CorruptHeaderError(f"{path}: {len(payload) - expected} trailing bytes")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


# ---------------------------------------------------------------------------
# labels


def read_labels(path) -> np.ndarray:
    path = Path(path)
    text = _read(path)
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cell = line.strip()
        if not cell:
            continue
        try:
            values.append(int(cell))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad label {cell!r}") from exc
    if not values:
        raise ParseError(f"{path}: no labels")
    return np.array(values, dtype=np.int64)


def write_labels(path, labels) -> None:
    labels = np.asarray(labels).ravel()
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels))


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ViewSource:
    name: str
    features: str | None = None       # path to a feature matrix (d x n)
    kernel: str | None = None         # path to a precomputed kernel (n x n)
    kernel_spec: KernelSpec | None = None
    normalization: str = "none"


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    n: int
    clusters: int
    labels: str
    views: tuple[ViewSource, ...]
    base_dir: Path = field(default_factory=Path)

    def resolve(self, rel: str) -> Path:
        return self.base_dir / rel


def _view_from_dict(obj: dict, where: str) -> ViewSource:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: view entry must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}: view needs a nonempty name")
    features = obj.get("features")
    kernel = obj.get("kernel")
    if (features is None) == (kernel is None):
        raise ParseError(f"{where}: view {name!r} needs exactly one of "
                         "'features' or 'kernel'")
    for key, value in (("features", features), ("kernel", kernel)):
        if value is not None and not isinstance(value, str):
            raise ParseError(f"{where}: view {name!r}: {key!r} must be a "
                             f"path string, got {value!r}")
    if kernel is not None and "kernel_spec" in obj:
        raise ParseError(f"{where}: view {name!r} has a precomputed kernel; "
                         "'kernel_spec' does not apply")
    spec = None
    raw_spec = obj.get("kernel_spec")
    if raw_spec is not None:
        if not isinstance(raw_spec, dict):
            raise ParseError(f"{where}: view {name!r}: 'kernel_spec' must be "
                             f"an object, got {raw_spec!r}")
        try:
            spec = KernelSpec.from_dict(raw_spec)
        except (BadParamError, TypeError, ValueError) as exc:
            raise ParseError(f"{where}: view {name!r}: {exc}") from exc
    normalization = obj.get("normalization", "none")
    if normalization not in _NORMALIZATIONS:
        raise ParseError(f"{where}: view {name!r}: unknown normalization "
                         f"{normalization!r}")
    return ViewSource(name=name, features=features, kernel=kernel,
                      kernel_spec=spec, normalization=normalization)


def load_manifest(path) -> DatasetManifest:
    """Parse and schema-check a dataset manifest.

    Only the manifest itself is read. The data files it names are read, and
    checked against its n, by :func:`load_dataset`.
    """
    path = Path(path)
    try:
        obj = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")

    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{path}: manifest needs a nonempty 'name'")
    n = obj.get("n")
    clusters = obj.get("clusters")
    if not isinstance(n, int) or n < 2:
        raise ParseError(f"{path}: 'n' must be an integer >= 2")
    if not isinstance(clusters, int) or not 2 <= clusters <= n:
        raise ParseError(f"{path}: 'clusters' must be an integer in [2, n]")
    labels_rel = obj.get("labels")
    if not isinstance(labels_rel, str) or not labels_rel:
        raise ParseError(f"{path}: manifest needs a 'labels' path")
    raw_views = obj.get("views")
    if not isinstance(raw_views, list) or not raw_views:
        raise ParseError(f"{path}: manifest needs a nonempty 'views' list")
    views = tuple(_view_from_dict(v, str(path)) for v in raw_views)
    if len({v.name for v in views}) != len(views):
        raise ParseError(f"{path}: duplicate view names")

    return DatasetManifest(name=name, n=n, clusters=clusters,
                           labels=labels_rel, views=views,
                           base_dir=path.parent)


def save_manifest(path, manifest: DatasetManifest) -> None:
    views = []
    for v in manifest.views:
        entry: dict = {"name": v.name}
        if v.features is not None:
            entry["features"] = v.features
        if v.kernel is not None:
            entry["kernel"] = v.kernel
        if v.kernel_spec is not None:
            entry["kernel_spec"] = v.kernel_spec.to_dict()
        entry["normalization"] = v.normalization
        views.append(entry)
    obj = {
        "name": manifest.name,
        "n": manifest.n,
        "clusters": manifest.clusters,
        "labels": manifest.labels,
        "views": views,
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_dataset(manifest: DatasetManifest) -> tuple[KernelSet, np.ndarray]:
    """Materialize the kernel set and ground-truth labels for a manifest.

    Each data file is read once and checked against ``manifest.n`` as it is
    read: the labels must hold n values, a precomputed kernel must be n x n
    and a feature matrix must have n columns, or ``DimensionMismatchError``
    is raised. Views with raw features are pushed through their kernel recipe
    (linear by default); precomputed kernels are ingested as-is. Every view
    then gets its configured normalization. The views go into a
    ``KernelSet``, which rejects repeated view names with
    ``DimensionMismatchError``. The per-view definiteness verdicts
    (``validate_kernel_set``) are left to the callers that use them.
    """
    n = manifest.n
    labels_path = manifest.resolve(manifest.labels)
    labels = read_labels(labels_path)
    if labels.shape[0] != n:
        raise DimensionMismatchError(
            f"{labels_path}: holds {labels.shape[0]} labels, expected {n}")
    kernels = []
    for view in manifest.views:
        path = manifest.resolve(view.kernel if view.kernel is not None
                                else view.features)
        data = read_matrix(path)
        # a kernel is n x n; a feature matrix may have any number of rows
        rows = n if view.kernel is not None else data.shape[0]
        if data.shape != (rows, n):
            raise DimensionMismatchError(
                f"{path}: view {view.name!r} is {data.shape}, expected "
                f"({rows}, {n})")
        if view.kernel is not None:
            k = KernelMatrix(data=data, view_name=view.name)
        else:
            k = build_kernel(FeatureMatrix(data=data, view_name=view.name),
                             view.kernel_spec or KernelSpec(kind="linear"))
        kernels.append(normalize_kernel(k, view.normalization))
    return KernelSet(kernels=tuple(kernels)), labels


# ---------------------------------------------------------------------------
# run records


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    algorithm: str
    alpha: float | None
    seed: int
    metrics: dict[str, float]
    iterations: int
    objective_final: float | None
    wall_time_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


def append_record(path, record: RunRecord) -> None:
    with Path(path).open("a") as fh:
        fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# images


def write_pgm(path, values: np.ndarray) -> None:
    """Write a matrix as a binary PGM image, min-max scaled to 0..255; one
    holding NaN or Inf raises ``NonFiniteError`` before the file is opened.
    The values are halved first, so that no range of finite values, up to
    the float maximum minus its negative, overflows."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{Path(path).name}: matrix contains NaN/Inf")
    m = m / 2.0
    lo, hi = float(m.min()), float(m.max())
    if hi > lo:
        scaled = np.round((m - lo) * (255.0 / (hi - lo)))
    else:
        scaled = np.zeros_like(m)
    data = scaled.astype(np.uint8)
    with Path(path).open("wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes(order="C"))


# ---------------------------------------------------------------------------
# synthetic data


def make_synthetic(n_per_cluster: int, clusters: int, views: int,
                   separation: float = 100.0, noise: float = 1.0,
                   seed: int = 0) -> tuple[list[FeatureMatrix], np.ndarray]:
    """Gaussian blobs observed through per-view random rotations.

    Cluster centers sit at the scaled standard basis of R^clusters so every
    pair of centers is exactly ``separation * noise`` apart. Each view draws
    its own noise and its own orthogonal mixing matrix from a generator
    seeded with ``seed``, so output is reproducible bit for bit. NaN,
    infinite or negative ``separation`` or ``noise`` raise ``BadParamError``;
    finite ones whose features overflow raise ``NonFiniteError``.
    """
    if n_per_cluster < 1:
        raise BadParamError("n_per_cluster must be >= 1")
    if clusters < 2:
        raise BadParamError("clusters must be >= 2")
    if views < 1:
        raise BadParamError("views must be >= 1")
    if not (0 <= separation < np.inf and 0 <= noise < np.inf):
        raise BadParamError("separation and noise must be finite and >= 0, "
                            f"got {separation} and {noise}")
    if seed < 0:
        raise BadParamError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = n_per_cluster * clusters
    labels = np.repeat(np.arange(clusters), n_per_cluster)
    scale = separation * noise / np.sqrt(2.0)
    feats = []
    # FeatureMatrix's finiteness check reports an overflow and its inf * 0
    with np.errstate(over="ignore", invalid="ignore"):
        centers = scale * np.eye(clusters)
        for v in range(views):
            noisy = noise * rng.standard_normal((n, clusters))
            points = centers[labels] + noisy
            q, r = np.linalg.qr(rng.standard_normal((clusters, clusters)))
            q = q * np.sign(np.diag(r))    # fix the QR sign ambiguity
            feats.append(FeatureMatrix(q @ points.T, f"view{v}"))
    return feats, labels


def save_synthetic_dataset(out_dir, feats: list[FeatureMatrix],
                           labels: np.ndarray, clusters: int,
                           name: str = "synthetic",
                           kernel_spec: KernelSpec | None = None,
                           normalization: str = "none") -> Path:
    """Write views, labels, and a manifest under out_dir; returns the
    manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    views = []
    for fm in feats:
        rel = f"{fm.view_name}.mvk1"
        write_matrix(out / rel, fm.data)
        views.append(ViewSource(name=fm.view_name, features=rel,
                                kernel_spec=kernel_spec,
                                normalization=normalization))
    write_labels(out / "labels.csv", labels)
    manifest = DatasetManifest(name=name, n=int(labels.shape[0]),
                               clusters=clusters, labels="labels.csv",
                               views=tuple(views), base_dir=out)
    save_manifest(out / "manifest.json", manifest)
    return out / "manifest.json"
