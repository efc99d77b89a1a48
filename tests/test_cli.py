import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvkmf
from mvkmf.cli import ALGORITHMS, DEFAULT_ALPHAS, main
from mvkmf.io import read_matrix
from mvkmf.stats import read_results_table

from conftest import read_run_records


def synth(tmp_path, name="toy", per=10, clusters=3, views=2, kernel="rbf",
          seed=0):
    out = tmp_path / name
    rc = main(["synth", "--name", name, "--per-cluster", str(per),
               "--clusters", str(clusters), "--views", str(views),
               "--kernel", kernel, "--seed", str(seed),
               "--out", str(out), "--quiet"])
    assert rc == 0
    return out / "manifest.json"


def kernel_file_manifest(mpath, kernels_dir):
    """A manifest of the kernel files that ``mvkmf kernels`` wrote to
    ``kernels_dir`` for the dataset of ``mpath``."""
    manifest = json.loads(mpath.read_text())
    for view in manifest["views"]:
        view.pop("kernel_spec", None)
        view.pop("features")
        view["kernel"] = f"K_{view['name']}.mvk1"
    manifest["labels"] = str(mpath.parent / manifest["labels"])
    kpath = kernels_dir / "manifest.json"
    kpath.write_text(json.dumps(manifest))
    return kpath


def write_kernel_dataset(root, name, kernel):
    """Two-cluster manifest with one precomputed view, ``kernel``."""
    from mvkmf.io import write_labels, write_matrix

    n = kernel.shape[0]
    root.mkdir(parents=True, exist_ok=True)
    write_matrix(root / "k.mvk1", kernel)
    write_labels(root / "labels.csv", [0, 1] * (n // 2))
    (root / "manifest.json").write_text(json.dumps({
        "name": name, "n": n, "clusters": 2, "labels": "labels.csv",
        "views": [{"name": "a", "kernel": "k.mvk1"}],
    }))
    return root / "manifest.json"


def write_hostile_dataset(root):
    """Manifest whose single precomputed kernel overflows the solver."""
    return write_kernel_dataset(root, "hostile", np.full((8, 8), 1e200))


def test_default_alpha_grid():
    assert DEFAULT_ALPHAS == tuple(2.0 ** p for p in range(10))
    assert set(ALGORITHMS) == {"umklmf", "kkm", "mkkm"}


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset(tmp_path):
    mpath = synth(tmp_path, views=3)
    assert mpath.exists()
    root = mpath.parent
    assert (root / "labels.csv").exists()
    assert sorted(p.name for p in root.glob("view*.mvk1")) == [
        "view0.mvk1", "view1.mvk1", "view2.mvk1"]


def test_synth_negative_seed_exit_2(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--seed", "-1", "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--separation", "nan"),
                                         ("--separation", "inf"),
                                         ("--noise", "nan"),
                                         ("--noise", "-inf")])
def test_synth_non_finite_parameter_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "s"
    assert main(["synth", f"{flag}={value}", "--out", str(out),
                 "--quiet"]) == 2
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


def test_synth_overflowing_features_exit_3(tmp_path):
    # each parameter is finite, but their product is not
    out = tmp_path / "s"
    assert main(["synth", "--separation", "1e300", "--noise", "1e10",
                 "--out", str(out), "--quiet"]) == 3
    assert not out.exists()


def test_synth_deterministic(tmp_path):
    a = synth(tmp_path, name="a", seed=5)
    b = synth(tmp_path, name="b", seed=5)
    assert (read_matrix(a.parent / "view0.mvk1").tobytes()
            == read_matrix(b.parent / "view0.mvk1").tobytes())


# ---------------------------------------------------------------------------
# kernels


def test_kernels_idempotent(tmp_path):
    mpath = synth(tmp_path)
    out = tmp_path / "kout"
    assert main(["kernels", "--manifest", str(mpath), "--out", str(out),
                 "--quiet"]) == 0
    first = {p.name: p.read_bytes() for p in out.glob("K_*.mvk1")}
    assert len(first) == 2
    report = json.loads((out / "report.json").read_text())
    assert {v["view"] for v in report["views"]} == {"view0", "view1"}
    assert main(["kernels", "--manifest", str(mpath), "--out", str(out),
                 "--quiet"]) == 0
    second = {p.name: p.read_bytes() for p in out.glob("K_*.mvk1")}
    assert first == second


def test_kernels_estimates_each_view_once(tmp_path, monkeypatch):
    import mvkmf.kernels

    factored = []
    original = mvkmf.kernels._cholesky_succeeds

    def counted(K):
        factored.append(original(K))
        return factored[-1]

    monkeypatch.setattr(mvkmf.kernels, "_cholesky_succeeds", counted)
    mpath = synth(tmp_path, views=3)
    out = tmp_path / "kout"
    assert main(["kernels", "--manifest", str(mpath), "--out", str(out),
                 "--quiet"]) == 0
    # kernels built from features are PSD by construction: no factorization
    assert factored == []
    report = json.loads((out / "report.json").read_text())
    assert all(set(v) == {"view", "n", "indefinite"} for v in report["views"])

    # the kernel files just written, read back as precomputed kernels, are
    # factored once per view (load_dataset leaves the health report to the
    # command) and get the same verdicts
    kpath = kernel_file_manifest(mpath, out)
    kout = tmp_path / "kout2"
    assert main(["kernels", "--manifest", str(kpath), "--out", str(kout),
                 "--quiet"]) == 0
    assert len(factored) == 3
    again = json.loads((kout / "report.json").read_text())
    assert again == report
    assert [v["indefinite"] for v in again["views"]] == [not f for f in factored]


@pytest.mark.parametrize("spec, named", [
    ({"kind": "polynomial", "c": -5, "degree": 2}, "c must be >= 0, got -5.0"),
    ({"kind": "polynomial", "c": 0, "degree": 2.5},
     "degree must be an integer, got 2.5"),
])
def test_kernels_indefinite_polynomial_spec_exit_2(tmp_path, capsys, spec,
                                                   named):
    mpath = synth(tmp_path, per=5, clusters=2)
    manifest = json.loads(mpath.read_text())
    manifest["views"][0]["kernel_spec"] = spec
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "kout"
    assert main(["kernels", "--manifest", str(mpath), "--out", str(out),
                 "--quiet"]) == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("kernel_spec", "rbf"),
                                        ("features", 5)])
def test_fit_ill_typed_view_field_exit_2(tmp_path, capsys, key, value):
    mpath = synth(tmp_path, per=5, clusters=2)
    manifest = json.loads(mpath.read_text())
    manifest["views"][0][key] = value
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["fit", "--manifest", str(mpath), "--alpha", "16",
                 "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"view 'view0': '{key}' must be" in capsys.readouterr().err


def test_kernels_bad_manifest_exit_2(tmp_path):
    missing = tmp_path / "nope" / "manifest.json"
    assert main(["kernels", "--manifest", str(missing), "--quiet"]) == 2


def _unreadable_dataset(tmp_path, case):
    """(manifest argument, path the error must name) for a dataset with one
    file that cannot be read or is not UTF-8."""
    mpath = synth(tmp_path)
    root = mpath.parent
    obj = json.loads(mpath.read_text())
    if case == "manifest_is_a_directory":
        return root, root
    if case == "manifest_not_utf8":
        mpath.write_bytes(mpath.read_bytes().replace(b'"toy"', b'"t\xffy"'))
        return mpath, mpath
    if case == "labels_not_utf8":
        (root / "labels.csv").write_bytes(b"0\n\xff\n")
        return mpath, root / "labels.csv"
    key = "labels" if case == "labels_is_a_directory" else "features"
    (obj if key == "labels" else obj["views"][0])[key] = "."
    mpath.write_text(json.dumps(obj))
    return mpath, root / "."


@pytest.mark.parametrize("case", ["manifest_is_a_directory",
                                  "manifest_not_utf8",
                                  "labels_is_a_directory",
                                  "labels_not_utf8",
                                  "features_is_a_directory"])
def test_kernels_unreadable_input_exit_2(tmp_path, capsys, case):
    manifest, named = _unreadable_dataset(tmp_path, case)
    out = tmp_path / "out"
    assert main(["kernels", "--manifest", str(manifest), "--out", str(out),
                 "--quiet"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: {named}: " in err
    assert ("not UTF-8" if case.endswith("utf8") else "Is a directory") in err


@pytest.mark.parametrize("argv", [
    ["kernels"],
    ["fit", "--algorithm", "umklmf", "--alpha", "16"],
    ["fit", "--algorithm", "kkm"],
    ["fit", "--algorithm", "mkkm"],
])
def test_views_sharing_a_file_name_exit_2(tmp_path, monkeypatch, capsys,
                                          argv):
    import mvkmf.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the file names were checked")

    # "a b" and "a/b" both map to the file name a_b
    mpath = synth(tmp_path, per=5, clusters=2, views=3)
    manifest = json.loads(mpath.read_text())
    manifest["views"][0]["name"] = "a b"
    manifest["views"][2]["name"] = "a/b"
    mpath.write_text(json.dumps(manifest))
    for name in ("validate_kernel_set", "fit", "fit_mkkm", "init_point"):
        monkeypatch.setattr(cli, name, unreachable)
    out = tmp_path / "out"
    assert main(argv + ["--manifest", str(mpath), "--out", str(out),
                        "--quiet"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "'a b'" in err and "'a/b'" in err


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_artifacts_and_recovers(tmp_path):
    mpath = synth(tmp_path)
    out = tmp_path / "fit"
    rc = main(["fit", "--manifest", str(mpath), "--algorithm", "umklmf",
               "--alpha", "128", "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("H.mvk1", "labels.csv", "omega.csv", "objective_trace.csv",
                 "G_view0.mvk1", "G_view1.mvk1", "records.jsonl"):
        assert (out / name).exists(), name
    [record] = read_run_records(out / "records.jsonl")
    assert record.algorithm == "umklmf"
    assert record.alpha == 128.0
    assert record.metrics["acc"] == 1.0
    assert record.iterations >= 1
    trace = read_matrix(out / "objective_trace.csv")
    assert np.all(np.diff(trace[:, 0]) <= 1e-9)
    omega = read_matrix(out / "omega.csv")
    assert omega.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [16.0, 128.0, 512.0])
def test_kernel_files_converge_like_built_kernels(tmp_path, alpha):
    # kernel files and raw arrays carry no PSD mark, and the step needs
    # none: they stop within one iteration of the built kernels, and
    # without ConvergenceWarning (an error under this suite's settings)
    from mvkmf.io import load_dataset, load_manifest
    from mvkmf.solver import SolverConfig, fit

    mpath = tmp_path / "data" / "manifest.json"
    assert main(["synth", "--seed", "1", "--per-cluster", "30",
                 "--clusters", "4", "--separation", "2.5",
                 "--out", str(mpath.parent), "--quiet"]) == 0
    kdir = tmp_path / "kernels"
    assert main(["kernels", "--manifest", str(mpath), "--out", str(kdir),
                 "--quiet"]) == 0
    kpath = kernel_file_manifest(mpath, kdir)
    runs = {}
    for name, manifest in (("built", mpath), ("file", kpath)):
        out = tmp_path / name
        assert main(["fit", "--manifest", str(manifest), "--alpha",
                     str(alpha), "--out", str(out), "--quiet"]) == 0
        [runs[name]] = read_run_records(out / "records.jsonl")
    built = runs["built"].iterations
    assert runs["file"].iterations <= built + 1
    ks, _ = load_dataset(load_manifest(mpath))
    state = fit([K.data.copy() for K in ks.kernels],
                SolverConfig(k=4, alpha=alpha))
    assert state.objective_trace.size - 1 <= built + 1


def test_fit_deterministic_across_invocations(tmp_path):
    mpath = synth(tmp_path)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    for out in (out1, out2):
        assert main(["fit", "--manifest", str(mpath), "--alpha", "16",
                     "--out", str(out), "--quiet"]) == 0
    assert ((out1 / "labels.csv").read_bytes()
            == (out2 / "labels.csv").read_bytes())
    assert ((out1 / "H.mvk1").read_bytes() == (out2 / "H.mvk1").read_bytes())


def test_fit_negative_alpha_usage_error(tmp_path):
    mpath = synth(tmp_path)
    assert main(["fit", "--manifest", str(mpath), "--alpha", "-1",
                 "--out", str(tmp_path / "x"), "--quiet"]) == 2


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_fit_non_finite_alpha_usage_error(tmp_path, alpha):
    mpath = synth(tmp_path)
    out = tmp_path / "x"
    assert main(["fit", "--manifest", str(mpath), "--alpha", alpha,
                 "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


def test_fit_umklmf_requires_alpha(tmp_path):
    mpath = synth(tmp_path)
    assert main(["fit", "--manifest", str(mpath),
                 "--out", str(tmp_path / "x"), "--quiet"]) == 2


def test_fit_kkm(tmp_path):
    mpath = synth(tmp_path)
    out = tmp_path / "kkm"
    assert main(["fit", "--manifest", str(mpath), "--algorithm", "kkm",
                 "--out", str(out), "--quiet"]) == 0
    [record] = read_run_records(out / "records.jsonl")
    assert record.algorithm == "kkm"
    assert record.alpha is None
    assert record.iterations == 0
    assert not (out / "omega.csv").exists()
    assert not (out / "objective_trace.csv").exists()


def test_fit_mkkm(tmp_path):
    mpath = synth(tmp_path)
    out = tmp_path / "mkkm"
    assert main(["fit", "--manifest", str(mpath), "--algorithm", "mkkm",
                 "--out", str(out), "--quiet"]) == 0
    [record] = read_run_records(out / "records.jsonl")
    assert record.algorithm == "mkkm"
    gamma = read_matrix(out / "omega.csv")
    assert gamma.shape == (1, 2)
    assert gamma.sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_mkkm_iterates_under_max_iters(tmp_path):
    # --max-iters 0 leaves mkkm at its start: uniform gamma
    mpath = synth(tmp_path)
    out = tmp_path / "mkkm"
    assert main(["fit", "--manifest", str(mpath), "--algorithm", "mkkm",
                 "--max-iters", "0", "--out", str(out), "--quiet"]) == 0
    assert read_matrix(out / "omega.csv").tolist() == [[0.5, 0.5]]


def test_fit_numerical_failure_exit_3(tmp_path):
    mpath = write_hostile_dataset(tmp_path / "hostile")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["fit", "--manifest", str(mpath), "--alpha", "4",
                   "--out", str(tmp_path / "x"), "--quiet"])
    assert rc == 3


# ---------------------------------------------------------------------------
# evolve


def test_evolve_traces_iterations(tmp_path):
    mpath = synth(tmp_path, kernel="linear")
    out = tmp_path / "ev"
    assert main(["evolve", "--manifest", str(mpath), "--alpha", "128",
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "evolve.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,acc,nmi,purity,ari"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    objective = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))
    acc = [float(r[2]) for r in rows]
    assert acc[-1] == 1.0
    assert len(rows) - 1 <= 15          # iterations to convergence
    assert all(b >= a - 1e-12 for a, b in zip(acc, acc[1:]))


def test_evolve_zero_iterations_single_row(tmp_path):
    mpath = synth(tmp_path)
    out = tmp_path / "ev0"
    assert main(["evolve", "--manifest", str(mpath), "--alpha", "16",
                 "--max-iters", "0", "--out", str(out), "--quiet"]) == 0
    lines = (out / "evolve.csv").read_text().splitlines()
    assert len(lines) == 2              # header + initialization row
    assert lines[1].startswith("0,")


def test_evolve_row_count_matches_fit_iterations(tmp_path):
    mpath = synth(tmp_path)
    fit_out, ev_out = tmp_path / "f", tmp_path / "e"
    assert main(["fit", "--manifest", str(mpath), "--alpha", "16",
                 "--out", str(fit_out), "--quiet"]) == 0
    [record] = read_run_records(fit_out / "records.jsonl")
    assert main(["evolve", "--manifest", str(mpath), "--alpha", "16",
                 "--out", str(ev_out), "--quiet"]) == 0
    lines = (ev_out / "evolve.csv").read_text().splitlines()
    assert len(lines) == record.iterations + 2      # header + init + iters


@pytest.mark.parametrize("argv", [
    ["fit", "--algorithm", "umklmf", "--alpha", "16", "--restarts", "0"],
    ["fit", "--algorithm", "kkm", "--restarts", "0"],
    ["fit", "--algorithm", "mkkm", "--restarts", "0"],
    ["fit", "--algorithm", "umklmf", "--alpha", "16", "--max-iters", "-1"],
    ["evolve", "--alpha", "16", "--restarts", "0"],
    ["evolve", "--alpha", "16", "--rel-tol", "0"],
    ["fit", "--algorithm", "mkkm", "--max-iters", "-1"],
    ["fit", "--algorithm", "mkkm", "--rel-tol", "0"],
    ["fit", "--algorithm", "mkkm", "--rel-tol", "nan"],
    ["fit", "--algorithm", "umklmf", "--alpha", "16", "--seed", "-1"],
    ["fit", "--algorithm", "kkm", "--seed", "-1"],
    ["evolve", "--alpha", "16", "--seed", "-1"],
])
def test_bad_config_exits_2_before_fitting(tmp_path, monkeypatch, argv):
    import mvkmf.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("fit started before the config was validated")

    mpath = synth(tmp_path, per=5, clusters=2)
    for name in ("fit", "fit_mkkm", "init_point", "iterate"):
        monkeypatch.setattr(cli, name, unreachable)
    out = tmp_path / "out"
    assert main(argv + ["--manifest", str(mpath), "--out", str(out),
                        "--quiet"]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_from_fit_state(tmp_path):
    mpath = synth(tmp_path)
    fit_out = tmp_path / "fit"
    assert main(["fit", "--manifest", str(mpath), "--alpha", "128",
                 "--out", str(fit_out), "--quiet"]) == 0
    hm = tmp_path / "hm"
    assert main(["heatmap", "--state", str(fit_out), "--out", str(hm),
                 "--quiet"]) == 0
    for name in ("H_gram", "G_view0_gram", "G_view1_gram"):
        assert (hm / f"{name}.csv").exists()
        assert (hm / f"{name}.pgm").exists()
    gram = read_matrix(hm / "H_gram.csv")
    assert gram.shape == (30, 30)
    assert np.allclose(gram, gram.T, atol=1e-12)
    # perfect clustering on 3 balanced clusters of 10: in-block similarity
    # dominates off-block similarity
    blocks = np.repeat(np.arange(3), 10)
    same = blocks[:, None] == blocks[None, :]
    assert gram[same].mean() > gram[~same].mean()


def test_heatmap_identity_embedding(tmp_path):
    from mvkmf.io import write_labels, write_matrix

    state = tmp_path / "state"
    state.mkdir()
    write_matrix(state / "H.mvk1", np.eye(3))
    write_labels(state / "labels.csv", [0, 1, 2])
    hm = tmp_path / "hm"
    assert main(["heatmap", "--state", str(state), "--out", str(hm),
                 "--quiet"]) == 0
    assert np.array_equal(read_matrix(hm / "H_gram.csv"), np.eye(3))
    raw = (hm / "H_gram.pgm").read_bytes()
    pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels.reshape(3, 3).tolist() == (255 * np.eye(3)).tolist()


def test_heatmap_non_finite_embedding_exit_3(tmp_path, capsys):
    from mvkmf.io import write_labels, write_matrix

    state = tmp_path / "state"
    state.mkdir()
    h = np.eye(3)
    h[1, 2] = np.nan
    write_matrix(state / "H.mvk1", h)
    write_labels(state / "labels.csv", [0, 1, 2])
    hm = tmp_path / "hm"
    assert main(["heatmap", "--state", str(state), "--out", str(hm),
                 "--quiet"]) == 3
    assert "H_gram.pgm: matrix contains NaN/Inf" in capsys.readouterr().err
    assert list(hm.iterdir()) == []


def test_heatmap_incomplete_state_exit_2(tmp_path):
    state = tmp_path / "empty"
    state.mkdir()
    assert main(["heatmap", "--state", str(state), "--out",
                 str(tmp_path / "hm"), "--quiet"]) == 2


# ---------------------------------------------------------------------------
# stats command


def rigged_table(path, n=10, k=9):
    rng = np.random.default_rng(0)
    algs = ",".join(f"alg{j}" for j in range(k))
    lines = [f"dataset,{algs}"]
    for i in range(n):
        scores = rng.random(k)
        lines.append(f"d{i}," + ",".join(repr(float(s)) for s in scores))
    path.write_text("\n".join(lines) + "\n")


def test_stats_prints_summary(tmp_path, capsys):
    table = tmp_path / "table.csv"
    rigged_table(table)
    assert main(["stats", "--table", str(table), "--q-alpha", "1.96"]) == 0
    text = capsys.readouterr().out
    assert "df1=8" in text and "df2=72" in text
    assert "CD (q_alpha=1.96): 2.4004" in text  # 9 algorithms, 10 datasets
    assert "mean ranks:" in text
    assert "chi2:" in text and "p:" in text
    # by default q is the alpha = 0.05 value for 9 algorithms, 3.102
    assert main(["stats", "--table", str(table)]) == 0
    cd_line = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("CD (q_alpha=3.10"))
    assert float(cd_line.rsplit(":", 1)[1]) == pytest.approx(3.799, abs=1e-3)


def test_stats_default_cd_on_three_datasets(tmp_path, capsys):
    # ranks (1,2,3), (1,2,3), (1,3,2): mean ranks 1, 7/3, 8/3. At k=3 the
    # CD is 2.343 * sqrt(12/18) = 1.91, above the largest gap 5/3, which
    # k=2's q of 1.96 (CD 1.60) would have called significant
    table = tmp_path / "table.csv"
    table.write_text("dataset,umklmf,kkm,mkkm\n"
                     "d0,0.9,0.8,0.7\nd1,0.9,0.8,0.7\nd2,0.9,0.7,0.8\n")
    assert main(["stats", "--table", str(table)]) == 0
    text = capsys.readouterr().out
    cd_line = next(line for line in text.splitlines() if line.startswith("CD "))
    assert float(cd_line.rsplit(":", 1)[1]) == pytest.approx(1.91, abs=5e-3)
    assert text.rstrip().endswith("significant pairs (mean-rank gap >= CD):\n  none")


def test_stats_says_when_no_result_can_be_significant(tmp_path, capsys):
    # the best-alpha table that bench_grid_n300 makes at seed 101: two
    # datasets, both ranking umklmf 1, kkm 2, mkkm 3. No 2 x 3 table can
    # reach p <= 0.05 (the smallest exact p is 1/3! = 1/6), and its largest
    # possible mean-rank gap, 2, is below the CD, 2.34
    table = tmp_path / "table.csv"
    table.write_text("dataset,umklmf,kkm,mkkm\n"
                     "synth0,0.9733333333333333,0.96,0.84\n"
                     "synth1,0.9566666666666667,0.9466666666666667,0.87\n")
    assert main(["stats", "--table", str(table)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "mean ranks:" in lines
    assert ("too few datasets: the smallest p that 2 datasets and 3 "
            "algorithms can reach is 0.1666666667 > 0.05") in lines
    assert ("too few datasets: the largest possible mean-rank gap, 2, is "
            "below the CD") in lines
    # a third dataset brings the smallest p to 1/36 and the CD to 1.91, so
    # neither line is printed
    table.write_text("dataset,umklmf,kkm,mkkm\n"
                     "d0,0.9,0.8,0.7\nd1,0.9,0.8,0.7\nd2,0.9,0.7,0.8\n")
    assert main(["stats", "--table", str(table)]) == 0
    assert "too few datasets" not in capsys.readouterr().out


def test_stats_lists_significant_pairs(tmp_path, capsys):
    # mean ranks 1, 2, 3 over 10 datasets; the CD at k=3 is
    # 2.3437 * sqrt(12 / 60) = 1.048, so only the gap of 2 is significant
    table = tmp_path / "table.csv"
    table.write_text("dataset,a,b,c\n"
                     + "".join(f"d{i},0.9,0.8,0.7\n" for i in range(10)))
    assert main(["stats", "--table", str(table)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "CD (q_alpha=2.343700586): 1.048134766" in lines
    assert lines[-2:] == ["significant pairs (mean-rank gap >= CD):",
                          "  a vs c: gap 2"]


def test_stats_constant_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("dataset,a,b,c\n"
                     + "".join(f"d{i},0.5,0.5,0.5\n" for i in range(6)))
    assert main(["stats", "--table", str(table)]) == 0
    text = capsys.readouterr().out
    assert "F: 0" in text
    assert "none" in text


def test_stats_reports_dropped_rows(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("dataset,a,b\nd0,0.9,0.4\nd1,0.8,-\nd2,0.7,0.6\n")
    assert main(["stats", "--table", str(table)]) == 0
    assert "dropped 1" in capsys.readouterr().out


@pytest.mark.parametrize("case, reason", [
    ("missing", "No such file"),
    ("directory", "Is a directory"),
    ("not_utf8", "not UTF-8"),
])
def test_stats_unreadable_table_exit_2(tmp_path, capsys, case, reason):
    table = tmp_path / "table.csv"
    if case == "directory":
        table.mkdir()
    elif case == "not_utf8":
        table.write_bytes(b"dataset,a,b\nd\xff,0.9,0.4\nd1,0.8,0.6\n")
    assert main(["stats", "--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert f"error: {table}: " in err and reason in err


def test_stats_too_few_rows_exit_2(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("dataset,a,b\nd0,0.9,0.4\nd1,0.8,-\n")
    assert main(["stats", "--table", str(table)]) == 2


@pytest.mark.parametrize("q_alpha", ["0", "-1", "nan", "inf"])
def test_stats_bad_q_alpha_exit_2(tmp_path, capsys, q_alpha):
    table = tmp_path / "table.csv"
    rigged_table(table)
    assert main(["stats", "--table", str(table),
                 f"--q-alpha={q_alpha}"]) == 2
    assert "q_alpha" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_grid_and_best_alpha(tmp_path):
    m1 = synth(tmp_path, name="alpha-set", per=6, clusters=2, seed=1)
    m2 = synth(tmp_path, name="beta-set", per=6, clusters=2, seed=2)
    out = tmp_path / "bench"
    rc = main(["bench", "--manifest", str(m1), "--manifest", str(m2),
               "--algorithms", "umklmf,kkm", "--alphas", "1,4",
               "--seeds", "0,1", "--restarts", "10",
               "--out", str(out), "--quiet"])
    assert rc == 0

    table = read_results_table(out / "table.csv")
    assert table.dataset_names == ("alpha-set", "beta-set")
    assert table.algorithm_names == ("umklmf", "kkm")
    assert table.scores.shape == (2, 2)
    assert not np.isnan(table.scores).any()

    # brute re-scan: per (dataset, algorithm), mean ACC per alpha over
    # seeds, best mean wins with ties to the smaller alpha
    records = read_run_records(out / "records.jsonl")
    assert len(records) == 12           # (2 alphas * 2 + 1 * 2) seeds * 2 sets
    for i, ds in enumerate(table.dataset_names):
        for j, alg in enumerate(table.algorithm_names):
            rows = [r for r in records
                    if r.dataset == ds and r.algorithm == alg]
            by_alpha: dict = {}
            for r in rows:
                by_alpha.setdefault(r.alpha, []).append(r.metrics["acc"])
            best = max(
                (float(np.mean(v)) for v in by_alpha.values()))
            assert table.scores[i, j] == pytest.approx(best, abs=1e-15)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_bench_diverging_cell_dashes(tmp_path):
    good = synth(tmp_path, name="fine", per=6, clusters=2)
    bad = write_hostile_dataset(tmp_path / "hostile")
    out = tmp_path / "bench"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["bench", "--manifest", str(good), "--manifest", str(bad),
                   "--algorithms", "umklmf", "--alphas", "2",
                   "--seeds", "0", "--restarts", "5",
                   "--out", str(out), "--quiet"])
    assert rc == 0                      # one cell still succeeded
    text = (out / "table.csv").read_text()
    assert "-" in text.splitlines()[2]  # hostile row is missing its score
    table = read_results_table(out / "table.csv")
    assert np.isnan(table.scores[1, 0])
    assert not np.isnan(table.scores[0, 0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_bench_all_cells_fail_exit_3(tmp_path):
    bad = write_hostile_dataset(tmp_path / "hostile")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["bench", "--manifest", str(bad),
                   "--algorithms", "umklmf", "--alphas", "2", "--seeds", "0",
                   "--out", str(tmp_path / "bench"), "--quiet"])
    assert rc == 3


def test_bench_select_metric_nmi(tmp_path):
    # overlapping clusters, so that on set2 the best alpha by mean NMI (1)
    # is not the best by mean ACC (64)
    manifests = []
    for seed in (2, 1):
        out = tmp_path / f"set{seed}"
        assert main(["synth", "--name", f"set{seed}", "--per-cluster", "8",
                     "--clusters", "3", "--separation", "1", "--seed",
                     str(seed), "--out", str(out), "--quiet"]) == 0
        manifests += ["--manifest", str(out / "manifest.json")]
    out = tmp_path / "bench"
    assert main(["bench", *manifests, "--algorithms", "umklmf,mkkm",
                 "--alphas", "1,4,64", "--seeds", "0,1", "--restarts", "10",
                 "--select-metric", "nmi", "--out", str(out), "--quiet"]) == 0
    table = read_results_table(out / "table.csv")
    records = read_run_records(out / "records.jsonl")
    for i, ds in enumerate(table.dataset_names):
        for j, alg in enumerate(table.algorithm_names):
            means = {}
            for metric in ("acc", "nmi"):
                by_alpha: dict = {}
                for r in records:
                    if r.dataset == ds and r.algorithm == alg:
                        by_alpha.setdefault(r.alpha, []).append(
                            r.metrics[metric])
                means[metric] = {a: float(np.mean(v))
                                 for a, v in by_alpha.items()}
            assert table.scores[i, j] == max(means["nmi"].values())
            if (ds, alg) == ("set2", "umklmf"):
                best_acc = max(means["acc"], key=means["acc"].get)
                assert table.scores[i, j] > means["nmi"][best_acc]


def test_bench_table_feeds_stats(tmp_path, capsys):
    m1 = synth(tmp_path, name="one", per=6, clusters=2, seed=3)
    m2 = synth(tmp_path, name="two", per=6, clusters=2, seed=4)
    out = tmp_path / "bench"
    assert main(["bench", "--manifest", str(m1), "--manifest", str(m2),
                 "--algorithms", "umklmf,kkm,mkkm", "--alphas", "2",
                 "--seeds", "0", "--restarts", "10",
                 "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["stats", "--table", str(out / "table.csv")]) == 0
    assert "mean ranks:" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--restarts", "0"),
                                         ("--max-iters", "-1"),
                                         ("--rel-tol", "0"),
                                         ("--alphas", "nan"),
                                         ("--alphas", "1,inf"),
                                         ("--alphas", "1,1"),
                                         ("--alphas", "1,2,1"),
                                         ("--alphas", "-1"),
                                         ("--seeds", "0,0"),
                                         ("--seeds", "-1"),
                                         ("--algorithms", "kkm,kkm"),
                                         ("--algorithms", "kkm,umklmf,kkm"),
                                         ("--algorithms", "umklmf,dbscan"),
                                         ("--algorithms", "umklmf-nonsp")])
def test_bench_bad_params_exit_2_before_any_cell(tmp_path, flag, value):
    mpath = synth(tmp_path, per=5, clusters=2)
    out = tmp_path / "b"
    assert main(["bench", "--manifest", str(mpath),
                 "--algorithms", "umklmf,kkm", "--alphas", "1",
                 "--seeds", "0", flag, value,
                 "--out", str(out), "--quiet"]) == 2
    assert not (out / "records.jsonl").exists()


@pytest.mark.parametrize("flag, value", [("--alphas", "1,,2"),
                                         ("--seeds", "0,x")])
def test_bench_malformed_grid_value_exit_2(tmp_path, capsys, flag, value):
    mpath = synth(tmp_path, per=5, clusters=2)
    out = tmp_path / "b"
    assert main(["bench", "--manifest", str(mpath), flag, value,
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert flag in err and repr(value) in err
    assert not out.exists()


def test_bench_checks_alphas_as_fit_does(tmp_path):
    # alpha 0 is a umklmf alpha for bench as for fit, and an alpha grid that
    # no umklmf cell uses is not read, as fit ignores --alpha for a baseline
    mpath = synth(tmp_path, per=5, clusters=2)
    common = ["--manifest", str(mpath), "--restarts", "10", "--quiet"]
    bench_out, fit_out = tmp_path / "bench", tmp_path / "fit"
    assert main(["bench", "--algorithms", "umklmf", "--alphas", "0",
                 "--out", str(bench_out)] + common) == 0
    assert main(["fit", "--alpha", "0", "--out", str(fit_out)] + common) == 0
    [record] = _stripped_records(bench_out)
    assert record == _stripped_records(fit_out)[0]
    assert record["alpha"] == 0.0
    for alphas in ("nan", "-1", "1,inf"):
        out = tmp_path / f"baselines{alphas}"
        assert main(["bench", "--algorithms", "kkm,mkkm", "--alphas", alphas,
                     "--out", str(out)] + common) == 0
        assert len(_stripped_records(out)) == 2


def test_bench_computes_shared_parts_once_per_dataset(tmp_path, monkeypatch):
    import threading

    import mvkmf.cli as cli
    import mvkmf.solver as solver

    calls = {"init_point": 0, "fit_kkm": 0, "fit_mkkm": 0, "fit": 0}
    threads = set()

    def counted(name):
        # fit_kkm through the solver module, since cli no longer calls it
        module = solver if name == "fit_kkm" else cli
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            threads.add(threading.get_ident())
            if name != "fit":
                return fn(*args, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                state = fn(*args, **kwargs)
            # a returned fit has stopped on its residual unless the cap
            # warned
            ks, cfg = args[:2]
            if not caught:
                P, KP = solver._products(ks.kernels, state.H.T)
                Y = solver._eigen_products(P, KP, state.omega, cfg.alpha)
                assert solver._residual(Y, state.H)[1] < cfg.rel_tol
            return state
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver if name == "fit_kkm" else cli, name,
                            counted(name))
    m1 = synth(tmp_path, name="one", per=8, clusters=3, seed=5)
    m2 = synth(tmp_path, name="two", per=8, clusters=3, seed=6)
    out = tmp_path / "bench"
    assert main(["bench", "--manifest", str(m1), "--manifest", str(m2),
                 "--algorithms", "umklmf,kkm,mkkm", "--alphas", "1,8",
                 "--seeds", "0,1,2", "--restarts", "10",
                 "--out", str(out), "--quiet"]) == 0
    assert len(read_run_records(out / "records.jsonl")) == 24
    # one start per dataset serves the umklmf and the kkm cells, so no kkm
    # solve of its own runs; mkkm's part once per dataset
    assert calls == {"init_point": 2, "fit_kkm": 0, "fit_mkkm": 2,
                     "fit": 2 * 2 * 3}
    # every cell runs on the calling thread
    assert threads == {threading.get_ident()}


def write_overflow_dataset(root):
    """Manifest whose kernel's trace overflows: every mkkm fit on it raises
    NonFiniteError, and so does every umklmf fit, in its iterations."""
    return write_kernel_dataset(root, "overflow", np.eye(8) * 6e307)


def _stripped_records(out):
    records = [r.to_dict() for r in read_run_records(out / "records.jsonl")]
    for r in records:
        del r["wall_time_seconds"]
    return records


def check_bench_beside_good_set(tmp_path, capsys, bad, umklmf_error,
                                flags=()):
    """Bench a good set next to the one-view set ``bad`` and the good set
    alone: only the umklmf and mkkm cells of ``bad`` fail, with their shared
    part's error on stderr, and the good set's records do not change.
    ``flags`` are extra flags for the first bench; with ``--quiet`` it
    prints nothing on stdout."""
    good = synth(tmp_path, name="fine", per=6, clusters=2)
    grid = ["--algorithms", "umklmf,kkm,mkkm", "--alphas", "1,2",
            "--seeds", "0,1", "--restarts", "5"]
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["bench", "--manifest", str(good), "--manifest", str(bad),
                   "--out", str(tmp_path / "both"), *flags] + grid)
        captured = capsys.readouterr()
        assert main(["bench", "--manifest", str(good),
                     "--out", str(tmp_path / "alone"), "--quiet"] + grid) == 0
    assert rc == 0
    failed = [line for line in captured.err.splitlines()
              if line.startswith("cell failed:")]
    if "--quiet" in flags:
        assert captured.out == ""
    name = json.loads(bad.read_text())["name"]
    mkkm = "combined-kernel objective became NaN/Inf"
    # every cell of a failed shared part reports that part's error, in cell
    # order, exactly as when each cell computed the part itself
    assert failed == [
        f"cell failed: {name} umklmf alpha=1.0 seed=0: {umklmf_error}",
        f"cell failed: {name} umklmf alpha=1.0 seed=1: {umklmf_error}",
        f"cell failed: {name} umklmf alpha=2.0 seed=0: {umklmf_error}",
        f"cell failed: {name} umklmf alpha=2.0 seed=1: {umklmf_error}",
        f"cell failed: {name} mkkm alpha=None seed=0: {mkkm}",
        f"cell failed: {name} mkkm alpha=None seed=1: {mkkm}",
    ]

    both = _stripped_records(tmp_path / "both")
    assert [r for r in both if r["dataset"] == "fine"] == \
        _stripped_records(tmp_path / "alone")
    assert [(r["algorithm"], r["seed"]) for r in both
            if r["dataset"] == name] == [("kkm", 0), ("kkm", 1)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_bench_failed_shared_part_fails_its_cells(tmp_path, capsys):
    check_bench_beside_good_set(
        tmp_path, capsys, write_overflow_dataset(tmp_path / "overflow"),
        "objective became NaN/Inf; check the kernels")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_bench_quiet_still_reports_failed_cells(tmp_path, capsys):
    check_bench_beside_good_set(
        tmp_path, capsys, write_overflow_dataset(tmp_path / "overflow"),
        "objective became NaN/Inf; check the kernels", flags=["--quiet"])


def write_full_dataset(root, n):
    """Manifest whose n x n kernel is filled with 1e308, so its row sums,
    and so its products with most vectors, overflow to inf."""
    return write_kernel_dataset(root, "full", np.full((n, n), 1e308))


# at n = 8 the start is a dense eigh of the kernel itself, which holds no
# Inf, and the fit's first loss overflows; at n = 40 a Lanczos product does
@pytest.mark.parametrize("n, message", [
    (8, "objective became NaN/Inf; check the kernels"),
    (40, "kernel products are not finite: the kernels' entries are too "
         "large and their products overflow"),
], ids=["8", "40"])
def test_fit_overflowing_row_sums_exit_3(tmp_path, capsys, n, message):
    mpath = write_full_dataset(tmp_path / "full", n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["fit", "--manifest", str(mpath), "--alpha", "2",
                     "--restarts", "5", "--out", str(tmp_path / "fit")]) == 3
    assert f"error: {message}\n" == capsys.readouterr().err


def test_bench_overflowing_row_sums_fail_their_cells(tmp_path, capsys):
    # the dense start of the n = 8 kernel is finite, so its kkm cells
    # succeed as they did when kkm solved the mean kernel itself
    check_bench_beside_good_set(
        tmp_path, capsys, write_full_dataset(tmp_path / "full", 8),
        "objective became NaN/Inf; check the kernels")


def test_fit_record_equals_bench_record(tmp_path):
    mpath = synth(tmp_path, per=8, clusters=3, seed=7)
    common = ["--restarts", "10", "--quiet"]
    bench_out = tmp_path / "bench"
    assert main(["bench", "--manifest", str(mpath),
                 "--algorithms", "umklmf,kkm,mkkm", "--alphas", "16",
                 "--seeds", "1", "--out", str(bench_out)] + common) == 0

    def strip(record):
        d = record.to_dict()
        del d["wall_time_seconds"]
        return d

    bench = {r.algorithm: strip(r)
             for r in read_run_records(bench_out / "records.jsonl")}
    assert sorted(bench) == ["kkm", "mkkm", "umklmf"]
    for alg, extra in (("umklmf", ["--alpha", "16"]),
                       ("kkm", ["--alpha", "16"]),
                       ("mkkm", [])):
        out = tmp_path / f"fit-{alg}"
        assert main(["fit", "--manifest", str(mpath), "--algorithm", alg,
                     "--seed", "1", "--out", str(out)] + extra + common) == 0
        [record] = read_run_records(out / "records.jsonl")
        assert strip(record) == bench[alg]
    assert bench["umklmf"]["alpha"] == 16.0
    assert bench["kkm"]["alpha"] is None


# ---------------------------------------------------------------------------
# parser plumbing


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--frobnicate", str(tmp_path)])
    assert err.value.code == 2
    # one solver model: no objective variant, no umklmf-nonsp, and evolve
    # takes no --algorithm
    manifest = str(tmp_path / "manifest.json")
    table = str(tmp_path / "table.csv")
    for argv in (["fit", "--manifest", manifest, "--objective", "nonsparse"],
                 ["fit", "--manifest", manifest, "--algorithm", "umklmf-nonsp"],
                 ["evolve", "--manifest", manifest, "--algorithm", "umklmf"],
                 # flags that no command reads: only fit, evolve and synth
                 # take a seed, and stats writes nothing but its summary
                 ["kernels", "--manifest", manifest, "--seed", "1"],
                 ["bench", "--manifest", manifest, "--seed", "1"],
                 ["heatmap", "--state", str(tmp_path), "--seed", "1"],
                 ["stats", "--table", table, "--seed", "1"],
                 ["stats", "--table", table, "--out", str(tmp_path)],
                 ["stats", "--table", table, "--quiet"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_module_entry_point(tmp_path):
    # the child imports the same package as this process, installed or not
    src = str(Path(mvkmf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "mvkmf.cli", "synth", "--per-cluster", "3",
         "--clusters", "2", "--views", "1", "--out", str(tmp_path / "d"),
         "--quiet"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "manifest.json").exists()


NO_RANK_TESTS_UNTIL_STATS = """
import sys
import warnings

import mvkmf
import mvkmf.cli
from mvkmf.cli import main

root = sys.argv[1]
for i, name in enumerate(("one", "two")):
    assert main(["synth", "--name", name, "--per-cluster", "6",
                 "--clusters", "2", "--seed", str(i + 3),
                 "--out", f"{root}/{name}", "--quiet"]) == 0
one, two = f"{root}/one/manifest.json", f"{root}/two/manifest.json"
assert main(["kernels", "--manifest", one, "--out", f"{root}/k",
             "--quiet"]) == 0
assert main(["fit", "--manifest", one, "--alpha", "2", "--restarts", "5",
             "--out", f"{root}/fit", "--quiet"]) == 0
assert main(["evolve", "--manifest", one, "--alpha", "2", "--restarts", "5",
             "--max-iters", "3", "--out", f"{root}/evolve", "--quiet"]) == 0
assert main(["bench", "--manifest", one, "--manifest", two,
             "--algorithms", "umklmf,kkm,mkkm", "--alphas", "2",
             "--seeds", "0", "--restarts", "5", "--out", f"{root}/bench",
             "--quiet"]) == 0
assert "scipy.stats" not in sys.modules, "loaded before any ranking"
assert main(["stats", "--table", f"{root}/bench/table.csv"]) == 0
assert "scipy.stats" in sys.modules
"""


def test_scipy_stats_loaded_only_by_stats(tmp_path):
    # every command but stats runs without importing scipy.stats (about
    # 0.7 s and 21 MB of start-up); stats still ranks, with the q and CD
    # that Demsar's Table 5 gives for 3 algorithms on 2 datasets
    src = str(Path(mvkmf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_RANK_TESTS_UNTIL_STATS, str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "mean ranks:" in proc.stdout
    # q = studentized_range.ppf(0.95, 3, inf) / sqrt(2); CD = q sqrt(12/12)
    assert "CD (q_alpha=2.343700586): 2.343700586" in proc.stdout
