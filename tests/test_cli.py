import argparse
import json
import os
import types
from dataclasses import fields

import numpy as np
import pytest

import levyaug
from levyaug import (
    Example,
    GaussianSimSpec,
    OptimizationError,
    PoissonSimSpec,
    RngState,
    ThinningConfig,
    TrainConfig,
    cli,
    fit_strong_thinning,
    load_model,
    poisson_family,
)
from levyaug.cli import build_parser, main
from levyaug.dataio import read_pseudo_dataset, write_dataset, write_pseudo_dataset
from levyaug.families import gamma_family, gaussian_family, wishart_family
from levyaug.dataio import read_dataset

from conftest import random_pd_matrix


@pytest.fixture
def poisson_file(tmp_path):
    fam = poisson_family(3)
    g = RngState(71).spawn()
    examples = [
        Example(x=g.poisson(3.0, size=3), y=1 + i % 2, t=9.0) for i in range(12)
    ]
    path = tmp_path / "counts.csv"
    write_dataset(path, fam, examples)
    return path


def test_thin_produces_tagged_rows(poisson_file, tmp_path):
    out = tmp_path / "pseudo.csv"
    code = main([
        "thin", "--input", str(poisson_file), "--output", str(out),
        "--alpha", "0.5", "-B", "4", "--seed", "3",
    ])
    assert code == 0
    fam, pseudo = read_pseudo_dataset(out)
    assert len(pseudo) == 48
    assert sorted({pe.origin_id for pe in pseudo}) == list(range(12))
    manifest = json.loads((out.parent / (out.name + ".manifest.json")).read_text())
    assert manifest["seed"] == 3


def test_thin_is_deterministic(poisson_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main([
            "thin", "--input", str(poisson_file), "--output", str(out),
            "--alpha", "0.3", "-B", "2", "--seed", "11",
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thin_alpha_one_copies_features(poisson_file, tmp_path):
    out = tmp_path / "pseudo.csv"
    assert main([
        "thin", "--input", str(poisson_file), "--output", str(out),
        "--alpha", "1", "-B", "1", "--seed", "0",
    ]) == 0
    _, originals = read_dataset(poisson_file)
    _, pseudo = read_pseudo_dataset(out)
    for ex, pe in zip(originals, pseudo):
        assert np.array_equal(ex.x, pe.x_tilde)


def test_thin_t_const_overrides_every_t(poisson_file, tmp_path):
    out = tmp_path / "pseudo.csv"
    args = ["thin", "--input", str(poisson_file), "--output", str(out),
            "--alpha", "0.4", "-B", "2", "--seed", "5", "--t-const"]
    assert main(args + ["7.5"]) == 0
    _, pseudo = read_pseudo_dataset(out)
    assert len(pseudo) == 24 and np.all(pseudo.t_tilde == 0.4 * 7.5)
    assert main(args + ["0"]) == 3


def test_thin_exit_codes(tmp_path, poisson_file):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n")
    assert main([
        "thin", "--input", str(bad), "--output", str(tmp_path / "o.csv"),
        "--alpha", "0.5",
    ]) == 2

    negative = tmp_path / "neg.csv"
    negative.write_text(
        "# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n1,1.0,2,-1\n"
    )
    assert main([
        "thin", "--input", str(negative), "--output", str(tmp_path / "o.csv"),
        "--alpha", "0.5",
    ]) == 3

    assert main([
        "thin", "--input", str(poisson_file), "--output", str(tmp_path / "o.csv"),
        "--alpha", "1.7",
    ]) == 3

    assert main([
        "thin", "--input", str(poisson_file), "--output", str(tmp_path / "o.csv"),
        "--alpha", "0.5", "--family", "gamma",
    ]) == 2


def test_thin_of_a_near_singular_origin_exits_3_and_writes_nothing(tmp_path, capsys):
    # The origin passes the support check, but at this seed some of its
    # matrix-beta copies round outside 0 < x_tilde < x.
    data = tmp_path / "data.csv"
    data.write_text(
        "# levyaug-dataset v1 family=wishart d=2\ny,t,m_1,m_2,m_3\n1,6.0,1.0,0.99999999999999,1.0\n"
    )
    out = tmp_path / "pseudo.csv"
    code = main([
        "thin", "--input", str(data), "--output", str(out),
        "--alpha", "0.5", "-B", "32", "--seed", "4",
    ])
    assert code == 3
    assert "origin 0 " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_thin_of_a_count_too_large_for_int64_exits_3_naming_the_row(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(
        "# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n"
        "2,5.0,1,2\n1,5.0,10000000000000000000,3\n"
    )
    code = main([
        "thin", "--input", str(data), "--output", str(tmp_path / "pseudo.csv"),
        "--alpha", "0.5", "-B", "2", "--seed", "1",
    ])
    assert code == 3
    assert "row 2: Poisson counts must be below 2**63" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.parametrize("command", [
    ["thin", "--input", "{missing}", "--output", "{out}", "--alpha", "0.5"],
    ["thin", "--input", "{data}", "--sigma", "{missing}", "--output", "{out}",
     "--alpha", "0.5"],
    ["train", "--pseudo", "{missing}", "--originals", "{data}", "--out", "{out}"],
    ["limit", "--originals", "{missing}", "--out", "{out}"],
    ["limit", "--originals", "{data}", "--sigma", "{missing}", "--out", "{out}"],
], ids=["thin-input", "thin-sigma", "train-pseudo", "limit-originals", "limit-sigma"])
def test_a_missing_input_file_exits_2_and_names_it(poisson_file, tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    paths = dict(missing=missing, data=poisson_file, out=tmp_path / "out.txt")
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("levyaug: file error:") and str(missing) in err
    assert not (tmp_path / "out.txt").exists()


def test_train_writes_model_and_cv_report(poisson_file, tmp_path):
    pseudo = tmp_path / "pseudo.csv"
    assert main([
        "thin", "--input", str(poisson_file), "--output", str(pseudo),
        "--alpha", "0.5", "-B", "6", "--seed", "5",
    ]) == 0
    model_path = tmp_path / "model.txt"
    code = main([
        "train", "--pseudo", str(pseudo), "--originals", str(poisson_file),
        "--out", str(model_path), "--ridge-lambda", "1.0,0.1,0.01", "--folds", "3",
    ])
    assert code == 0
    model, family = load_model(model_path)
    assert family == poisson_family(3)
    assert model.beta.shape == (3, 2)
    report = (tmp_path / "model.txt.cv.csv").read_text().splitlines()
    assert report[0] == "lambda,mean_heldout_loss,mean_heldout_error"
    assert len(report) == 4
    manifest = json.loads((tmp_path / "model.txt.manifest.json").read_text())
    assert manifest["seed"] is None  # train draws nothing
    assert manifest["config"]["chosen_lambda"] in (1.0, 0.1, 0.01)


def test_train_cv_report_keeps_a_row_per_lambda_past_the_stop(poisson_file, tmp_path):
    pseudo, model = tmp_path / "pseudo.csv", tmp_path / "model.txt"
    assert main([
        "thin", "--input", str(poisson_file), "--output", str(pseudo),
        "--alpha", "0.5", "-B", "6", "--seed", "5",
    ]) == 0
    grid = np.geomspace(100.0, 1e-4, 13).tolist()
    assert main([
        "train", "--pseudo", str(pseudo), "--originals", str(poisson_file),
        "--out", str(model), "--ridge-lambda", ",".join(map(repr, grid)), "--folds", "3",
    ]) == 0
    lines = (tmp_path / "model.txt.cv.csv").read_text().splitlines()
    assert lines[0] == "lambda,mean_heldout_loss,mean_heldout_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(row[0]) for row in rows] == grid
    solved = [row[1:] != ["nan", "nan"] for row in rows]
    stop = solved.index(False)
    assert 0 < stop < len(grid) and not any(solved[stop:])
    assert all(np.isfinite(float(v)) for row in rows[:stop] for v in row[1:])


def test_train_single_lambda_skips_cv(poisson_file, tmp_path):
    pseudo = tmp_path / "pseudo.csv"
    main([
        "thin", "--input", str(poisson_file), "--output", str(pseudo),
        "--alpha", "0.5", "-B", "2", "--seed", "5",
    ])
    model_path = tmp_path / "model.txt"
    assert main([
        "train", "--pseudo", str(pseudo), "--originals", str(poisson_file),
        "--out", str(model_path), "--ridge-lambda", "0.5",
    ]) == 0
    report = (tmp_path / "model.txt.cv.csv").read_text().splitlines()
    assert len(report) == 2  # header + the single lambda


def test_train_dimension_mismatch_exits_2(tmp_path, capsys):
    g = RngState(8).spawn()
    paths = {}
    for d in (4, 6):
        examples = [
            Example(x=random_pd_matrix(d, g), y=1 + i % 2, t=float(2 * d + 2)) for i in range(6)
        ]
        paths[d] = tmp_path / f"wishart{d}.csv"
        write_dataset(paths[d], wishart_family(d), examples)
    pseudo = tmp_path / "pseudo4.csv"
    assert main([
        "thin", "--input", str(paths[4]), "--output", str(pseudo),
        "--alpha", "0.5", "-B", "2", "--seed", "1",
    ]) == 0
    assert main([
        "train", "--pseudo", str(pseudo), "--originals", str(paths[6]),
        "--out", str(tmp_path / "m.txt"), "--ridge-lambda", "0.1",
    ]) == 2
    err = capsys.readouterr().err
    assert "d=4" in err and "d=6" in err
    assert not (tmp_path / "m.txt").exists()


def test_train_family_mismatch_exits_2(poisson_file, tmp_path, capsys):
    pseudo, gamma, model = tmp_path / "pseudo.csv", tmp_path / "gamma.csv", tmp_path / "m.txt"
    assert main([
        "thin", "--input", str(poisson_file), "--output", str(pseudo),
        "--alpha", "0.5", "-B", "2", "--seed", "1",
    ]) == 0
    write_dataset(gamma, gamma_family(3), [
        Example(x=np.array([1.0 + i, 2.0, 0.5]), y=1 + i % 2, t=2.0) for i in range(6)
    ])
    assert main([
        "train", "--pseudo", str(pseudo), "--originals", str(gamma),
        "--out", str(model), "--ridge-lambda", "0.1",
    ]) == 2
    assert "declare different families" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
def test_train_checks_pseudo_rows_against_the_family(tmp_path, capsys, bad):
    fam = gamma_family(2)
    originals = [Example(x=np.array([1.0 + i, 2.0]), y=1 + i % 2, t=2.0) for i in range(6)]
    x_tilde = np.array([[bad, 1.0]] + [[0.5 + i, 1.0] for i in range(1, 6)])
    pseudo = levyaug.PseudoBatch(
        x_tilde=x_tilde, y=[1 + i % 2 for i in range(6)], origin_id=range(6), alpha=0.5,
        t_tilde=1.0,
    )
    data, pseudo_path, model = tmp_path / "g.csv", tmp_path / "pseudo.csv", tmp_path / "m.txt"
    write_dataset(data, fam, originals)
    write_pseudo_dataset(pseudo_path, fam, pseudo)
    assert main([
        "train", "--pseudo", str(pseudo_path), "--originals", str(data),
        "--out", str(model), "--ridge-lambda", "0.1",
    ]) == 3
    assert "row 1:" in capsys.readouterr().err
    assert not model.exists()


def test_train_finishes_where_lbfgs_stops_short(tmp_path, monkeypatch):
    # Two classes of 5x5 Wishart scatter matrices (t = 20).  On these inputs
    # the K-column solver's L-BFGS-B stopped on "relative reduction of f" at
    # lambda=0.3 with gradient max-norm 1.14e-7 > tol; the two-class solve
    # converges there.  The fit must reach tol instead of exiting 4;
    # test_logistic.py pins the Newton finish itself.
    d, t, n = 5, 20, 200
    rng = np.random.default_rng([207, 3])
    y = rng.integers(1, 3, size=n)
    z = rng.standard_normal((n, t, d))
    scale2 = np.diag([1.5, 1.25, 1.0, 1.0, 1.0])
    scale2[2, 3] = scale2[3, 2] = 0.4
    for k, chol in ((1, np.eye(d)), (2, np.linalg.cholesky(scale2))):
        z[y == k] = z[y == k] @ chol.T
    x = np.einsum("mti,mtj->mij", z, z)
    data, pseudo, model = tmp_path / "data.csv", tmp_path / "pseudo.csv", tmp_path / "m.txt"
    write_dataset(
        data, wishart_family(d), [Example(x=m, y=int(c), t=float(t)) for c, m in zip(y, x)]
    )
    assert main([
        "thin", "--input", str(data), "--output", str(pseudo),
        "--alpha", "0.5", "-B", "16", "--seed", "207003",
    ]) == 0

    reports = []
    fit = cli.fit_logistic_detailed

    def recording_fit(*args, **kwargs):
        result = fit(*args, **kwargs)
        reports.append(result[1])
        return result

    monkeypatch.setattr(cli, "fit_logistic_detailed", recording_fit)
    assert main([
        "train", "--pseudo", str(pseudo), "--originals", str(data), "--out", str(model),
        "--ridge-lambda", "1,0.3,0.1,0.03,0.01", "--folds", "5",
    ]) == 0
    assert reports and reports[0].grad_max_norm <= 1e-7


def test_limit_fits_poisson_endpoint(poisson_file, tmp_path):
    model_path = tmp_path / "limit.txt"
    code = main([
        "limit", "--originals", str(poisson_file), "--family", "poisson",
        "--out", str(model_path),
    ])
    assert code == 0
    model, family = load_model(model_path)
    assert model.beta.shape == (3, 2)
    manifest = json.loads((tmp_path / "limit.txt.manifest.json").read_text())
    assert manifest["seed"] is None  # limit draws nothing
    assert manifest["config"]["family"] == "poisson"


def test_limit_no_calibrate_writes_the_limit_fit_itself(poisson_file, tmp_path):
    model_path = tmp_path / "limit.txt"
    assert main([
        "limit", "--originals", str(poisson_file), "--out", str(model_path), "--no-calibrate",
    ]) == 0
    assert "calib_scale 1.0\n" in model_path.read_text()
    model, family = load_model(model_path)
    fit = fit_strong_thinning(read_dataset(poisson_file)[1], family, ridge_lambda=1e-6)
    assert np.array_equal(model.beta, fit.beta)
    assert model.calib_scale == 1.0 and np.array_equal(model.calib_c, np.zeros(2))
    manifest = json.loads((tmp_path / "limit.txt.manifest.json").read_text())
    assert manifest["config"]["calibrated"] is False


def test_limit_reads_family_from_file(poisson_file, tmp_path, capsys):
    gauss = tmp_path / "gauss.csv"
    g = RngState(73).spawn()
    write_dataset(gauss, gaussian_family(2), [
        Example(x=g.standard_normal(2), y=1 + i % 2, t=1.0) for i in range(8)
    ])
    asserted, read = tmp_path / "asserted.txt", tmp_path / "read.txt"
    for data, alias in ((poisson_file, "poisson"), (gauss, "gaussian")):
        base = ["limit", "--originals", str(data)]
        assert main(base + ["--family", alias, "--out", str(asserted)]) == 0
        assert main(base + ["--out", str(read)]) == 0
        assert read.read_bytes() == asserted.read_bytes()

    gamma = tmp_path / "gamma.csv"
    g = RngState(72).spawn()
    write_dataset(gamma, gamma_family(2), [
        Example(x=g.gamma(2.0, size=2), y=1 + i % 2, t=4.0) for i in range(6)
    ])
    # no derived strong-thinning law for Gamma: a domain error, asserted or not
    base = ["limit", "--originals", str(gamma), "--out", str(tmp_path / "g.txt")]
    for family in ([], ["--family", "gamma"]):
        capsys.readouterr()
        assert main(base + family) == 3
        assert capsys.readouterr().err == (
            "levyaug: domain error: no derived strong-thinning law for the gamma family\n"
        )


def test_limit_family_mismatch_exits_2(tmp_path):
    fam = gaussian_family(2)
    spec_examples = [
        Example(x=np.array([0.1, 0.2]), y=1, t=1.0),
        Example(x=np.array([0.3, -0.2]), y=2, t=1.0),
    ]
    data = tmp_path / "gauss.csv"
    write_dataset(data, fam, spec_examples)
    assert main([
        "limit", "--originals", str(data), "--family", "poisson",
        "--out", str(tmp_path / "m.txt"),
    ]) == 2  # family mismatch against the file header


def _gauss_file(tmp_path, rows=8):
    path = tmp_path / "gauss.csv"
    g = RngState(74).spawn()
    write_dataset(path, gaussian_family(2), [
        Example(x=g.standard_normal(2), y=1 + i % 2, t=1.0) for i in range(rows)
    ])
    return path


def _read_command(command, data, out):
    """A ``thin`` or ``limit`` command line reading the dataset ``data``."""
    if command == "thin":
        return ["thin", "--input", str(data), "--output", str(out), "--alpha", "0.5"]
    return ["limit", "--originals", str(data), "--out", str(out)]


def test_limit_sigma_sets_the_model_covariance(tmp_path):
    data, model, sigma = _gauss_file(tmp_path), tmp_path / "m.txt", tmp_path / "sigma.csv"
    sigma.write_text("2.0,0.5\n0.5,1.0\n")
    for extra, want in (([], np.eye(2)), (["--sigma", str(sigma)], [[2.0, 0.5], [0.5, 1.0]])):
        assert main(_read_command("limit", data, model) + extra) == 0
        _, family = load_model(model)
        assert np.array_equal(family.sigma, want)


@pytest.mark.parametrize("command", ["thin", "limit"])
def test_sigma_on_a_non_gaussian_file_exits_3(poisson_file, tmp_path, capsys, command):
    sigma, out = tmp_path / "sigma.csv", tmp_path / "out.txt"
    sigma.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
    argv = _read_command(command, poisson_file, out) + ["--sigma", str(sigma)]
    message = "levyaug: domain error: a covariance override only applies to Gaussian data\n"
    for family in ([], ["--family", "gaussian"]):  # --sigma is checked before --family
        capsys.readouterr()
        assert main(argv + family) == 3
        assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["thin", "limit"])
def test_a_row_error_comes_before_the_sigma_check(tmp_path, capsys, command):
    data, sigma, out = tmp_path / "counts.csv", tmp_path / "sigma.csv", tmp_path / "out.txt"
    data.write_text("# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n"
                    "1,1.0,2,0\n1.5,1.0,2,0\n")
    sigma.write_text("1.0,0.0\n0.0,1.0\n")
    assert main(_read_command(command, data, out) + ["--sigma", str(sigma)]) == 2
    assert capsys.readouterr().err == (
        "levyaug: input format error: row 2: class labels must be integers\n"
    )


def test_thin_with_a_covariance_that_is_not_symmetric_exits_3(tmp_path, capsys):
    data, sigma, out = _gauss_file(tmp_path), tmp_path / "sigma.csv", tmp_path / "p.csv"
    sigma.write_text("2.0,0.5\n0.4,1.0\n")
    assert main(_read_command("thin", data, out) + ["--sigma", str(sigma)]) == 3
    assert capsys.readouterr().err == "levyaug: domain error: covariance must be symmetric\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["thin", "limit"])
def test_a_file_that_is_not_utf8_exits_2(poisson_file, tmp_path, capsys, command):
    data, out = tmp_path / "bad.csv", tmp_path / "out.txt"
    data.write_bytes(poisson_file.read_bytes()[:-1] + b"\xff\n")
    assert main(_read_command(command, data, out)) == 2
    assert capsys.readouterr().err == "levyaug: input format error: file is not UTF-8 text\n"
    assert not out.exists()


def _thin_and_train_argv(tmp_path, data, *train_args):
    pseudo = tmp_path / "pseudo.csv"
    assert main(["thin", "--input", str(data), "--output", str(pseudo), "--alpha", "0.5",
                 "-B", "2", "--seed", "1"]) == 0
    return ["train", "--pseudo", str(pseudo), "--originals", str(data),
            "--out", str(tmp_path / "m.txt"), *train_args]


def test_train_with_more_folds_than_origins_exits_3(tmp_path, capsys):
    data = _gauss_file(tmp_path, rows=4)
    argv = _thin_and_train_argv(tmp_path, data, "--folds", "5", "--ridge-lambda", "1,0.1")
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "levyaug: domain error: 5-fold CV needs at least 5 distinct origins, got 4\n"
    )


def test_a_failed_fit_exits_4(poisson_file, tmp_path, capsys, monkeypatch):
    argv = _thin_and_train_argv(tmp_path, poisson_file)

    def failing_fit(pseudo, cfg):
        raise OptimizationError("gradient max-norm 0.5 > tol")

    monkeypatch.setattr(cli, "fit_logistic_detailed", failing_fit)
    assert main(argv) == 4
    assert capsys.readouterr().err == "levyaug: optimization failed: gradient max-norm 0.5 > tol\n"
    assert not (tmp_path / "m.txt").exists()


def test_simulate_reports_a_failed_cell_and_exits_0(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--spec", "gauss", "--out", str(out), "--n-grid", "4",
                 "--alphas", "0.5", "--replicates", "1", "--jobs", "1", "--seed", "3"]) == 0
    failure = "gauss n=4 alpha=0.5 rep=0: 5-fold CV needs at least 5 distinct origins, got 4"
    captured = capsys.readouterr()
    assert captured.err == f"levyaug: cell failed: {failure}\n"
    assert captured.out == "1 failed cells (see the manifest)\n"
    assert out.read_text().splitlines()[1] == "gauss,4,0.5,0,nan,nan,0"
    sweep = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["config"]["sweep"]
    assert sweep["failures"] == [failure]
    assert (sweep["seed"], sweep["n_grid"], sweep["replicates"]) == (3, [4], 1)
    assert sweep["spec"] == {"type": "GaussianSimSpec", "d": 100, "n_signal": 20,
                             "atoms_per_class": 10, "atom_scale": 1.1, "t_dof": 4.0}


def test_simulate_reproduces_csv_byte_identical(tmp_path):
    args = [
        "simulate", "--spec", "gauss", "--out", None, "--alphas", "0,1",
        "--n-grid", "20", "--replicates", "2", "-B", "2",
        "--lambdas", "1.0,0.1", "--seed", "13", "--jobs", "1",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        argv = list(args)
        argv[4] = str(out)
        assert main(argv) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 13
    assert manifest["version"]


def test_simulate_plot_output(tmp_path):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "sweep.svg"
    assert main([
        "simulate", "--spec", "gauss", "--out", str(out), "--alphas", "0.5,1",
        "--n-grid", "20", "--replicates", "2", "-B", "2",
        "--lambdas", "1.0,0.1", "--seed", "13", "--plot", str(svg), "--jobs", "1",
    ]) == 0
    assert svg.read_text().startswith("<svg")


def test_simulate_prints_mean_error_per_cell(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main([
        "simulate", "--spec", "gauss", "--out", str(out), "--alphas", "0,1",
        "--n-grid", "20", "--replicates", "2", "-B", "2",
        "--lambdas", "1.0,0.1", "--seed", "13", "--jobs", "1",
    ]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    lines = capsys.readouterr().out.splitlines()
    for line, alpha in zip(lines, ("0.0", "1.0")):
        errors = [float(r[4]) for r in rows if r[2] == alpha]
        assert line.split() == [
            "n=20", f"alpha={float(alpha):g}", f"mean_error={np.mean(errors):.4f}"
        ]
    assert lines[2:] == ["0 failed cells (see the manifest)"]


@pytest.mark.parametrize(
    "option, value",
    [("--lambdas", "1,,2"), ("--alphas", "x"), ("--n-grid", "x"), ("--n-grid", "40,1.5")],
)
def test_simulate_malformed_comma_list_is_a_usage_error(tmp_path, capsys, option, value):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--spec", "gauss", "--out", str(tmp_path / "s.csv"), option, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {option}: expected a comma list" in err


def test_train_malformed_ridge_lambda_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([
            "train", "--pseudo", "p.csv", "--originals", "o.csv",
            "--out", str(tmp_path / "m.txt"), "--ridge-lambda", "abc",
        ])
    assert exit_.value.code == 2
    assert "argument --ridge-lambda: expected a comma list of numbers, got 'abc'" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("value", ["nan", "inf", "1,nan"])
def test_a_non_finite_ridge_lambda_is_a_parameter_error(poisson_file, tmp_path, capsys, value):
    # exit 3, before anything is fitted or written
    model, pseudo = tmp_path / "m.txt", tmp_path / "pseudo.csv"
    assert main(["thin", "--input", str(poisson_file), "--output", str(pseudo),
                 "--alpha", "0.5", "-B", "2", "--seed", "1"]) == 0
    commands = [["train", "--pseudo", str(pseudo), "--originals", str(poisson_file)]]
    if "," not in value:
        commands.append(["limit", "--originals", str(poisson_file), "--no-calibrate"])
    for command in commands:
        assert main(command + ["--out", str(model), "--ridge-lambda", value]) == 3
        assert "finite and nonnegative" in capsys.readouterr().err
        assert not model.exists()


def test_comma_list_options_parse_to_values():
    parse = build_parser().parse_args
    sim = parse(["simulate", "--spec", "gauss", "--out", "s.csv"])
    assert (sim.alphas, sim.n_grid, sim.lambdas) == ((0.0, 0.1, 0.25, 0.5, 0.75, 1.0), None, None)
    sim = parse(["simulate", "--spec", "gauss", "--out", "s.csv", "--n-grid", "30,50",
                 "--lambdas", "1,0.1"])
    assert (sim.n_grid, sim.lambdas) == ((30, 50), (1.0, 0.1))
    train = parse(["train", "--pseudo", "p", "--originals", "o", "--out", "m",
                   "--ridge-lambda", "0.5"])
    assert train.ridge_lambda == 0.5


def test_simulate_without_replicates_exits_3(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main([
        "simulate", "--spec", "gauss", "--out", str(out), "--alphas", "1",
        "--n-grid", "20", "--replicates", "0", "--jobs", "1",
    ]) == 3
    assert "no cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("output", ["--out", "--plot"])
def test_simulate_into_a_missing_directory_exits_2_and_writes_nothing(tmp_path, capsys, output):
    paths = {"--out": tmp_path / "s.csv", "--plot": tmp_path / "s.svg"}
    paths[output] = tmp_path / "nodir" / paths[output].name
    assert main([
        "simulate", "--spec", "gauss", "--out", str(paths["--out"]),
        "--plot", str(paths["--plot"]), "--alphas", "1", "--n-grid", "20",
        "--replicates", "1", "-B", "2", "--jobs", "1",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("levyaug: file error:") and str(paths[output]) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option, match",
    [(["-B", "0"], "n_pseudo"), (["--n-grid", "1"], "training size"), (["--jobs", "-3"], "jobs")],
)
def test_simulate_with_a_bad_setting_exits_3(tmp_path, capsys, option, match):
    out = tmp_path / "s.csv"
    assert main([
        "simulate", "--spec", "gauss", "--out", str(out), "--alphas", "0.5",
        "--n-grid", "20", "--replicates", "1", "--jobs", "1", *option,
    ]) == 3
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this OS")
def test_simulate_jobs_default_is_the_usable_cores():
    args = build_parser().parse_args(["simulate", "--spec", "gauss", "--out", "x.csv"])
    assert args.jobs == len(os.sched_getaffinity(0))


def test_env_seed_default(poisson_file, tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYAUG_SEED", "99")
    out1 = tmp_path / "env.csv"
    assert main([
        "thin", "--input", str(poisson_file), "--output", str(out1),
        "--alpha", "0.5",
    ]) == 0
    out2 = tmp_path / "explicit.csv"
    assert main([
        "thin", "--input", str(poisson_file), "--output", str(out2),
        "--alpha", "0.5", "--seed", "99",
    ]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_malformed_env_seed_is_a_usage_error_of_the_seeded_commands_only(
    poisson_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("LEVYAUG_SEED", "abc")
    seeded = [
        ["thin", "--input", str(poisson_file), "--output", str(tmp_path / "p.csv"),
         "--alpha", "0.5"],
        ["simulate", "--spec", "gauss", "--out", str(tmp_path / "s.csv"), "--alphas", "1",
         "--n-grid", "20", "--replicates", "1", "--jobs", "1"],
    ]
    for argv in seeded:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "argument --seed: expected an integer for --seed or LEVYAUG_SEED, got 'abc'" in (
            capsys.readouterr().err
        )
    pseudo = tmp_path / "p.csv"
    assert not pseudo.exists() and not (tmp_path / "s.csv").exists()
    # an explicit --seed never reads the variable, and train and limit take no seed
    assert main(seeded[0] + ["--seed", "5"]) == 0
    assert main(["train", "--pseudo", str(pseudo), "--originals", str(poisson_file),
                 "--out", str(tmp_path / "m.txt"), "--ridge-lambda", "0.1"]) == 0
    assert main(["limit", "--originals", str(poisson_file), "--out", str(tmp_path / "l.txt")]) == 0


def _manifest(out) -> dict:
    return json.loads((out.parent / (out.name + ".manifest.json")).read_text())


# a small sweep: one alpha = 1 cell, no thinning
_SIMULATE_ARGV = ["simulate", "--spec", "gauss", "--alphas", "1", "--n-grid", "20",
                  "--replicates", "1", "-B", "2", "--lambdas", "1.0,0.1", "--seed", "13",
                  "--jobs", "1"]


def _manifests_of_each_command(tmp_path, data) -> dict:
    """command -> the manifest of a small run of it on the dataset ``data``."""
    pseudo, model, sweep, limit = (tmp_path / n for n in ("p.csv", "m.txt", "s.csv", "l.txt"))
    runs = {
        "thin": (["thin", "--input", str(data), "--output", str(pseudo), "--alpha", "0.5",
                  "-B", "2", "--seed", "4"], pseudo),
        "train": (["train", "--pseudo", str(pseudo), "--originals", str(data), "--out",
                   str(model), "--ridge-lambda", "1,0.1", "--folds", "3"], model),
        "simulate": ([*_SIMULATE_ARGV, "--out", str(sweep)], sweep),
        "limit": (["limit", "--originals", str(data), "--out", str(limit), "--no-calibrate"],
                  limit),
    }
    manifests = {}
    for command, (argv, out) in runs.items():
        assert main(argv) == 0
        manifests[command] = _manifest(out)
    return manifests


def test_the_manifest_records_every_flag_of_its_command(poisson_file, tmp_path):
    manifests = _manifests_of_each_command(tmp_path, poisson_file)
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, sub in commands.choices.items():
        config = manifests[name]["config"]
        flags = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        assert flags - set(config) == set(), name
        assert config["command"] == name and "func" not in config


def test_the_manifest_keeps_what_each_run_derived(poisson_file, tmp_path):
    manifests = _manifests_of_each_command(tmp_path, poisson_file)
    assert {c: m["seed"] for c, m in manifests.items()} == {
        "thin": 4, "train": None, "simulate": 13, "limit": None  # train and limit draw nothing
    }
    thin, train, sim, limit = (manifests[c]["config"] for c in ("thin", "train", "simulate", "limit"))
    data = str(poisson_file)
    assert (thin["input"], thin["alpha"], thin["n_pseudo"], thin["t_const"], thin["family"]) == (
        data, 0.5, 2, None, "poisson"
    )
    assert (train["pseudo"], train["originals"], train["ridge_lambda"], train["folds"]) == (
        str(tmp_path / "p.csv"), data, [1.0, 0.1], 3
    )
    assert train["chosen_lambda"] in (1.0, 0.1)
    assert (sim["timing"], sim["standardize"]) == (False, False)
    assert (sim["sweep"]["seed"], sim["sweep"]["n_grid"], sim["sweep"]["failures"]) == (13, [20], [])
    assert (limit["originals"], limit["family"], limit["ridge_lambda"], limit["calibrated"]) == (
        data, "poisson", 1e-6, False
    )


def test_the_config_hash_covers_every_flag(tmp_path):
    def config_hash(argv, out):
        assert main(argv) == 0
        return _manifest(out)["config_hash"]

    sweep = tmp_path / "s.csv"
    runs = ([], ["--lambdas", "1.0,0.2"], ["--folds", "4"])
    hashes = {config_hash([*_SIMULATE_ARGV, "--out", str(sweep), *extra], sweep) for extra in runs}
    assert len(hashes) == len(runs)
    data, sigma, pseudo = _gauss_file(tmp_path), tmp_path / "sigma.csv", tmp_path / "p.csv"
    sigma.write_text("2.0,0.5\n0.5,1.0\n")
    thin = _read_command("thin", data, pseudo) + ["--family", "gauss"]
    assert config_hash(thin, pseudo) != config_hash(thin + ["--sigma", str(sigma)], pseudo)
    # a derived value wins over its flag: the file's family, not the alias --family asserts
    assert _manifest(pseudo)["config"]["family"] == "gaussian"


# Every option and config field has a caller.  A new one must be added here
# too, so it shows in review.
SETTABLE_SURFACE = {
    "thin": ["--alpha", "--family", "--input", "--n-pseudo", "--output", "--seed",
             "--sigma", "--t-const", "-B"],
    "train": ["--folds", "--originals", "--out", "--pseudo", "--ridge-lambda"],
    "simulate": ["--alphas", "--folds", "--jobs", "--lambdas", "--n-grid", "--n-pseudo",
                 "--out", "--plot", "--replicates", "--seed", "--spec", "--standardize",
                 "--timing", "-B"],
    "limit": ["--family", "--no-calibrate", "--originals", "--out", "--ridge-lambda",
              "--sigma"],
    "TrainConfig": ["max_iter", "n_folds", "ridge_lambda", "tol"],
    "ThinningConfig": ["alpha", "n_pseudo", "seed"],
    # in declaration order: a spec holds only what shapes its design's data
    "GaussianSimSpec": ["d", "n_signal", "atoms_per_class", "atom_scale", "t_dof"],
    "PoissonSimSpec": ["d", "total_rate", "n_signal", "signal_level", "tau_rate"],
}


def test_settable_surface_is_pinned():
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {
        name: sorted(opt for a in sub._actions for opt in a.option_strings
                     if opt not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    for config in (TrainConfig, ThinningConfig):
        surface[config.__name__] = sorted(f.name for f in fields(config))
    for spec in (GaussianSimSpec, PoissonSimSpec):
        surface[spec.__name__] = [f.name for f in fields(spec)]
    assert surface == SETTABLE_SURFACE


# Every public name of the package.  An addition or a removal must be made
# here too, so it shows in review.
PUBLIC_API = [
    "DataFormatError", "DecompositionError", "DegenerateDataError",
    "Example", "ExampleBatch", "FamilyKind", "FeatureMap", "GaussianSimSpec",
    "LevyAugError", "LevyFamily", "LogisticModel", "OptimizationError", "ParameterError",
    "PoissonSimSpec", "PseudoBatch", "PseudoExample", "RngState", "ShapeError",
    "SupportError", "SweepResult", "SweepRow", "ThinningConfig", "TrainConfig",
    "calibrate", "check_example", "fit_logistic",
    "fit_logistic_detailed", "fit_strong_thinning", "gamma_family", "gaussian_family",
    "gen_gaussian_sim", "gen_poisson_sim", "generate_pseudo_examples",
    "load_model",
    "naive_bayes_poisson_fit", "poisson_family", "predict", "render_sweep_svg",
    "run_alpha_sweep", "save_model", "thin_gamma", "thin_gaussian", "thin_poisson",
    "thin_wishart", "thinning_log_density", "wishart_family", "write_sweep_csv",
]


def test_public_api_is_pinned():
    public = sorted(
        name for name, value in vars(levyaug).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == sorted(PUBLIC_API)
