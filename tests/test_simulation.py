import concurrent.futures

import numpy as np
import pytest
from scipy import stats

from levyaug import (
    GaussianSimSpec,
    PoissonSimSpec,
    RngState,
    TrainConfig,
    gen_gaussian_sim,
    gen_poisson_sim,
    render_sweep_svg,
    run_alpha_sweep,
    write_sweep_csv,
)
from levyaug import simulation
from levyaug.simulation import _draw_atoms

from conftest import mean_close_3sigma

FAST_CFG = TrainConfig(ridge_lambda=(1.0, 0.1, 0.01))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gaussian_label_marginal():
    spec = GaussianSimSpec()
    train, _ = gen_gaussian_sim(spec, 10_000, RngState(61).spawn())
    ys = np.array([ex.y for ex in train])
    frac = (ys == 2).mean()
    assert abs(frac - 0.5) <= 3.0 * 0.5 / np.sqrt(len(ys))


def test_gaussian_atoms_zero_outside_signal_block():
    spec = GaussianSimSpec()
    atoms = _draw_atoms(spec, RngState(62).spawn())
    assert atoms.shape == (2, 10, 100)
    assert np.all(atoms[:, :, 20:] == 0.0)
    assert np.any(atoms[:, :, :20] != 0.0)


def test_gaussian_unit_noise_around_atom():
    spec = GaussianSimSpec(atoms_per_class=1)  # single atom per class pins mu | y
    g = RngState(63).spawn()
    atoms = _draw_atoms(spec, RngState(63).spawn())
    train, _ = gen_gaussian_sim(spec, 10_000, g)
    x1 = np.stack([ex.x for ex in train if ex.y == 1])
    resid = x1 - atoms[0, 0]
    per_coord_var = resid.var(axis=0, ddof=1)
    assert np.abs(per_coord_var.mean() - 1.0) < 0.05
    assert np.all(train.t == 1.0)


def test_gaussian_test_set_size_is_10n_capped():
    spec = GaussianSimSpec()
    _, test = gen_gaussian_sim(spec, 30, RngState(64).spawn())
    assert len(test) == 300
    _, test = gen_gaussian_sim(spec, 2000, RngState(64).spawn())
    assert len(test) == 10_000


def test_poisson_expected_total_count():
    spec = PoissonSimSpec()
    train, _ = gen_poisson_sim(spec, 1000, RngState(65).spawn())
    totals = np.array([ex.x.sum() for ex in train], dtype=float)
    assert abs(totals.mean() - 1000.0) / 1000.0 < 0.01
    assert np.all(train.t == 1000.0)


def test_poisson_class1_rates_match_normalization():
    spec = PoissonSimSpec()
    train, _ = gen_poisson_sim(spec, 4000, RngState(66).spawn())
    x1 = np.stack([ex.x for ex in train if ex.y == 1]).astype(float)
    base = 1000.0 / (7.0 * np.e + 493.0)
    # pooled blocks (componentwise 3-sigma over 500 coords would trip on
    # multiplicity): background rate and the e-times-elevated signal block
    assert mean_close_3sigma(x1[:, 7:].ravel(), base)
    assert mean_close_3sigma(x1[:, :7].ravel(), np.e * base)


def test_poisson_class2_signal_block_is_elevated():
    spec = PoissonSimSpec()
    train, _ = gen_poisson_sim(spec, 4000, RngState(67).spawn())
    x2 = np.stack([ex.x for ex in train if ex.y == 2]).astype(float)
    # tau > 0 always, so coordinates 8..14 run above the background block
    assert x2[:, 7:14].mean() > x2[:, 14:].mean()
    assert x2[:, :7].mean() == pytest.approx(x2[:, 14:].mean(), rel=0.05)


def test_poisson_counts_take_under_two_bytes_each_while_drawn():
    # The rows are drawn into a uint8 buffer; an int64 one would take 8
    # bytes per count.
    import tracemalloc

    tracemalloc.start()
    try:
        train, test = gen_poisson_sim(PoissonSimSpec(), 100, RngState(68).spawn())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train.x.dtype == test.x.dtype == np.uint8
    assert peak < 2 * (train.x.size + test.x.size)


class _ScriptedPoisson:
    """A generator whose ``poisson`` draws get one entry raised to a
    scripted count on the rows named, and which records every row drawn."""

    def __init__(self, rng, script):
        self._rng, self._script, self.rows = rng, script, []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def poisson(self, rates):
        row = self._rng.poisson(rates)
        if len(self.rows) in self._script:
            row[3] = self._script[len(self.rows)]
        self.rows.append(row)
        return row


@pytest.mark.parametrize("script, dtype", [
    ({}, np.uint8),
    ({5: 255}, np.uint8),
    ({5: 256}, np.uint16),
    ({2: 300, 7: 65535}, np.uint16),
    ({2: 300, 7: 65536}, np.uint32),
    ({4: 2**32}, np.int64),
])
def test_poisson_count_buffer_widens_only_past_its_type(script, dtype):
    g = _ScriptedPoisson(RngState(69).spawn(), script)
    train, test = gen_poisson_sim(PoissonSimSpec(d=20), 10, g)
    assert train.x.dtype == dtype and test.x.dtype == np.uint8
    assert np.array_equal(train.x, g.rows[:10]) and np.array_equal(test.x, g.rows[10:])


# ---------------------------------------------------------------------------
# sweep runner
# ---------------------------------------------------------------------------

def _tiny_gauss_sweep(seed=41, jobs=1):
    spec = GaussianSimSpec(d=12, n_signal=4)
    return run_alpha_sweep(
        spec,
        alphas=(0.0, 0.5, 1.0),
        n_grid=(24,),
        n_pseudo=4,
        replicates=3,
        seed=seed,
        train_cfg=FAST_CFG,
        jobs=jobs,
    )


def test_sweep_rows_cover_grid():
    res = _tiny_gauss_sweep()
    assert len(res.rows) == 9
    seen = {(r.n, r.alpha, r.replicate) for r in res.rows}
    assert len(seen) == 9
    assert all(0.0 <= r.test_error <= 1.0 for r in res.rows)
    assert not res.failures


def test_sweep_reproducible_and_schedule_independent():
    a = _tiny_gauss_sweep(jobs=1)
    b = _tiny_gauss_sweep(jobs=2)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.spec_id, ra.n, ra.alpha, ra.replicate) == (
            rb.spec_id, rb.n, rb.alpha, rb.replicate,
        )
        assert ra.test_error == rb.test_error
        assert ra.ridge_lambda == rb.ridge_lambda


def test_sweep_starts_no_more_workers_than_cells(monkeypatch):
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    spec = GaussianSimSpec(d=12, n_signal=4)
    res = run_alpha_sweep(
        spec, alphas=(0.0, 1.0), n_grid=(24,), replicates=1, seed=5,
        train_cfg=FAST_CFG, jobs=8,
    )
    assert started == [2]
    assert len(res.rows) == 2
    run_alpha_sweep(
        spec, alphas=(1.0,), n_grid=(24,), replicates=1, seed=5,
        train_cfg=FAST_CFG, jobs=8,
    )
    assert started == [2]  # a single cell runs in this process


def test_sweep_alpha_one_equals_direct_pipeline():
    import warnings

    from levyaug import calibrate, fit_logistic_detailed, gaussian_family
    from levyaug.logistic import predict_labels
    from levyaug.simulation import _generate
    from levyaug.thinning import ThinningConfig, generate_pseudo_examples

    spec = GaussianSimSpec(d=12, n_signal=4)
    res = _tiny_gauss_sweep()
    row = next(r for r in res.rows if r.alpha == 1.0 and r.replicate == 1)

    base = RngState(41)
    train, test = _generate(spec, 24, base.spawn(1, 24, 1))
    fam = gaussian_family(12)
    pseudo = generate_pseudo_examples(
        train, ThinningConfig(1.0, 1, base.substate(2, 24, 1, 10**9)), fam
    )
    model, report = fit_logistic_detailed(pseudo, FAST_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = calibrate(model, train)
    truth = np.array([ex.y for ex in test])
    err = float((predict_labels(model, test) != truth).mean())
    assert err == row.test_error
    assert report.chosen_lambda == row.ridge_lambda


def test_sweep_records_failed_cells_instead_of_dropping():
    # 2 origins cannot be split into 3 CV folds -> the cell fails but stays
    spec = GaussianSimSpec(d=6, n_signal=2)
    res = run_alpha_sweep(
        spec,
        alphas=(0.5,),
        n_grid=(2,),
        n_pseudo=2,
        replicates=1,
        seed=1,
        train_cfg=TrainConfig(ridge_lambda=(1.0, 0.1), n_folds=3),
    )
    assert len(res.rows) == 1
    assert np.isnan(res.rows[0].test_error)
    assert len(res.failures) == 1


@pytest.mark.parametrize(
    "grid", [dict(replicates=0), dict(alphas=()), dict(n_grid=())]
)
def test_sweep_without_cells_is_a_parameter_error(grid):
    from levyaug import ParameterError

    args = dict(alphas=(1.0,), n_grid=(24,), replicates=1) | grid
    with pytest.raises(ParameterError, match="no cells"):
        run_alpha_sweep(GaussianSimSpec(d=12, n_signal=4), seed=5, train_cfg=FAST_CFG, **args)


@pytest.mark.parametrize(
    "setting, match",
    [(dict(n_pseudo=0), "n_pseudo"), (dict(jobs=0), "jobs"), (dict(jobs=-3), "jobs"),
     (dict(n_grid=(24, 1)), "training size")],
)
def test_bad_sweep_setting_is_a_parameter_error_before_any_cell_runs(monkeypatch, setting, match):
    from levyaug import ParameterError

    ran = []
    monkeypatch.setattr(simulation, "_run_cell", ran.append)
    args = dict(alphas=(0.5,), n_grid=(24,), replicates=1) | setting
    with pytest.raises(ParameterError, match=match):
        run_alpha_sweep(GaussianSimSpec(d=12, n_signal=4), seed=5, train_cfg=FAST_CFG, **args)
    assert ran == []


def test_standardized_fit_scales_columns_and_folds_the_scale_back(rng):
    from levyaug import PseudoBatch, fit_logistic_detailed

    x = rng.standard_normal((40, 3)) * np.array([0.5, 3.0, 1.0])
    x[:, 2] = 2.0  # a zero-variance column is left unscaled (sd 1)
    y = 1 + (x[:, 0] + 0.5 * rng.standard_normal(40) > 0)
    pseudo = PseudoBatch(x_tilde=x, y=y, origin_id=np.arange(40), alpha=1.0, t_tilde=1.0)
    model, report = simulation._standardized_fit(pseudo, FAST_CFG)
    sd = np.array([x[:, 0].std(ddof=1), x[:, 1].std(ddof=1), 1.0])
    scaled, scaled_report = fit_logistic_detailed(
        PseudoBatch(x_tilde=x / sd, y=y, origin_id=np.arange(40), alpha=1.0, t_tilde=1.0),
        FAST_CFG,
    )
    assert report.chosen_lambda == scaled_report.chosen_lambda
    assert np.allclose(x @ model.beta, (x / sd) @ scaled.beta, rtol=1e-12, atol=1e-12)
    assert np.allclose(model.beta[2], scaled.beta[2], rtol=1e-12, atol=0.0)


def test_monotone_data_benefit_at_alpha_one():
    spec = GaussianSimSpec(d=12, n_signal=4)
    res = run_alpha_sweep(
        spec,
        alphas=(1.0,),
        n_grid=(20, 200),
        n_pseudo=1,
        replicates=8,
        seed=9,
        train_cfg=FAST_CFG,
    )
    errs = {}
    for r in res.rows:
        errs.setdefault(r.n, []).append(r.test_error)
    small, big = np.array(errs[20]), np.array(errs[200])
    # more data must not significantly increase the error
    if big.mean() > small.mean():
        p = stats.ttest_rel(big, small, alternative="greater").pvalue
        assert p > 0.05
    else:
        assert big.mean() <= small.mean()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def test_csv_header_and_timing_modes(tmp_path):
    res = _tiny_gauss_sweep()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_sweep_csv(res, p1, timing="zero")
    write_sweep_csv(res, p2, timing="zero")
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "spec,n,alpha,replicate,test_error,lambda,wall_ms"
    assert len(lines) == 10
    assert all(line.endswith(",0") for line in lines[1:])
    write_sweep_csv(res, p1, timing="measured")
    measured = p1.read_text().splitlines()
    assert any(not line.endswith(",0") for line in measured[1:])


def test_manifest_contents():
    res = _tiny_gauss_sweep()
    m = res.manifest()
    assert (m["seed"], m["n_grid"], m["replicates"]) == (41, [24], 3)
    assert m["spec"] == {"type": "GaussianSimSpec", "d": 12, "n_signal": 4,
                         "atoms_per_class": 10, "atom_scale": 1.1, "t_dof": 4.0}
    assert m["alphas"] == [0.0, 0.5, 1.0]
    assert m["failures"] == []


def test_svg_render(tmp_path):
    res = _tiny_gauss_sweep()
    out = tmp_path / "sweep.svg"
    render_sweep_svg(res, out)
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "n=24" in text


def test_svg_render_of_an_all_zero_error_sweep(tmp_path):
    row = simulation.SweepRow(spec_id="gauss", n=24, alpha=0.5, replicate=0, test_error=0.0,
                              ridge_lambda=0.1, wall_ms=1.0)
    res = simulation.SweepResult(rows=(row,), spec=GaussianSimSpec(), seed=0, alphas=(0.5,),
                                 n_grid=(24,), replicates=1, n_pseudo=1)
    out = tmp_path / "sweep.svg"
    render_sweep_svg(res, out)
    assert 'cy="384.00"' in out.read_text()  # the zero error sits on the x axis
