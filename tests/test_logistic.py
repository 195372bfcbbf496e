import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array, issparse
from scipy.special import logsumexp

from levyaug import (
    DataFormatError,
    DegenerateDataError,
    Example,
    FeatureMap,
    LogisticModel,
    OptimizationError,
    ParameterError,
    PseudoBatch,
    RngState,
    ShapeError,
    TrainConfig,
    calibrate,
    fit_logistic,
    fit_logistic_detailed,
    load_model,
    predict,
    save_model,
)
from levyaug import logistic
from levyaug.families import gaussian_family
from levyaug.logistic import (
    _batch_loss_grad,
    center_columns,
    default_lambda_grid,
    grouped_fold_assignment,
    mean_log_loss,
    predict_labels,
)

from conftest import finite_diff_gradient


def _batch(X, Y, origins=None):
    """Unthinned pseudo-examples (alpha = t = 1), one origin per row by default."""
    X = np.asarray(X, dtype=float)
    origins = np.arange(len(X)) if origins is None else origins
    return PseudoBatch(x_tilde=X, y=Y, origin_id=origins, alpha=1.0, t_tilde=1.0)


def _random_problem(rng, n=40, p=3, k=3, density=1.0):
    X = rng.standard_normal((n, p)) * (rng.random((n, p)) < density)
    Y = rng.integers(1, k + 1, size=n)
    while len(np.unique(Y)) < k:
        Y = rng.integers(1, k + 1, size=n)
    return _batch(X, Y)


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

# The fits' own objective, ``_batch_loss_grad``, on the one-row design
# ``x[None]`` at lam = 0 is the log-loss of (x, y) and its gradient.

def test_loss_at_zero_is_log_k():
    x = np.array([[1.0, -2.0, 0.5, 3.0]])
    for k in (2, 3, 5):
        loss, _ = _batch_loss_grad(np.zeros((4, k)), x, np.array([2]), 0.0, x.T)
        assert loss == pytest.approx(math.log(k))


def test_labels_outside_one_to_k_are_shape_errors():
    beta = np.zeros((2, 3))
    x = np.array([1.0, -1.0])
    with pytest.raises(ShapeError):
        mean_log_loss(LogisticModel(beta=beta), [Example(x=x, y=4, t=1.0)])


def test_loss_binary_examples():
    beta = np.array([[1.0, -1.0]])
    loss = lambda x: _batch_loss_grad(beta, x, np.array([1]), 0.0, x.T)[0]
    assert loss(np.array([[0.0]])) == pytest.approx(math.log(2.0))
    assert loss(np.array([[1.0]])) == pytest.approx(math.log(1.0 + math.exp(-2.0)))


def test_gradient_at_zero_and_zero_input(rng):
    x = rng.standard_normal(3)
    k, y = 4, 2
    grad = lambda b, x: _batch_loss_grad(b, x[None], np.array([y]), 0.0, x[:, None])[1]
    at_zero = grad(np.zeros((3, k)), x).reshape(3, k)
    for j in range(k):
        expect = (1.0 / k - (1.0 if j + 1 == y else 0.0)) * x
        assert np.allclose(at_zero[:, j], expect)
    assert np.allclose(grad(rng.standard_normal((3, k)), np.zeros(3)), 0.0)


def test_gradient_matches_finite_differences(rng):
    for _ in range(100):
        p, k = rng.integers(1, 4), rng.integers(2, 5)
        beta = rng.standard_normal((p, k))
        x = rng.standard_normal(p)
        y = int(rng.integers(1, k + 1))
        loss = lambda b: _batch_loss_grad(b, x[None], np.array([y]), 0.0, x[:, None])
        grad = loss(beta)[1].reshape(p, k)
        fd = finite_diff_gradient(lambda b: loss(b)[0], beta)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(grad - fd).max() / denom < 1e-5


def test_loss_is_convex_midpoint(rng):
    for _ in range(100):
        p, k = 3, 3
        b1 = rng.standard_normal((p, k))
        b2 = rng.standard_normal((p, k))
        x = rng.standard_normal(p)
        y = int(rng.integers(1, k + 1))
        loss = lambda b: _batch_loss_grad(b, x[None], np.array([y]), 0.0, x[:, None])[0]
        mid = loss(0.5 * (b1 + b2))
        assert mid <= 0.5 * (loss(b1) + loss(b2)) + 1e-9


def test_gauge_invariance_of_loss_and_probs(rng):
    beta = rng.standard_normal((3, 4))
    shift = rng.standard_normal(3)
    shifted = beta + shift[:, None]
    x = rng.standard_normal(3)
    y = 3
    loss = lambda b: _batch_loss_grad(b, x[None], np.array([y]), 0.0, x[:, None])[0]
    assert loss(beta) == pytest.approx(loss(shifted), abs=1e-10)
    s1, s2 = x @ beta, x @ shifted
    p1 = np.exp(s1 - logsumexp(s1))
    p2 = np.exp(s2 - logsumexp(s2))
    assert np.allclose(p1, p2, atol=1e-10)
    assert np.argmax(s1) == np.argmax(s2)


def test_logsumexp_matches_scipy_on_extreme_rows():
    a = np.array([
        [0.0, -np.inf, 1.5, -2.0],
        [-np.inf, -np.inf, -np.inf, -np.inf],
        [3.0, np.inf, -np.inf, 0.0],
        [1e300, 1e300, -1e300, 0.0],
        [-1e300, -1e300, -3e300, -1e300],
        [700.0, 710.0, -745.0, 0.5],
    ])
    with np.errstate(all="raise", under="ignore"):
        by_row = logistic._logsumexp(a, axis=1)
        whole = [logistic._logsumexp(a), logistic._logsumexp(a[[0, 3, 5]])]
        rows = [logistic._logsumexp(row) for row in a]
    np.testing.assert_allclose(by_row, logsumexp(a, axis=1), rtol=1e-15)
    np.testing.assert_allclose(whole, [logsumexp(a), logsumexp(a[[0, 3, 5]])], rtol=1e-15)
    np.testing.assert_allclose(rows, [logsumexp(row) for row in a], rtol=1e-15)
    assert by_row[1] == -np.inf and by_row[2] == np.inf


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_separable_toy_beats_coin_flip():
    pseudo = _batch([[1.0, 0.2], [0.9, -0.1], [-1.1, 0.1], [-0.8, -0.2]], [1, 1, 2, 2])
    model, report = fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=1.0))
    X = pseudo.x_tilde
    mean_loss, _ = _batch_loss_grad(model.beta, X, pseudo.y, 0.0, X.T)
    assert mean_loss < math.log(2.0)
    assert report.grad_max_norm <= 1e-7
    assert np.abs(model.beta.sum(axis=1)).max() < 1e-8


def test_fit_invariant_to_duplicating_the_dataset(rng):
    pseudo = _random_problem(rng, n=30, p=3, k=3)
    cfg = TrainConfig(ridge_lambda=0.5)
    b1 = fit_logistic(pseudo, cfg).beta
    twice = _batch(
        np.concatenate([pseudo.x_tilde] * 2),
        np.tile(pseudo.y, 2),
        np.tile(pseudo.origin_id, 2),
    )
    b2 = fit_logistic(twice, cfg).beta
    assert np.allclose(b1, b2, atol=1e-6)


def test_fit_requires_every_class():
    for pseudo in (_batch([[1.0], [2.0]], [1, 3]), _batch(np.zeros((0, 1)), [])):
        with pytest.raises(DegenerateDataError):
            fit_logistic(pseudo, TrainConfig(ridge_lambda=0.1))


def test_nan_gradient_fails_the_convergence_check():
    pseudo = _batch([[1.0], [np.nan], [-0.5], [-1.0]], [1, 1, 2, 2])
    with pytest.raises(OptimizationError), np.errstate(invalid="ignore"):
        fit_logistic(pseudo, TrainConfig(ridge_lambda=0.1))
    with pytest.raises(OptimizationError):  # the solve the Poisson limit fit uses too
        logistic._minimize(
            lambda v: (np.nan, np.full_like(v, np.nan)), np.zeros(2), 1e-7, 10, "NaN objective"
        )


def test_fit_nonconvergence_raises_with_grad_norm(rng):
    pseudo = _random_problem(rng, n=60, p=4, k=3)
    with pytest.raises(OptimizationError) as err:
        fit_logistic(pseudo, TrainConfig(ridge_lambda=1e-4, max_iter=1))
    assert err.value.grad_norm is not None and err.value.grad_norm > 1e-7


def test_nonconvergence_message_names_the_iterations_run(rng, monkeypatch):
    # tol=1e-18 is out of floating-point reach: L-BFGS-B stops early on
    # "relative reduction of f", long before max_iter.
    results = []
    minimize = logistic.minimize

    def recording_minimize(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(logistic, "minimize", recording_minimize)
    pseudo = _random_problem(rng, n=60, p=4, k=3)
    with pytest.raises(OptimizationError) as err:
        fit_logistic(pseudo, TrainConfig(ridge_lambda=1e-4, tol=1e-18, max_iter=500))
    res = results[-1]
    assert res.nit < 500
    message = str(err.value)
    assert f"after {res.nit} iterations" in message
    assert res.message in message


def test_batch_hessian_matches_finite_differences(rng):
    X = rng.standard_normal((30, 3))
    Y = rng.integers(1, 4, size=30)
    beta, lam, h = rng.standard_normal((3, 3)), 0.1, 1e-6
    hess = logistic._batch_hessian(beta, X, lam)
    columns = []
    for i in range(beta.size):
        step = np.zeros(beta.size)
        step[i] = h
        step = step.reshape(beta.shape)
        hi = _batch_loss_grad(beta + step, X, Y, lam, X.T)[1]
        lo = _batch_loss_grad(beta - step, X, Y, lam, X.T)[1]
        columns.append((hi - lo).ravel() / (2 * h))
    assert np.allclose(hess, np.array(columns).T, atol=1e-6)


def _two_class_problem(rng, n=60, p=4):
    X = rng.standard_normal((n, p))
    Y = np.where(X @ rng.standard_normal(p) + rng.standard_normal(n) > 0, 2, 1)
    return X, Y


def test_binary_fit_meets_tol_on_the_multiclass_gradient(rng):
    X, Y = _two_class_problem(rng)
    lam, tol = 0.03, 1e-7
    model, report = fit_logistic_detailed(_batch(X, Y), TrainConfig(ridge_lambda=lam, tol=tol))
    grad = _batch_loss_grad(model.beta, X, Y, lam, X.T)[1]
    assert np.abs(grad).max() <= tol
    assert np.abs(grad).max() == pytest.approx(report.grad_max_norm, abs=1e-15)


def test_binary_fit_matches_a_k_column_solve(rng):
    X, Y = _two_class_problem(rng)
    lam, tol = 0.03, 1e-7
    beta = fit_logistic(_batch(X, Y), TrainConfig(ridge_lambda=lam, tol=tol)).beta
    full, _ = logistic._minimize(
        lambda b: _batch_loss_grad(b, X, Y, lam, X.T), np.zeros(8), tol, 500, "K=2"
    )
    full = full.reshape(4, 2)
    assert np.abs(beta - full).max() <= 1e-6 * np.abs(full).max()


def _check_newton_finish(rng, monkeypatch, k, hessian, density):
    # tol=1e-14 is below where L-BFGS-B stops on "relative reduction of f"
    # (gradient max-norm about 1e-12 here); a second minimize call, of
    # _newton, must finish.  A two-class design runs L-BFGS-B, and so the
    # finish, only when min(n, p) is above the Newton path's threshold.
    results, hessians = [], []
    minimize, exact = logistic.minimize, getattr(logistic, hessian)

    def recording_minimize(*args, **kwargs):
        results.append((kwargs["method"], minimize(*args, **kwargs)))
        return results[-1][1]

    def recording_hessian(*args):
        hessians.append(args)
        return exact(*args)

    monkeypatch.setattr(logistic, "minimize", recording_minimize)
    monkeypatch.setattr(logistic, hessian, recording_hessian)
    wide = logistic._NEWTON_MAX_DIM + 1
    n, p = (2 * wide, wide) if k == 2 else (60, 4)
    pseudo = _random_problem(rng, n=n, p=p, k=k, density=density)
    report = fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=0.03, tol=1e-14))[1]
    assert [method for method, _ in results] == ["L-BFGS-B", logistic._newton]
    assert np.abs(results[0][1].jac).max() > 1e-14
    assert hessians and report.grad_max_norm <= 1e-14
    return [args[1] for args in hessians]


@pytest.mark.parametrize("k, hessian", [(2, "_binary_hessian"), (3, "_batch_hessian")])
def test_newton_finish_reaches_tol_where_lbfgs_stops_short(rng, monkeypatch, k, hessian):
    _check_newton_finish(rng, monkeypatch, k, hessian, density=1.0)


@pytest.mark.parametrize("k, hessian", [(2, "_binary_hessian"), (3, "_batch_hessian")])
def test_newton_finish_reaches_tol_on_a_csr_design(rng, monkeypatch, k, hessian):
    designs = _check_newton_finish(rng, monkeypatch, k, hessian, density=0.2)
    assert all(issparse(X) for X in designs)


def _recording_solver_methods(monkeypatch):
    """Make every ``logistic.minimize`` call record the method it ran."""
    methods = []
    minimize = logistic.minimize

    def recording_minimize(*args, **kwargs):
        methods.append(kwargs["method"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(logistic, "minimize", recording_minimize)
    return methods


def test_woodbury_step_matches_the_dense_hessian_step(rng):
    X, _ = _two_class_problem(rng, n=20, p=60)
    w, g, lam = 0.3 * rng.standard_normal(60), rng.standard_normal(60), 0.05
    woodbury = logistic._newton_step(logistic._binary_hessian, X, lam, X @ X.T)(w, g)
    dense = np.linalg.solve(logistic._binary_hessian(w, X, lam), g)
    assert np.abs(woodbury - dense).max() <= 1e-10 * np.abs(dense).max()


@pytest.mark.parametrize("n, p", [(20, 60), (80, 6)])
def test_newton_and_lbfgs_fits_agree_to_tolerance(rng, monkeypatch, n, p):
    X, Y = _two_class_problem(rng, n=n, p=p)
    lam, tol = 0.1, 1e-7
    cfg = TrainConfig(ridge_lambda=lam, tol=tol)
    methods = _recording_solver_methods(monkeypatch)
    newton = fit_logistic(_batch(X, Y), cfg).beta
    monkeypatch.setattr(logistic, "_NEWTON_MAX_DIM", 0)
    lbfgs = fit_logistic(_batch(X, Y), cfg).beta
    assert methods == [logistic._newton, "L-BFGS-B"]
    # Both gradients are within tol in max-norm and the objective is
    # lam/2-strongly convex in w = 2 beta_2.
    bound = 2 * np.sqrt(p) * tol / (lam / 2)
    assert np.linalg.norm(2 * (newton - lbfgs)[:, 1]) <= bound


def test_newton_iteration_limit_names_the_newton_iterations(rng):
    X, Y = _two_class_problem(rng, n=20, p=60)
    with pytest.raises(OptimizationError) as err:
        fit_logistic(_batch(X, Y), TrainConfig(ridge_lambda=0.01, max_iter=1))
    assert "Newton stopped after 1 iterations (iteration limit reached)" in str(err.value)
    assert err.value.grad_norm > 1e-7


def test_newton_halves_an_overshooting_step_and_stops_on_an_ascent_step(rng, monkeypatch):
    X, Y = _two_class_problem(rng, n=20, p=60)
    sign, lam, tol = 2.0 * Y - 3.0, 0.1, 1e-7
    exact = logistic._newton_step(logistic._binary_hessian, X, lam, X @ X.T)

    def solve(step):
        return logistic.minimize(
            lambda w: logistic._binary_loss_grad(w, X, sign, lam, X.T), np.zeros(60),
            jac=True, method=logistic._newton, options=dict(step=step, maxiter=100, gtol=tol),
        )

    # Eight times the Newton step overshoots, so the iterations halve t,
    # evaluating f more than once, before the Armijo test accepts a step.
    res = solve(lambda w, g: 8.0 * exact(w, g))
    assert res.success and np.abs(res.jac).max() <= tol
    assert res.nfev >= 1 + 2 * res.nit
    newton = solve(exact)
    assert newton.nfev == 1 + newton.nit  # the full step, taken every time
    assert np.linalg.norm(res.x - newton.x) <= 2 * np.sqrt(60) * tol / (lam / 2)

    res = solve(lambda w, g: -exact(w, g))
    assert res.nit == 0 and res.nfev == 1 + logistic._BACKTRACKS
    assert res.message == "line search found no decrease" and not res.success
    newton_step = logistic._newton_step
    monkeypatch.setattr(
        logistic, "_newton_step", lambda *args: lambda c, g: -newton_step(*args)(c, g)
    )
    with pytest.raises(OptimizationError, match="line search found no decrease"):
        fit_logistic(_batch(X, Y), TrainConfig(ridge_lambda=lam, tol=tol))


def test_unpenalized_fit_with_an_all_zero_column_meets_tol(rng):
    # lam = 0 runs L-BFGS-B; the Hessian, singular in the zero column, is
    # solved by least squares.
    X, Y = _two_class_problem(rng, n=80, p=4)
    Y = np.where(rng.random(80) < 0.3, 3 - Y, Y)  # flipped labels: not separable
    X[:, 2] = 0.0
    model, report = fit_logistic_detailed(_batch(X, Y), TrainConfig(ridge_lambda=0.0))
    assert report.chosen_lambda == 0.0 and report.grad_max_norm <= 1e-7
    assert np.all(model.beta[2] == 0.0)
    grad = _batch_loss_grad(model.beta, X, Y, 0.0, X.T)[1]
    assert np.abs(grad).max() <= 1e-7

    w, g = rng.standard_normal(4), rng.standard_normal(4)
    hess = logistic._binary_hessian(w, X, 0.0)
    assert np.linalg.matrix_rank(hess) == 3
    step = logistic._newton_step(logistic._binary_hessian, X, 0.0)(w, g)
    assert np.array_equal(step, np.linalg.lstsq(hess, g, rcond=None)[0])


@pytest.mark.parametrize("n, p", [(20, 60), (80, 6)])
def test_newton_path_fails_on_a_nan_design(rng, monkeypatch, n, p):
    X, Y = _two_class_problem(rng, n=n, p=p)
    X[3, 2] = np.nan
    methods = _recording_solver_methods(monkeypatch)
    with pytest.raises(OptimizationError), np.errstate(invalid="ignore"):
        fit_logistic(_batch(X, Y), TrainConfig(ridge_lambda=0.1))
    assert methods == [logistic._newton]


def test_small_two_class_fit_makes_one_solve_per_lambda(rng, monkeypatch):
    X, Y = _two_class_problem(rng, n=40, p=60)
    grid, folds = (1.0, 0.1, 0.01), 2
    methods = _recording_solver_methods(monkeypatch)
    report = fit_logistic_detailed(
        _batch(X, Y), TrainConfig(ridge_lambda=grid, n_folds=folds)
    )[1]
    refit = sum(lam >= report.chosen_lambda for lam in grid)
    assert methods == [logistic._newton] * (folds * len(grid) + refit)


def _sparse_design(rng, n, p, density=0.2):
    """A two-class design with about ``density`` nonzeros, so a fit runs on
    CSC, and the same rows as a dense array."""
    X, Y = _two_class_problem(rng, n=n, p=p)
    X *= rng.random((n, p)) < density
    return logistic._csc(X, np.count_nonzero(X)), X, Y


def test_csr_loss_gradient_and_grid_equal_dense(rng):
    S, X, Y = _sparse_design(rng, 50, 30)
    sign, lam = 2.0 * Y - 3.0, 0.1
    w, beta = rng.standard_normal(30), rng.standard_normal((30, 3))
    Y3 = rng.integers(1, 4, size=50)
    pairs = [
        (logistic._binary_loss_grad(w, S, sign, lam, S.T),
         logistic._binary_loss_grad(w, X, sign, lam, X.T)),
        (_batch_loss_grad(beta, S, Y3, lam, S.T),
         _batch_loss_grad(beta, X, Y3, lam, X.T)),
    ]
    for (value_s, grad_s), (value, grad) in pairs:
        assert value_s == pytest.approx(value, rel=1e-12)
        assert np.abs(grad_s - grad).max() <= 1e-12 * np.abs(grad).max()
    assert default_lambda_grid(S, Y3) == pytest.approx(default_lambda_grid(X, Y3), rel=1e-12)
    hessians = [
        (logistic._binary_hessian(w, S, lam), logistic._binary_hessian(w, X, lam)),
        (logistic._batch_hessian(beta, S, lam), logistic._batch_hessian(beta, X, lam)),
    ]
    for hess_s, hess in hessians:
        assert np.abs(hess_s - hess).max() <= 1e-12 * np.abs(hess).max()


def test_masked_objectives_equal_those_of_the_sliced_rows_bit_for_bit(rng):
    S, _, Y = _sparse_design(rng, 80, 30)
    rows = rng.random(80) < 0.7
    sliced = csr_array(S)[rows]  # a fold as its own CSR copy
    sign, lam = 2.0 * Y[rows] - 3.0, 0.1
    w, beta = rng.standard_normal(30), rng.standard_normal((30, 3))
    Y3 = rng.integers(1, 4, size=80)
    pairs = [
        (logistic._binary_loss_grad(w, S, sign, lam, S.T, rows),
         logistic._binary_loss_grad(w, sliced, sign, lam, sliced.T.tocsr())),
        (_batch_loss_grad(beta, S, Y3[rows], lam, S.T, rows),
         _batch_loss_grad(beta, sliced, Y3[rows], lam, sliced.T.tocsr())),
    ]
    for (value_m, grad_m), (value, grad) in pairs:
        assert value_m == value and np.array_equal(grad_m, grad)
    held = csr_array(S)[~rows]
    assert logistic._heldout_metrics(beta, S, Y3, ~rows) == logistic._heldout_metrics(
        beta, held, Y3[~rows], np.ones(held.shape[0], dtype=bool)
    )


def test_design_is_csr_below_the_density_threshold(rng):
    n, p = 20, 10
    below = math.ceil(logistic._CSR_MAX_DENSITY * n * p) - 1
    for nnz, csr in ((below, True), (below + 1, False)):
        x = np.zeros(n * p, dtype=np.int64)
        x[rng.choice(n * p, nnz, replace=False)] = rng.integers(1, 7, size=nnz)
        x = x.reshape(n, p)
        X = logistic._design(_batch(x, np.arange(n) % 2 + 1))[0]
        assert issparse(X) == csr
        assert X.dtype == np.float64 and np.array_equal(X.toarray() if csr else X, x)
        if csr:
            assert X.format == "csc"
            assert X.indices.dtype == X.indptr.dtype == np.int32


def test_design_of_compact_counts_equals_that_of_int64_counts(rng):
    n, p = 20, 10
    for density, csr in ((0.2, True), (0.9, False)):
        x = rng.integers(1, 300, size=(n, p)) * (rng.random((n, p)) < density)
        compact, wide = (
            logistic._design(PseudoBatch(
                x_tilde=x.astype(dtype), y=np.arange(n) % 2 + 1, origin_id=np.arange(n),
                alpha=1.0, t_tilde=1.0,
            ))[0]
            for dtype in (np.uint16, np.int64)
        )
        assert issparse(compact) == issparse(wide) == csr
        pairs = [(compact, wide)]
        if csr:
            pairs = [(compact.data, wide.data), (compact.indices, wide.indices),
                     (compact.indptr, wide.indptr)]
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert compact.dtype == np.float64


def _fits_by_format(monkeypatch, pseudo, cfg):
    """The fit on its CSR design, then on the same rows forced dense."""
    formats, fit_path = [], logistic._fit_path

    def recording_fit_path(X, *args):
        formats.append(issparse(X))
        return fit_path(X, *args)

    monkeypatch.setattr(logistic, "_fit_path", recording_fit_path)
    csr = fit_logistic(pseudo, cfg).beta
    monkeypatch.setattr(logistic, "_CSR_MAX_DENSITY", 0.0)
    dense = fit_logistic(pseudo, cfg).beta
    assert formats == [True, False]
    return csr, dense


@pytest.mark.parametrize("n, p, k", [(600, 300, 2), (40, 120, 2), (90, 12, 3)])
def test_csr_and_dense_fits_agree_to_tolerance(rng, monkeypatch, n, p, k):
    # (600, 300) runs L-BFGS-B, (40, 120) Newton through the Woodbury
    # identity, (90, 12) the K-column L-BFGS-B path.
    lam, tol = 0.1, 1e-7
    pseudo = _random_problem(rng, n=n, p=p, k=k, density=0.2)
    methods = _recording_solver_methods(monkeypatch)
    csr, dense = _fits_by_format(monkeypatch, pseudo, TrainConfig(ridge_lambda=lam, tol=tol))
    newton = k == 2 and min(n, p) <= logistic._NEWTON_MAX_DIM
    assert methods == 2 * [logistic._newton if newton else "L-BFGS-B"]
    # Both gradients are within tol in max-norm.  The objective is
    # lam/2-strongly convex in w = 2 beta_2 for K = 2, and lam-strongly
    # convex in beta for K = 3.
    if k == 2:
        assert np.linalg.norm(2 * (csr - dense)[:, 1]) <= 2 * np.sqrt(p) * tol / (lam / 2)
    else:
        assert np.linalg.norm(csr - dense) <= 2 * np.sqrt(p * k) * tol / lam


def test_small_csr_two_class_fit_makes_one_solve_per_lambda(rng, monkeypatch):
    _, X, Y = _sparse_design(rng, 40, 60)
    assert issparse(logistic._design(_batch(X, Y))[0])
    grid, folds = (1.0, 0.1, 0.01), 2
    methods = _recording_solver_methods(monkeypatch)
    report = fit_logistic_detailed(_batch(X, Y), TrainConfig(ridge_lambda=grid, n_folds=folds))[1]
    refit = sum(lam >= report.chosen_lambda for lam in grid)
    assert methods == [logistic._newton] * (folds * len(grid) + refit)


def test_binary_hessian_matches_finite_differences(rng):
    X, Y = _two_class_problem(rng, n=30, p=3)
    sign = 2.0 * Y - 3.0
    w, lam, h = rng.standard_normal(3), 0.1, 1e-6
    columns = []
    for step in h * np.eye(3):
        hi = logistic._binary_loss_grad(w + step, X, sign, lam, X.T)[1]
        lo = logistic._binary_loss_grad(w - step, X, sign, lam, X.T)[1]
        columns.append((hi - lo) / (2 * h))
    assert np.allclose(logistic._binary_hessian(w, X, lam), np.array(columns).T, atol=1e-6)


def test_grouped_folds_partition_origins():
    groups = np.repeat(np.arange(10), 5)  # 10 origins x B=5
    folds = grouped_fold_assignment(groups, 5)
    for origin in range(10):
        fold_set = set(folds[groups == origin].tolist())
        assert len(fold_set) == 1
    for f in range(5):
        in_f = set(groups[folds == f].tolist())
        out_f = set(groups[folds != f].tolist())
        assert not (in_f & out_f)


def test_cv_selects_from_grid_and_reports(rng):
    base = rng.standard_normal((20, 2))
    rows, labels, origins = [], [], []
    for i, x in enumerate(base):
        y = 1 if x[0] + 0.3 * rng.standard_normal() > 0 else 2
        for b in range(4):
            rows.append(x + 0.1 * rng.standard_normal(2))
            labels.append(y)
            origins.append(i)
    pseudo = _batch(rows, labels, origins)
    grid = (1.0, 0.1, 0.01)
    model, report = fit_logistic_detailed(
        pseudo, TrainConfig(ridge_lambda=grid, n_folds=4)
    )
    assert report.chosen_lambda in grid
    assert len(report.cv_table) == 3
    assert all(len(row) == 3 for row in report.cv_table)
    assert model.beta.shape == (2, 2)


def _noisy_problem(rng, n, p, k, density=1.0, signal=0.3):
    """Labels drawn from a random softmax model, two rows per origin: on a
    long grid the held-out loss has its minimum inside the grid."""
    X = rng.standard_normal((n, p)) * (rng.random((n, p)) < density)
    scores = X @ (signal * rng.standard_normal((p, k)))
    prob = np.exp(scores - scores.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    Y = (prob.cumsum(axis=1) < rng.random((n, 1))).sum(axis=1) + 1
    return _batch(X, Y, np.arange(n) // 2)


def _full_grid_cv(pseudo, cfg):
    """The reference: every fold solves the whole grid as one warm-started
    :func:`_fit_path` on its own copy of the fold's rows (CSR for a sparse
    design) and is scored on a copy of the held-out rows; the mean held-out
    (loss, error) per lambda."""
    X, Y, groups, _ = logistic._design(pseudo)
    X = X if isinstance(X, np.ndarray) else csr_array(X)
    folds = grouped_fold_assignment(groups, cfg.n_folds)
    scores = np.zeros((len(cfg.ridge_lambda), 2, cfg.n_folds))
    for f in range(cfg.n_folds):
        fit, held = folds != f, folds == f
        path, _ = logistic._fit_path(X[fit], Y[fit], cfg.ridge_lambda, cfg.tol, cfg.max_iter)
        every = np.ones(np.count_nonzero(held), dtype=bool)
        for j, (beta, _) in enumerate(path):
            scores[j, :, f] = logistic._heldout_metrics(beta, X[held], Y[held], every)
    return scores.mean(axis=2)


def _expected_stop(losses):
    """The last index the stop rule solves, applied to a full loss column."""
    best, since_best = np.inf, 0
    for j, loss in enumerate(losses):
        best, since_best = (loss, 0) if loss < best else (best, since_best + 1)
        if since_best == logistic._CV_PATIENCE:
            return j
    return len(losses) - 1


def _counting_solves(monkeypatch):
    """Make every ``logistic._minimize`` call (one lambda's solve) count."""
    solves, minimize = [], logistic._minimize

    def counting_minimize(*args, **kwargs):
        solves.append(args[4])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(logistic, "_minimize", counting_minimize)
    return solves


@pytest.mark.parametrize("n, p, k, density", [
    (60, 12, 2, 1.0),   # Newton on the p x p Hessian
    (40, 60, 2, 1.0),   # Newton through the Woodbury identity
    (60, 12, 3, 1.0),   # L-BFGS-B in beta
    (400, 300, 2, 0.2),  # L-BFGS-B on a CSR design
])
def test_cv_stops_once_the_heldout_loss_stops_improving(rng, monkeypatch, n, p, k, density):
    pseudo = _noisy_problem(rng, n, p, k, density)
    grid = tuple(np.geomspace(10.0, 1e-3, 12).tolist())
    cfg = TrainConfig(ridge_lambda=grid, n_folds=4)
    solves = _counting_solves(monkeypatch)
    report = fit_logistic_detailed(pseudo, cfg)[1]
    monkeypatch.undo()
    reference = _full_grid_cv(pseudo, cfg)
    stop = _expected_stop(reference[:, 0])
    assert stop < len(grid) - 1  # the case under test: the path stopped early

    table = np.array(report.cv_table)
    assert table.shape == (len(grid), 3) and np.array_equal(table[:, 0], grid)
    assert np.array_equal(table[: stop + 1, 1:], reference[: stop + 1])
    assert np.isnan(table[stop + 1 :, 1:]).all()
    best = int(np.argmin(table[: stop + 1, 1]))
    assert report.chosen_lambda == grid[best] and stop == best + logistic._CV_PATIENCE
    refit = best + 1
    assert len(solves) == cfg.n_folds * (stop + 1) + refit


def test_cv_solves_the_whole_grid_while_the_heldout_loss_falls(rng):
    pseudo = _noisy_problem(rng, 200, 3, 2, signal=3.0)
    grid = tuple(np.geomspace(10.0, 0.1, 12).tolist())
    report = fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=grid, n_folds=4))[1]
    losses = [loss for _, loss, _ in report.cv_table]
    assert np.all(np.diff(losses) < 0)
    assert report.chosen_lambda == grid[-1]


def test_cv_never_stops_on_a_grid_of_three(rng):
    # The loss rises from the first lambda, so a longer grid stops at its
    # fourth value; three values are always all solved.
    pseudo = _noisy_problem(rng, 60, 12, 2, signal=0.0)
    grid = (10.0, 0.1, 1e-3, 1e-4, 1e-5)
    long = fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=grid, n_folds=4))[1]
    assert np.all(np.diff([loss for _, loss, _ in long.cv_table[:4]]) > 0)
    assert np.isnan(long.cv_table[4][1])
    short = fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=grid[:3], n_folds=4))[1]
    assert short.cv_table == long.cv_table[:3]
    assert short.chosen_lambda == long.chosen_lambda == grid[0]


@pytest.mark.parametrize("n, p, k, masked", [
    (600, 300, 2, True),  # two-class L-BFGS-B: the folds read the design through masks
    (300, 40, 3, True),   # K = 3 L-BFGS-B: masks too
    (60, 80, 2, False),   # Newton-sized folds: sliced into CSR copies
])
def test_sparse_cv_equals_the_sliced_reference_bit_for_bit(rng, monkeypatch, n, p, k, masked):
    pseudo = _noisy_problem(rng, n, p, k, density=0.2)
    grid = tuple(np.geomspace(10.0, 1e-3, 12).tolist())
    cfg = TrainConfig(ridge_lambda=grid, n_folds=5)
    under_mask = []
    for name in ("_binary_loss_grad", "_batch_loss_grad"):
        def recording(*args, objective=getattr(logistic, name)):
            under_mask.append(args[5] is not None)
            return objective(*args)

        monkeypatch.setattr(logistic, name, recording)
    model, report = fit_logistic_detailed(pseudo, cfg)
    monkeypatch.undo()
    assert any(under_mask) == masked

    reference = _full_grid_cv(pseudo, cfg)
    reference[_expected_stop(reference[:, 0]) + 1 :] = np.nan
    assert np.array_equal(np.array(report.cv_table)[:, 1:], reference, equal_nan=True)
    chosen = grid[int(np.nanargmin(reference[:, 0]))]
    assert report.chosen_lambda == chosen
    X, Y, _, _ = logistic._design(pseudo)
    assert X.format == "csc"
    path, _ = logistic._fit_path(
        csr_array(X), Y, [lam for lam in grid if lam >= chosen], cfg.tol, cfg.max_iter
    )
    assert np.array_equal(model.beta, center_columns(path[-1][0]))


def test_cv_on_a_sparse_design_copies_no_fold():
    # Every (lambda, fold) reads the CSC design through a row mask.  A copy
    # of each fold's rows and of their transpose would hold about 1.6
    # designs' bytes more.
    import tracemalloc

    from levyaug import ThinningConfig, generate_pseudo_examples
    from levyaug.families import poisson_family
    from levyaug.simulation import PoissonSimSpec, gen_poisson_sim

    train, _ = gen_poisson_sim(PoissonSimSpec(), 100, RngState(5).spawn())
    cfg = ThinningConfig(alpha=0.1, n_pseudo=32, seed=RngState(6))
    pseudo = generate_pseudo_examples(train, cfg, poisson_family(500))
    X = logistic._design(pseudo)[0]
    design = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=3.0))  # loads scipy before tracing
    tracemalloc.start()
    try:
        fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=(3.0, 1.0, 0.3), n_folds=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * design


def test_cv_without_a_grid_runs_the_default_grid_of_the_design(rng):
    pseudo = _random_problem(rng, n=30, p=3, k=2)
    _, report = fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=None, n_folds=3))
    design, labels, _, _ = logistic._design(pseudo)
    assert tuple(lam for lam, _, _ in report.cv_table) == default_lambda_grid(design, labels)


def test_cv_fold_that_loses_a_class_is_degenerate():
    # origin i is in fold i % 2, and fold 0 holds every class-1 origin, so
    # fold 0's training rows are all class 2
    pseudo = _batch(np.arange(12.0).reshape(6, 2), [1, 2, 1, 2, 1, 2])
    with pytest.raises(DegenerateDataError, match="^fold 0 lost a class; use fewer folds$"):
        fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=(1.0, 0.1), n_folds=2))


def test_default_lambda_grid_shape(rng):
    X = rng.standard_normal((50, 3))
    Y = rng.integers(1, 3, size=50)
    grid = default_lambda_grid(X, Y)
    assert len(grid) == 50
    assert grid[0] > grid[-1]
    assert grid[-1] == pytest.approx(grid[0] * 1e-4)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_self_consistency_slope_near_one():
    g = RngState(31).spawn()
    n, p = 2000, 2
    beta_true = np.array([[0.9, -0.9], [-0.5, 0.5]])
    X = g.standard_normal((n, p))
    scores = X @ beta_true
    probs = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
    Y = 1 + (g.random(n) < probs[:, 1]).astype(int)
    pseudo = _batch(X, Y)
    model = fit_logistic(pseudo, TrainConfig(ridge_lambda=1e-4))
    originals = [Example(x=x, y=int(y), t=1.0) for x, y in zip(X, Y)]
    calibrated = calibrate(model, originals)
    assert abs(calibrated.calib_scale - 1.0) < 0.1


def test_calibration_degenerate_scores():
    model = LogisticModel(beta=np.zeros((2, 2)))
    originals = [
        Example(x=np.array([1.0, 0.0]), y=1, t=1.0),
        Example(x=np.array([0.0, 1.0]), y=1, t=1.0),
        Example(x=np.array([1.0, 1.0]), y=1, t=1.0),
        Example(x=np.array([2.0, 1.0]), y=2, t=1.0),
    ]
    calibrated = calibrate(model, originals)
    assert calibrated.calib_scale == 0.0
    # centered intercepts reproduce the 3:1 class frequencies
    freq = np.array([0.75, 0.25])
    expect = np.log(freq) - np.log(freq).mean()
    assert np.allclose(calibrated.calib_c, expect, atol=1e-6)


def test_calibration_symmetric_data_zero_intercept():
    g = RngState(32).spawn()
    n = 4000
    m = np.array([0.8, -0.4])
    X = np.concatenate([m + g.standard_normal((n // 2, 2)),
                        -m + g.standard_normal((n // 2, 2))])
    Y = np.concatenate([np.ones(n // 2, dtype=int), np.full(n // 2, 2, dtype=int)])
    pseudo = _batch(X, Y)
    model = fit_logistic(pseudo, TrainConfig(ridge_lambda=1e-3))
    originals = [Example(x=x, y=int(y), t=1.0) for x, y in zip(X, Y)]
    calibrated = calibrate(model, originals)
    c_gap = calibrated.calib_c[1] - calibrated.calib_c[0]
    assert abs(c_gap) < 0.15


def test_calibration_separable_data_caps_scale():
    X = np.array([[1.0], [2.0], [-1.0], [-2.0]])
    Y = np.array([1, 1, 2, 2])
    model = LogisticModel(beta=np.array([[-1.0, 1.0]]))
    originals = [Example(x=x, y=int(y), t=1.0) for x, y in zip(X, Y)]
    with pytest.warns(RuntimeWarning):
        calibrated = calibrate(model, originals)
    assert abs(calibrated.calib_scale) <= 1e3


def test_calibration_checks_the_originals_against_the_model():
    two = LogisticModel(beta=center_columns(np.array([[1.0, 0.0], [0.0, 1.0]])))
    three = LogisticModel(beta=center_columns(np.eye(3)[:2]))
    rows = [Example(x=np.array([1.0, 0.0]), y=1, t=1.0),
            Example(x=np.array([0.0, 1.0]), y=2, t=1.0)]
    wide = [Example(x=np.array([1.0, 0.0, 2.0]), y=1 + i % 2, t=1.0) for i in range(4)]
    for model, originals, error in (
        (two, wide, ShapeError),  # width mismatch
        (two, rows + [Example(x=np.array([1.0, 1.0]), y=3, t=1.0)], ShapeError),
        (three, rows, DegenerateDataError),  # class 3 missing
        (LogisticModel(beta=np.zeros((2, 3))), rows, DegenerateDataError),
        (two, [], DegenerateDataError),
    ):
        with pytest.raises(error):
            calibrate(model, originals)


def test_calibration_with_a_nan_original_raises():
    model = LogisticModel(beta=np.array([[-1.0, 1.0], [0.5, -0.5]]))
    originals = [Example(x=np.array([np.nan, 1.0]), y=1, t=1.0)] + [
        Example(x=np.array([0.3 * i - 0.7, 0.2 * i]), y=1 + i % 2, t=1.0) for i in range(5)
    ]
    with pytest.raises(OptimizationError, match="not finite"):
        calibrate(model, originals)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_uniform_with_tie_break():
    model = LogisticModel(beta=np.zeros((3, 4)))
    label, probs = predict(model, np.array([1.0, 2.0, 3.0]))
    assert label == 1
    assert np.allclose(probs, 0.25)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3))
def test_predict_probs_sum_to_one(values):
    beta = center_columns(np.arange(9.0).reshape(3, 3) ** 1.5)
    model = LogisticModel(beta=beta)
    _, probs = predict(model, np.array(values))
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs >= 0.0)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    k=st.integers(min_value=0, max_value=2),
    bump=st.floats(min_value=1e-3, max_value=5.0),
)
def test_predict_monotone_in_class_score(values, k, bump):
    # raising x_k raises class k's score while lowering the others' (the
    # model is the centered identity), so P(k) must not decrease
    beta = center_columns(np.eye(3))
    model = LogisticModel(beta=beta)
    x = np.array(values)
    _, before = predict(model, x)
    x2 = x.copy()
    x2[k] += bump
    _, after = predict(model, x2)
    assert after[k] >= before[k] - 1e-12


def test_predict_shape_mismatch():
    model = LogisticModel(beta=np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        predict(model, np.array([1.0, 2.0]))
    short = [Example(x=np.array([1.0, 2.0]), y=1, t=1.0)]
    for score in (predict_labels, mean_log_loss):
        with pytest.raises(ShapeError):
            score(model, short)


def test_scoring_an_empty_batch():
    model = LogisticModel(beta=np.zeros((3, 2)))
    labels = predict_labels(model, [])
    assert labels.shape == (0,) and labels.dtype.kind == "i"
    with pytest.raises(DegenerateDataError, match="no examples"):
        mean_log_loss(model, [])


def test_model_gauge_enforced():
    with pytest.raises(ParameterError):
        LogisticModel(beta=np.ones((2, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_rejects_non_finite_coefficients(value):
    with pytest.raises(ParameterError, match="beta must be finite"):
        LogisticModel(beta=np.array([[value, -value], [0.5, -0.5]]))


@pytest.mark.parametrize(
    "setting",
    [dict(tol=0.0), dict(tol=-1e-7), dict(max_iter=0), dict(n_folds=1),
     dict(ridge_lambda=-0.1), dict(ridge_lambda=(1.0, -0.1)), dict(ridge_lambda=()),
     dict(ridge_lambda=float("nan")), dict(ridge_lambda=float("inf")),
     dict(ridge_lambda=(1.0, float("nan")))],
)
def test_train_config_rejects_a_bad_setting(setting):
    with pytest.raises(ParameterError):
        TrainConfig(**setting)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_round_trip(tmp_path, rng):
    beta = center_columns(rng.standard_normal((4, 3)) * 1e3)
    model = LogisticModel(
        beta=beta,
        calib_c=np.array([0.1, -0.05, -0.05]),
        calib_scale=0.731,
    )
    path = tmp_path / "model.txt"
    save_model(model, path, gaussian_family(2, np.array([[2.0, 0.3], [0.3, 1.0]])))
    loaded, family = load_model(path)
    assert np.array_equal(loaded.beta, model.beta)
    assert np.array_equal(loaded.calib_c, model.calib_c)
    assert loaded.calib_scale == model.calib_scale
    assert loaded.feature_map is model.feature_map
    assert family.kind.value == "gaussian"
    assert np.array_equal(family.sigma, np.array([[2.0, 0.3], [0.3, 1.0]]))
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.txt"
    save_model(loaded, path2, family)
    assert path.read_bytes() == path2.read_bytes()


def test_model_round_trip_matrix_features(tmp_path):
    beta = center_columns(np.array([[1.0, -1.0], [0.5, -0.5], [0.5, -0.5], [2.0, -2.0]]))
    model = LogisticModel(beta=beta, feature_map=FeatureMap.FLATTEN_SYMMETRIC)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded, family = load_model(path)
    assert family is None
    assert loaded.feature_map is FeatureMap.FLATTEN_SYMMETRIC
    assert np.array_equal(loaded.beta, model.beta)


def test_load_model_rejects_a_malformed_document(tmp_path):
    model = LogisticModel(beta=center_columns(np.arange(6.0).reshape(3, 2)))
    path = tmp_path / "model.txt"
    save_model(model, path, gaussian_family(2, np.array([[2.0, 0.3], [0.3, 1.0]])))
    lines = path.read_text().splitlines(keepends=True)
    headers = [i for i, line in enumerate(lines) if line[0].isalpha()]
    assert [lines[i].split()[0] for i in headers] == [
        "levyaug-model", "family", "sigma", "feature_map", "beta", "calib_c", "calib_scale"
    ]
    bad = path.with_name("bad.txt")
    documents = [lines[:keep] for keep in range(len(lines))]  # every truncation
    documents += [lines[:i] + lines[i + 1 :] for i in headers]  # each header missing
    documents += [lines[:i] + ["\n"] + lines[i + 1 :] for i in headers]  # or blank
    documents.append(["levyaug-model v2\n"] + lines[1:])
    for document in documents:
        bad.write_text("".join(document))
        with pytest.raises(DataFormatError):
            load_model(bad)


def test_load_model_of_text_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"levyaug-model v1\n\xff\n")
    with pytest.raises(DataFormatError, match="file is not UTF-8 text"):
        load_model(path)


@pytest.mark.parametrize("header, offset, line", [
    ("family", 0, "family bogus 3"),
    ("family", 0, "family"),
    ("sigma", 1, "2.0"),  # a ragged sigma block
    ("feature_map", 0, "feature_map bogus"),
    ("beta", 0, "beta 3 x"),
    ("beta", 0, "beta 3"),
    ("beta", 1, "x 1.0"),
    ("calib_c", 1, "0.0 zero"),
    ("calib_c", 1, "0.0 0.0 0.0"),  # an entry per class, plus one
    ("calib_c", 1, "0.0"),
    ("calib_scale", 0, "calib_scale"),
    ("calib_scale", 0, "calib_scale 1.0\njunk"),  # a line after the last section
    ("calib_scale", 0, "calib_scale 1.0\n"),
])
def test_load_model_rejects_a_bad_token_inside_a_section(tmp_path, header, offset, line):
    model = LogisticModel(beta=center_columns(np.arange(6.0).reshape(3, 2)))
    path = tmp_path / "model.txt"
    save_model(model, path, gaussian_family(2, np.array([[2.0, 0.3], [0.3, 1.0]])))
    lines = path.read_text().splitlines()
    at = [ln.split(" ")[0] for ln in lines].index(header) + offset
    lines[at] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_model(path)
