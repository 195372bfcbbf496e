import os
import subprocess
import sys

import numpy as np
import pytest

from levyaug import (
    AlphaPathPoint,
    DegenerateDataError,
    Example,
    ExampleBatch,
    ParameterError,
    SupportError,
    RngState,
    alpha_path_converges,
    fit_strong_thinning,
    gamma_family,
    gaussian_family,
    limit_loss,
    limit_loss_gradient,
    logistic_loss,
    naive_bayes_poisson_fit,
    poisson_family,
    predict,
    wishart_family,
)
from levyaug.logistic import center_columns

from conftest import finite_diff_gradient


# ---------------------------------------------------------------------------
# limit loss values
# ---------------------------------------------------------------------------

def test_limit_loss_gaussian_zero_beta():
    val = limit_loss(np.zeros((2, 3)), np.array([1.0, 2.0]), 2, gaussian_family(2), 1.5)
    assert val == 0.0


def test_limit_loss_gaussian_hand_computed():
    beta = np.array([[1.0, -1.0], [0.0, 0.0]])
    val = limit_loss(beta, np.array([1.0, 0.0]), 1, gaussian_family(2), 2.0)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_limit_loss_poisson_is_per_word_loss(rng):
    d, k = 4, 3
    fam = poisson_family(d)
    for _ in range(10):
        beta = center_columns(rng.standard_normal((d, k)))
        x = rng.integers(0, 6, size=d)
        y = int(rng.integers(1, k + 1))
        got = limit_loss(beta, x, y, fam, 7.0)
        expect = sum(
            x[j] * logistic_loss(beta, np.eye(d)[j], y) for j in range(d)
        )
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_limit_loss_gradient_matches_fd(rng):
    for _ in range(40):
        d, k = 3, 3
        beta = rng.standard_normal((d, k))
        gauss = gaussian_family(d, np.eye(d) * rng.uniform(0.5, 2.0))
        x = rng.standard_normal(d)
        y = int(rng.integers(1, k + 1))
        t = rng.uniform(0.5, 3.0)
        grad = limit_loss_gradient(beta, x, y, gauss, t)
        fd = finite_diff_gradient(lambda b: limit_loss(b, x, y, gauss, t), beta)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5

        xc = rng.integers(0, 5, size=d)
        pois = poisson_family(d)
        grad = limit_loss_gradient(beta, xc, y, pois, t)
        fd = finite_diff_gradient(lambda b: limit_loss(b, xc, y, pois, t), beta)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


def test_limit_loss_convex_midpoint(rng):
    d, k = 3, 2
    fam = poisson_family(d)
    for _ in range(50):
        b1 = rng.standard_normal((d, k))
        b2 = rng.standard_normal((d, k))
        x = rng.integers(0, 5, size=d)
        y = int(rng.integers(1, k + 1))
        args = (x, y, fam, 2.0)
        mid = limit_loss(0.5 * (b1 + b2), *args)
        assert mid <= 0.5 * (limit_loss(b1, *args) + limit_loss(b2, *args)) + 1e-9


def test_limit_loss_checks_the_example_against_the_family():
    beta = np.zeros((2, 2))
    for fn in (limit_loss, limit_loss_gradient):
        with pytest.raises(SupportError):
            fn(beta, np.array([-1.0, 2.5]), 1, poisson_family(2), 1.0)


def test_limit_loss_rejects_underived_families():
    beta = np.zeros((2, 2))
    for fn in (limit_loss, limit_loss_gradient):
        with pytest.raises(ParameterError):
            fn(beta, np.array([1.0, 2.0]), 1, gamma_family(2), 1.0)
        with pytest.raises(ParameterError):
            fn(beta, 3.0 * np.eye(2), 1, wishart_family(2), 3.0)


def test_gaussian_aggregated_display_gradients_agree(rng):
    # route A: summed limit loss; route B: the squared-Mahalanobis form.
    # With balanced classes their projected beta-gradients coincide.
    d, k, t = 3, 3, 2.0
    sigma = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.5]])
    fam = gaussian_family(d, sigma)
    examples = []
    g = RngState(41).spawn()
    for y in range(1, k + 1):
        for _ in range(4):
            examples.append(Example(x=g.standard_normal(d), y=y, t=t))

    def grad_a(beta):
        total = np.zeros((d, k))
        for ex in examples:
            total += limit_loss_gradient(beta, ex.x, ex.y, fam, ex.t)
        return total

    n_per = len(examples) // k

    def grad_b(beta):
        total = np.zeros((d, k))
        for kk in range(k):
            s_k = sum(np.asarray(ex.x) for ex in examples if ex.y == kk + 1)
            total[:, kk] = n_per * t * (sigma @ beta[:, kk]) - s_k
        return center_columns(total)

    for _ in range(50):
        beta = center_columns(g.standard_normal((d, k)))
        assert np.abs(grad_a(beta) - grad_b(beta)).max() < 1e-8


# ---------------------------------------------------------------------------
# fitting the limit objective
# ---------------------------------------------------------------------------

def _gaussian_examples(rng, n=30, d=3, k=2, t=2.0):
    out = []
    for i in range(n):
        y = 1 + i % k
        mean = np.zeros(d)
        mean[y - 1] = 1.5
        out.append(Example(x=t * mean + rng.standard_normal(d), y=y, t=t))
    return out


def test_fit_strong_thinning_gaussian_matches_linear_solve(rng):
    d, k, lam = 3, 2, 0.3
    sigma = np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 2.0]])
    fam = gaussian_family(d, sigma)
    examples = _gaussian_examples(rng, n=30, d=d, k=k)
    model = fit_strong_thinning(examples, fam, ridge_lambda=lam)

    t_total = sum(ex.t for ex in examples)
    s = np.zeros((d, k))
    for ex in examples:
        s[:, ex.y - 1] += ex.x
    s_bar = s.mean(axis=1, keepdims=True)
    direct = np.linalg.solve(
        (t_total / k) * sigma + lam * np.eye(d), s - s_bar
    )
    assert np.abs(model.beta - direct).max() < 1e-8


def test_fit_strong_thinning_poisson_matches_generic_minimizer(rng):
    from scipy.optimize import minimize

    d, k = 3, 2
    fam = poisson_family(d)
    g = RngState(42).spawn()
    examples = [
        Example(x=g.poisson(3.0, size=d) + 1, y=1 + i % k, t=4.0) for i in range(12)
    ]
    lam = 0.05
    model = fit_strong_thinning(examples, fam, ridge_lambda=lam)

    def objective(gamma_flat):
        gamma = gamma_flat.reshape(d, k - 1)
        beta = np.concatenate([gamma, -gamma.sum(axis=1, keepdims=True)], axis=1)
        value = 0.5 * lam * (beta**2).sum()
        grad = lam * beta
        for ex in examples:
            value += limit_loss(beta, ex.x, ex.y, fam, ex.t)
            grad += limit_loss_gradient(beta, ex.x, ex.y, fam, ex.t)
        return value, (grad[:, :-1] - grad[:, -1:]).ravel()

    res = minimize(objective, np.zeros(d * (k - 1)), jac=True, method="L-BFGS-B",
                   options=dict(gtol=1e-12, ftol=0.0, maxiter=2000))
    gamma = res.x.reshape(d, k - 1)
    beta = center_columns(
        np.concatenate([gamma, -gamma.sum(axis=1, keepdims=True)], axis=1)
    )
    assert np.abs(model.beta - beta).max() < 1e-6


def test_poisson_class_sums_do_not_wrap_in_compact_counts():
    # The Poisson limit and naive Bayes depend on the rows only through the
    # per-class count sums.  The split rows are uint16, and their class-1
    # sum of word 1 (80,000) would wrap if it were summed in that type.
    fam = poisson_family(2)
    split = ExampleBatch(
        x=np.array([[40_000, 5], [40_000, 3], [7, 9]], dtype=np.uint16),
        y=[1, 1, 2], t=[6.0, 6.0, 4.0],
    )
    merged = ExampleBatch(x=np.array([[80_000, 8], [7, 9]]), y=[1, 2], t=[12.0, 4.0])
    fits = [fit_strong_thinning(b, fam, ridge_lambda=0.1) for b in (split, merged)]
    assert np.array_equal(fits[0].beta, fits[1].beta)
    bayes = [naive_bayes_poisson_fit(b) for b in (split, merged)]
    assert np.array_equal(bayes[0].rates, bayes[1].rates)
    assert bayes[1].rates[0, 0] == pytest.approx(80_000 / 12.0, rel=1e-3)


def test_fit_strong_thinning_poisson_saturates_per_word():
    # with balanced labels the fitted single-word class probabilities
    # reproduce the empirical class split of each word's occurrences
    x1 = np.array([6, 2, 4])
    x2 = np.array([2, 6, 4])
    examples = [
        Example(x=x1, y=1, t=12.0),
        Example(x=x2, y=2, t=12.0),
    ]
    fam = poisson_family(3)
    model = fit_strong_thinning(examples, fam, ridge_lambda=0.0, tol=1e-9)
    counts = np.stack([x1, x2]).T  # (word, class)
    for j in range(3):
        _, probs = predict(model, np.eye(3)[j])
        assert np.allclose(probs, counts[j] / counts[j].sum(), atol=1e-7)


def test_fit_strong_thinning_rejects_underived_families(rng):
    examples = [Example(x=np.array([1.0]), y=1, t=1.0),
                Example(x=np.array([2.0]), y=2, t=1.0)]
    with pytest.raises(ParameterError):
        fit_strong_thinning(examples, gamma_family(1))


def test_fit_strong_thinning_missing_class():
    for examples in ([Example(x=np.array([1, 2]), y=2, t=1.0)], []):
        with pytest.raises(DegenerateDataError):
            fit_strong_thinning(examples, poisson_family(2))


def test_fit_strong_thinning_checks_the_examples_against_the_family():
    negative = [Example(x=np.array([-1, 2.5]), y=1, t=1.0),
                Example(x=np.array([1, 2]), y=2, t=1.0)]
    wide = [Example(x=np.array([1, 2, 0]), y=1, t=1.0),
            Example(x=np.array([0, 2, 1]), y=2, t=1.0)]
    for examples in (negative, wide):
        with pytest.raises(SupportError):
            fit_strong_thinning(examples, poisson_family(2), ridge_lambda=1e-3)


# ---------------------------------------------------------------------------
# alpha path
# ---------------------------------------------------------------------------

def test_alpha_path_single_alpha_single_row(rng):
    fam = gaussian_family(2)
    examples = _gaussian_examples(rng, n=40, d=2, k=2, t=1.0)
    rows = alpha_path_converges(
        examples, fam, alphas=[0.5], n_pseudo=20, ridge_lambda=1e-6, seed=RngState(5)
    )
    assert len(rows) == 1
    assert isinstance(rows[0], AlphaPathPoint)
    assert rows[0].alpha == 0.5
    assert rows[0].direction_distance >= 0.0


def test_alpha_path_stable_under_doubling_b(rng):
    fam = gaussian_family(2)
    examples = _gaussian_examples(rng, n=40, d=2, k=2, t=1.0)
    base = [
        alpha_path_converges(
            examples, fam, [0.3], n_pseudo=100, ridge_lambda=1e-8, seed=RngState(s)
        )[0].direction_distance
        for s in range(5)
    ]
    doubled = [
        alpha_path_converges(
            examples, fam, [0.3], n_pseudo=200, ridge_lambda=1e-8, seed=RngState(s)
        )[0].direction_distance
        for s in (5, 6)
    ]
    # doubling B only shrinks the Monte Carlo part of d(alpha): the means
    # must agree within the single-draw scatter
    spread = 2.0 * np.std(base, ddof=1)
    assert abs(np.mean(doubled) - np.mean(base)) <= spread + 0.01


def test_alpha_path_script_runs():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_alpha_path.py")
    out = subprocess.run(
        [sys.executable, script, "--n", "20", "--alphas", "0.5,0.25", "-B", "20"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    rows = out.stdout.splitlines()[1:]
    assert [float(row.split()[0]) for row in rows] == [0.5, 0.25]


# ---------------------------------------------------------------------------
# naive Bayes
# ---------------------------------------------------------------------------

def test_naive_bayes_rate_mle():
    examples = [
        Example(x=np.array([2]), y=1, t=1.0),
        Example(x=np.array([4]), y=1, t=1.0),
    ]
    nb = naive_bayes_poisson_fit(examples)
    assert nb.rates[0, 0] == pytest.approx(3.0)


def test_naive_bayes_smoothing_floor():
    examples = [
        Example(x=np.array([0, 5]), y=1, t=2.0),
        Example(x=np.array([1, 3]), y=2, t=2.0),
    ]
    nb = naive_bayes_poisson_fit(examples, smoothing=1.0)
    assert nb.rates[0, 0] == pytest.approx(1.0 / (2.0 + 2.0))
    assert np.all(nb.rates > 0.0)
    assert np.all(np.isfinite(nb.scores))


def test_naive_bayes_matches_strong_thinning_single_word_posteriors():
    g = RngState(43).spawn()
    d, n_per = 4, 12
    examples = []
    for y in (1, 2):
        rates = np.array([3.0, 1.0, 2.0, 2.0]) if y == 1 else np.array([1.0, 3.0, 2.0, 2.0])
        for _ in range(n_per):
            examples.append(Example(x=g.poisson(rates) + 1, y=y, t=float(rates.sum())))
    model = fit_strong_thinning(examples, poisson_family(d), ridge_lambda=0.0)
    nb = naive_bayes_poisson_fit(examples, smoothing=0.0)
    for j in range(d):
        _, p_model = predict(model, np.eye(d)[j])
        s = nb.scores[:, j]
        p_nb = np.exp(s - s.max())
        p_nb /= p_nb.sum()
        assert np.abs(p_model - p_nb).max() < 1e-3
